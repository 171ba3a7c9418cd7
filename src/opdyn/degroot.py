"""DeGroot repeated-averaging dynamics.

Actions live in [0, 1]; each round every agent replaces its action by
the weighted average of its neighborhood. On a strongly connected
row-stochastic network with self-loops all actions converge to the common
limit sum_i alpha_i * psi_i, alpha the stationary distribution of the
weight matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .network import EXACT_SOLVE_MAX_N, Network, _solve_integer, require_stochastic, stationary_distribution
from .harness_util import debug, scaled, unscaled, wilson_interval
from .signals import bernoulli_blocks, check_delta, check_trials

# exact p_w refuses a DP over more distinct weighted signal sums than this
EXACT_DP_MAX_SUPPORT = 2 ** 20

# convergence_round's doubling search gives up past this round
CONVERGENCE_CAP = 100000


@dataclass
class LearningEstimate:
    p: object          # success probability (Fraction in exact mode)
    tie_mass: object   # probability of landing exactly on 1/2
    exact: bool
    trials: int = 0
    ci: tuple = None   # Wilson 95% interval in MC mode


def _exact_p_w(alpha, delta):
    """(p_w, tie mass) by a knapsack DP over the integer-weighted signal sum.

    Condition on S = 1 (the other state is symmetric). With D the common
    denominator of alpha, c_i = alpha_i D are integers and A_infinity = s / D
    for s = sum_i c_i psi_i, so success is 2s > D and a tie 2s = D. With
    1/2 + delta = a/b, each agent multiplies a vector's weight by a (psi_i = 1)
    or b - a (psi_i = 0); the DP maps each reachable s to its total integer
    weight over b^n.
    """
    hit = Fraction(1, 2) + delta
    a, b = hit.numerator, hit.denominator
    D, cs = scaled(alpha)
    weights = {0: 1}
    for c in cs:
        nxt = {}
        for s, w in weights.items():
            if a < b:           # at delta = 1/2 no signal misses, and a sum of weight 0 would only grow the DP
                nxt[s] = nxt.get(s, 0) + w * (b - a)
            nxt[s + c] = nxt.get(s + c, 0) + w * a
        if len(nxt) > EXACT_DP_MAX_SUPPORT:
            raise ValueError(f"exact p_w: more than {EXACT_DP_MAX_SUPPORT} distinct weighted "
                             f"signal sums (common denominator {D}); use mode='monte_carlo'")
        weights = nxt
    debug("p_w DP: n=%d support=%d D=%d", len(alpha), len(weights), D)
    total = b ** len(alpha)
    succ = sum(w for s, w in weights.items() if 2 * s > D)
    tie = sum(w for s, w in weights.items() if 2 * s == D)
    return Fraction(succ, total), Fraction(tie, total)


def learning_probability(net: Network, delta, mode="exact",
                         trials=10000, rng=None) -> LearningEstimate:
    """p_w(delta) = P(round(A_infinity) = S) under Bernoulli(delta) signals, 0 <= delta <= 1/2.

    mode="exact" needs an exact alpha, so it refuses more than
    network.EXACT_SOLVE_MAX_N agents before it solves; it runs a knapsack DP over the weighted signal sum (see _exact_p_w) and
    refuses more than EXACT_DP_MAX_SUPPORT distinct sums. Exact ties
    A_infinity = 1/2 are reported separately and count as neither success
    nor failure. mode="monte_carlo" samples trials signal vectors from rng a
    block at a time (see _sample_p_w) and carries a Wilson interval. A delta
    outside [0, 1/2] is refused with ValueError (signals.check_delta).
    """
    delta = check_delta(delta)
    n = net.n
    if mode == "exact":
        if n > EXACT_SOLVE_MAX_N:
            raise ValueError(f"exact p_w needs an exact stationary distribution, which is "
                             f"solved only for n <= {EXACT_SOLVE_MAX_N} (n={n})")
        p, tie = _exact_p_w(stationary_distribution(net).alpha, delta)
        return LearningEstimate(p=p, tie_mass=tie, exact=True)
    alpha = stationary_distribution(net).alpha
    if mode == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo mode needs an rng")
        trials = check_trials(trials)
        wins, ties = _sample_p_w(alpha, delta, trials, rng)
        lo, hi = wilson_interval(wins, trials)
        return LearningEstimate(p=wins / trials, tie_mass=ties / trials,
                                exact=False, trials=trials, ci=(lo, hi))
    raise ValueError(f"unknown mode {mode!r}")


def _sample_p_w(alpha, delta, trials, rng):
    """(wins, ties) over trials sampled signal vectors, scored a block of rows at a time.

    S and the signals come from signals.bernoulli_blocks. With an exact
    alpha whose common denominator D is below 2^53, the integers
    c_i = alpha_i D of the agents whose signal is S add up to m, exactly in
    float64; the limit is m / D under S = 1 and (D - m) / D under
    S = 0, so under either state a win is 2m > D and a tie 2m = D, the test of
    _exact_p_w. Otherwise the float limit alpha . psi is a tie at exactly 1/2
    and a win on S's side of it.
    """
    n = len(alpha)
    D, cs = scaled(alpha) if all(isinstance(a, Fraction) for a in alpha) else (None, None)
    if D is None or D >= 2 ** 53:
        D, c = None, np.array([float(a) for a in alpha])
    else:
        c = np.array(cs, dtype=np.float64)
    s, blocks = bernoulli_blocks(rng, trials, n, delta)
    wins = ties = 0
    for lo, match in blocks:
        sb = s[lo:lo + len(match)]
        if D is None:
            a_inf = np.where(match, sb[:, None], 1 - sb[:, None]) @ c
            tie = a_inf == 0.5
            wins += np.count_nonzero(~tie & ((a_inf > 0.5) == (sb == 1)))
        else:
            m2 = 2 * (match @ c)
            tie = m2 == D
            wins += np.count_nonzero(m2 > D)
        ties += np.count_nonzero(tie)
    debug("p_w MC: n=%d trials=%d D=%s", n, trials, "float" if D is None else D)
    return int(wins), int(ties)


def hoeffding_success_bound(alpha, delta):
    """Tail lower bound 1 - exp(-2 delta^2 / sum_i alpha_i^2) on p_w(delta).

    Derived from Hoeffding's inequality for the weighted signal average;
    covers the tie case since A = 1/2 already deviates by delta.
    """
    s2 = float(sum(Fraction(a) * Fraction(a) for a in alpha)) if not isinstance(alpha[0], float) \
        else float(sum(a * a for a in alpha))
    return 1.0 - math.exp(-2.0 * float(delta) ** 2 / s2)


def convergence_round(net: Network, tv_threshold=1e-9):
    """Smallest t with max_i TV(P^t[i], alpha) <= threshold, by doubling search.

    Every start shares one matrix power (and one stationary solve) per
    probed t. Those powers are dense
    n x n, so it refuses more than network.EXACT_SOLVE_MAX_N agents with
    ValueError before it builds the weight matrix.
    """
    if net.n > EXACT_SOLVE_MAX_N:
        raise ValueError(f"convergence_round powers the dense weight matrix, so it runs only for "
                         f"n <= {EXACT_SOLVE_MAX_N} (n={net.n})")
    alpha = stationary_distribution(net).as_floats()
    P = net.weight_matrix()

    def worst(t):
        Pt = np.linalg.matrix_power(P, t)
        return 0.5 * float(np.abs(Pt - alpha[None, :]).sum(axis=1).max())

    t = 1
    while t <= CONVERGENCE_CAP:
        if worst(t) <= tv_threshold:
            break
        t *= 2
    else:
        raise RuntimeError(f"no power of two up to {CONVERGENCE_CAP} rounds reached the mixing threshold")
    lo, hi = t // 2, t
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if worst(mid) <= tv_threshold:
            hi = mid
        else:
            lo = mid
    return hi


# -- cheaters ----------------------------------------------------------------

def cheater_limit_exact(net: Network, cheaters: dict):
    """Independent oracle: honest limits via absorbing-chain hitting probabilities.

    Returns a matrix h[i][c] = P(walk from i is absorbed at cheater c), so the
    limit of honest agent i is sum_c h[i][c] * value(c). Exact rational solve
    of (I - P_HH) h = P_Hc over the honest agents H, in integers: with the
    counts C over the row denominators D of the network's IntegerView, honest
    agent i's equation times D_i is sum_{j in H} C[i, j] h_j - D_i h_i =
    -C[i, c]. I - P_HH is nonsingular: on a strongly connected network
    (require_stochastic checks it) every honest walk reaches a cheater with
    positive probability, so P_HH^t -> 0 and 1 is not an eigenvalue of P_HH.
    [A | B] holds one right-hand column per cheater, each solved by
    network._solve_integer. Refuses a cheater that is not an agent, more
    than EXACT_SOLVE_MAX_N agents (the dense cap of the stationary solve)
    and a network that fails stochastic validation.
    """
    cs = sorted(cheaters)
    for c in cs:
        if not 0 <= c < net.n:
            raise ValueError(f"cheater {c} is not an agent: the network has agents 0 .. {net.n - 1}")
    if net.n > EXACT_SOLVE_MAX_N:
        raise ValueError(f"exact cheater limits are solved only for n <= {EXACT_SOLVE_MAX_N} (n={net.n})")
    view = require_stochastic(net)
    honest = np.delete(np.arange(net.n), cs)
    h = len(honest)
    # [A | B]: the columns of the honest agents, then one right-hand side per cheater; honest rows only
    col = np.argsort(np.concatenate((honest, np.array(cs, dtype=np.intp))))
    M = np.zeros((net.n, net.n), dtype=view.D.dtype)
    M[col[view.rows], col[view.J]] = view.C
    M = M[:h]
    M[np.arange(h), np.arange(h)] -= view.D[honest]
    M[:, h:] *= -1
    out = {}
    for k, c in enumerate(cs, h):
        # h(c) = 1, h(other cheater) = 0, h(i) = sum_j P[i][j] h(j)
        Q, N, branch = _solve_integer(M[:, np.r_[:h, k]])
        debug("exact solve n=%d: %s", h, branch)
        for i, x in zip(honest.tolist(), unscaled(Q, N)):
            out.setdefault(i, {})[c] = x
    return out
