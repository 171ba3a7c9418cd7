"""Slow, direct reference implementations that the fast exact kernels are tested against.

Each one is the straightforward Fraction computation that a kernel in
src/opdyn replaced; the differential tests require equal results.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import sqrt
from typing import NamedTuple

import numpy as np

from opdyn import majority
from opdyn.cascade import _ndtr
from opdyn.network import Network, stationary_distribution
from opdyn.signals import GaussianLLR, trial_rng


def solve_rational(A, b):
    """Gauss-Jordan elimination over Fractions. A: list of rows, b: list."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def enumerate_p_w(net, delta):
    """(p_w, tie mass) by summing over all 2^n signal vectors, given S = 1."""
    alpha = stationary_distribution(net).alpha
    n = net.n
    half = Fraction(1, 2)
    hit, miss = half + delta, half - delta
    succ = tie = Fraction(0)
    for psi in product((0, 1), repeat=n):
        k = sum(psi)
        w = hit ** k * miss ** (n - k)
        a_inf = sum(a * x for a, x in zip(alpha, psi))
        if a_inf == half:
            tie += w
        elif a_inf > half:
            succ += w
    return succ, tie


def neighbor_matrix(net: Network):
    """0/1 matrix M with M[i, j] = 1 iff j in N(i); weights are ignored."""
    M = np.zeros((net.n, net.n), dtype=np.int64)
    for i in range(net.n):
        for j in net.out_neighbors(i):
            M[i, j] = 1
    return M


def scalar_step(net: Network, config) -> tuple:
    """majority.step as one matrix-vector product per configuration.

    A^i_{t+1} = sgn sum_{j in N(i)} A^j_t.
    """
    majority._check_odd_neighborhoods(net)
    M = neighbor_matrix(net)
    a = np.asarray(config, dtype=np.int64)
    if a.shape != (net.n,) or not np.all(np.abs(a) == 1):
        raise ValueError("config must be a +-1 vector of length n")
    s = M @ a
    if np.any(s == 0):
        raise ArithmeticError("neighborhood sum hit zero despite odd-size check")
    return tuple(np.sign(s).astype(int))


def scalar_lyapunov(net: Network, config_t, config_tplus1) -> int:
    """L_t = 1/2 sum over ordered neighbor pairs of (A^i_{t+1} - A^j_t)^2, one pair of rounds.

    The reference for majority.lyapunov_series.
    """
    total = 0
    for i in range(net.n):
        for j in net.out_neighbors(i):
            total += (config_tplus1[i] - config_t[j]) ** 2
    if total % 2:
        raise AssertionError("ordered-pair Lyapunov sum should be even")
    return total // 2


def scalar_j_functional(net: Network, prev, cur, nxt) -> int:
    """J_t = sum_i (A^i_{t+1} - A^i_{t-1}) * sum_{j in N(i)} A^j_t, one triple of rounds.

    The reference for majority.j_series.
    """
    M = neighbor_matrix(net)
    s = M @ np.asarray(cur, dtype=np.int64)
    return int(sum((nxt[i] - prev[i]) * s[i] for i in range(net.n)))


def stepwise_limit_profiles(net, configs):
    """Even-phase limits by exactly 2(|E| + 1) single int64 majority rounds."""
    M = neighbor_matrix(net)
    cur = np.asarray(configs, dtype=np.int64)
    for _ in range(2 * (len(net.undirected_edge_list()) + 1)):
        cur = np.sign(cur @ M.T)
    return cur


def fraction_retention(net, delta):
    """iota(G, delta) by pooling Fraction joint weights per limit profile."""
    n = net.n
    p = Fraction(1, 2) + Fraction(delta)
    q = 1 - p
    configs = majority.all_spin_configs(n)
    limits = stepwise_limit_profiles(net, configs)
    joint = {}
    for row, prof in zip(configs, limits):
        k_plus = int((row == 1).sum())
        acc = joint.setdefault(tuple(int(x) for x in prof), [Fraction(0), Fraction(0)])
        acc[0] += Fraction(1, 2) * p ** (n - k_plus) * q ** k_plus     # S = -1
        acc[1] += Fraction(1, 2) * p ** k_plus * q ** (n - k_plus)     # S = +1
    return sum(min(w0, w1) for w0, w1 in joint.values())


def fraction_map_accuracy_three_bits(p, d1=0, d2=0, d3=0):
    """signals.map_accuracy_three_bits with one Fraction product per outcome and state.

    Bit i has P(X_i=1 | S=1) = p + d_i and P(X_i=0 | S=0) = p - d_i, the
    bits conditionally independent, S fair. Enumerates the 8 outcomes under
    both states; returns (accuracy, rule) with rule mapping each outcome
    triple to the MAP guess.
    """
    p = Fraction(p)
    ds = [Fraction(d) for d in (d1, d2, d3)]
    if not Fraction(1, 2) < p < 1:
        raise ValueError("need 1/2 < p < 1")
    for d in ds:
        for q in (p + d, p - d):
            if not 0 < q < 1:
                raise ValueError("degenerate parameters: a conditional probability leaves (0,1)")
    half = Fraction(1, 2)
    rule = {}
    acc = Fraction(0)
    for x in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
        w1 = half
        w0 = half
        for xi, d in zip(x, ds):
            p1 = p + d if xi == 1 else 1 - p - d
            p0 = p - d if xi == 0 else 1 - p + d
            w1 *= p1
            w0 *= p0
        # ties broken toward 1; tie outcomes contribute equally either way
        guess = 1 if w1 >= w0 else 0
        rule[x] = guess
        acc += max(w0, w1)
    return acc, rule


def absorption_drift(net, h):
    """{state: E[h(next) | state] - h(state)} for the states where it is nonzero.

    Contracts the one-step product measure one agent at a time in Fractions.
    """
    n = net.n
    out = {}
    for s in range(1 << n):
        qs = [sum((Fraction(w) for j, w in net.out_neighbors(i).items() if (s >> j) & 1),
                  Fraction(0)) for i in range(n)]
        cur = [h[t] for t in range(1 << n)]
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            cur = [(1 - qs[i]) * cur[t] + qs[i] * cur[t | bit] for t in range(bit)]
        if cur[0] != h[s]:
            out[s] = cur[0] - h[s]
    return out


def fraction_profile_entries(model, n):
    """(s, profile, weight) atoms of 1/2 d0 x mu0^n + 1/2 d1 x mu1^n, one Fraction product per atom."""
    half = Fraction(1, 2)
    entries = []
    for s in (0, 1):
        mu = model.mu1 if s == 1 else model.mu0
        for prof in product(range(len(model.alphabet)), repeat=n):
            w = half
            for k in prof:
                w *= mu[k]
            entries.append((s, tuple(model.alphabet[k] for k in prof), w))
    return tuple(entries)


class FractionRun(NamedTuple):
    """The public fields of a bayes.BayesResult, as fraction_run_exact computes them."""

    beliefs: list
    actions: list
    partitions: list
    rounds: int
    stabilized: bool


def _cells_from_keys(keys):
    """Map history keys to small ids; entries sharing a key share a cell."""
    ids = {}
    out = []
    for k in keys:
        if k not in ids:
            ids[k] = len(ids)
        out.append(ids[k])
    return out


def fraction_run_exact(net, space, horizon, utility="continuous", tie_rule="choose_one"):
    """Forward induction with Fraction beliefs per atom and growing history keys.

    The reference for bayes.run_exact: each agent's cell key is its own
    signal followed by every neighbour action it has seen, and every belief
    is a Fraction division per atom.
    """
    n = net.n
    entries = space.entries
    E = len(entries)
    weights = [w for (_s, _p, w) in entries]
    states = [s for (s, _p, _w) in entries]
    nbrs = [sorted(net.out_neighbors(i)) for i in range(n)]

    keys = [[(entries[e][1][i],) for e in range(E)] for i in range(n)]
    half = Fraction(1, 2)
    beliefs, actions, partitions = [], [], []
    stabilized = False
    for t in range(horizon):
        part_t = [_cells_from_keys(keys[i]) for i in range(n)]
        bel_t, act_t = [], []
        for i in range(n):
            cell_w = {}
            cell_w1 = {}
            for e in range(E):
                c = part_t[i][e]
                cell_w[c] = cell_w.get(c, Fraction(0)) + weights[e]
                if states[e] == 1:
                    cell_w1[c] = cell_w1.get(c, Fraction(0)) + weights[e]
            bel_i = []
            act_i = []
            for e in range(E):
                c = part_t[i][e]
                b = cell_w1.get(c, Fraction(0)) / cell_w[c]
                bel_i.append(b)
                if utility == "continuous":
                    act_i.append(b)
                elif b > half:
                    act_i.append(1)
                elif b < half:
                    act_i.append(0)
                elif tie_rule == "choose_one":
                    act_i.append(1)
                else:
                    sig = entries[e][1][i]
                    if sig not in (0, 1):
                        raise ValueError("own_signal tie rule needs 0/1 signals")
                    act_i.append(sig)
            bel_t.append(bel_i)
            act_t.append(act_i)
        beliefs.append(bel_t)
        actions.append(act_t)
        partitions.append(part_t)
        # observe: append this round's neighbor actions to every agent's history
        for i in range(n):
            for e in range(E):
                keys[i][e] = keys[i][e] + tuple(act_t[j][e] for j in nbrs[i])
        if t >= 1 and all(partitions[-1][i] == partitions[-2][i] for i in range(n)):
            # partitions can no longer refine; every later round repeats this one
            stabilized = True
            break
    return FractionRun(beliefs=beliefs, actions=actions, partitions=partitions,
                       rounds=len(actions), stabilized=stabilized)


def searchsorted_mc_consensus(net, delta, trials, seed, step_cap=None):
    """voter.mc_consensus as one searchsorted call per agent per round, on whole arrays.

    The reference for the blocked kernel: the same draws in the same order, so
    every seed gives the same matches, times, s and value.
    """
    n = net.n
    if step_cap is None:
        d = max(len(net.out_neighbors(i)) for i in range(n))
        step_cap = 100 * 2 * d * n * n
    cum = []
    choice_idx = []
    for i in range(n):
        nb = net.out_neighbors(i)
        js = np.array(sorted(nb), dtype=np.int64)
        ws = np.array([float(nb[j]) for j in js], dtype=float)
        cum.append(np.cumsum(ws / ws.sum()))
        choice_idx.append(js)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    s = rng.integers(0, 2, size=trials).astype(np.int8)
    match = rng.random((trials, n)) < 0.5 + float(delta)
    state = np.where(match, s[:, None], 1 - s[:, None]).astype(np.int8)

    active = np.arange(trials)
    times = np.zeros(trials, dtype=np.int64)
    value = np.zeros(trials, dtype=np.int8)
    for t in range(step_cap + 1):
        done = (state == state[:, :1]).all(axis=1)
        if done.any():
            idx = active[done]
            value[idx] = state[done, 0]
            times[idx] = t
            active = active[~done]
            state = state[~done]
        if len(active) == 0:
            break
        m = len(active)
        u = rng.random((m, n))
        nxt = np.empty_like(state)
        for i in range(n):
            picks = choice_idx[i][np.searchsorted(cum[i], u[:, i], side="right")]
            nxt[:, i] = state[np.arange(m), picks]
        state = nxt
    else:
        raise TimeoutError(f"{len(active)} trials unabsorbed after {step_cap} rounds")
    return {"matches": int((value == s).sum()), "trials": trials,
            "times": times, "s": s, "value": value}


def per_trial_gaussian_run(model: GaussianLLR, n, trials, seed):
    """cascade.gaussian_run as it updated every trial's public log-ratio itself.

    Vectorized sequential run with N(+-1, sigma^2) signals, log domain.

    Private log-ratio of S=0 vs S=1 for observation y is -2y/sigma^2. The
    action is a threshold rule in y, so the observer's update only needs
    Phi at the moving threshold. Returns per-position P(A_i = S) and the
    fraction of runs whose last decision ignored the signal support
    (always 0: Gaussian support is unbounded, no cascade ever starts).
    """
    sigma2 = float(model.sigma2)
    sigma = sqrt(sigma2)
    base = trial_rng(seed, 0)
    s = base.integers(0, 2, size=trials)
    mean = np.where(s == 1, 1.0, -1.0)
    log_lx = np.zeros(trials)
    p_correct = np.zeros(n)
    for i in range(n):
        y = mean * 1.0 + trial_rng(seed, 1, agent=i).normal(0.0, sigma, size=trials)
        # action 1 iff log Lx - 2y/sigma^2 <= 0, i.e. y >= sigma^2 log Lx / 2
        thresh = sigma2 * log_lx / 2.0
        act = (y >= thresh).astype(np.int64)
        p_correct[i] = np.mean(act == s)
        # observer: P(A=1 | S=s') = 1 - Phi((thresh - m(s'))/sigma)
        z1 = (thresh - 1.0) / sigma
        z0 = (thresh + 1.0) / sigma
        pa1_s1 = 1.0 - _ndtr(z1)
        pa1_s0 = 1.0 - _ndtr(z0)
        with np.errstate(divide="ignore"):
            upd1 = np.log(pa1_s0) - np.log(pa1_s1)
            upd0 = np.log1p(-pa1_s0) - np.log1p(-pa1_s1)
        log_lx = log_lx + np.where(act == 1, upd1, upd0)
    return p_correct


@dataclass(frozen=True)
class StrongVoterState:
    opinions: tuple   # in {0, 1}
    strengths: tuple  # in {0, 1}; 1 = strong
    t: int = 0


def initial_strong_state(signals) -> StrongVoterState:
    return StrongVoterState(opinions=tuple(signals), strengths=(1,) * len(signals), t=0)


def strong_voter_step(net: Network, state: StrongVoterState, rng) -> StrongVoterState:
    """One asynchronous update on a uniformly random edge.

    Strong-vs-strong disagreement: both keep opinions, both go weak.
    Strong-vs-weak: the weak side adopts the strong opinion, strengths keep.
    Weak-vs-weak disagreement: both adopt one common fair-coin opinion.
    Equal opinions: no change. Afterwards the two endpoints swap their whole
    (opinion, strength) pairs with probability 1/2.
    """
    if net.directed:
        raise ValueError("strong voter runs on undirected networks")
    pairs = [e for e in net.undirected_edge_list() if e[0] != e[1]]
    i, j = pairs[int(rng.integers(0, len(pairs)))]
    ops = list(state.opinions)
    sts = list(state.strengths)
    ai, aj = ops[i], ops[j]
    wi, wj = sts[i], sts[j]
    if ai != aj:
        if wi == 1 and wj == 1:
            wi, wj = 0, 0
        elif wi == 1 and wj == 0:
            aj = ai
        elif wj == 1 and wi == 0:
            ai = aj
        else:
            common = int(rng.integers(0, 2))
            ai = aj = common
            wi = wj = 0
    if rng.integers(0, 2) == 1:
        ai, aj = aj, ai
        wi, wj = wj, wi
    ops[i], ops[j] = ai, aj
    sts[i], sts[j] = wi, wj
    return StrongVoterState(opinions=tuple(ops), strengths=tuple(sts), t=state.t + 1)
