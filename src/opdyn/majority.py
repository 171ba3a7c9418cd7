"""Deterministic majority dynamics on +-1 spins.

Each round every agent adopts the sign of the sum of its closed neighborhood
(which includes itself; closed neighborhoods must have odd size so the sum is
never zero). On a finite undirected graph the trajectory enters a cycle of
period at most two within |E| rounds; the integer Lyapunov functional
L_t = 1/2 sum over ordered neighbour pairs (i, j) of (A^i_{t+1} - A^j_t)^2
certifies this step by step.

Also here: retention-of-information experiments (exact MAP over limit-action
profiles) and the influence / Russo machinery for monotone boolean functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .network import Network

EXACT_RETENTION_MAX_N = 16
EXACT_INFLUENCE_MAX_N = 14

# rows per block in limit_profiles
_PROFILE_ROWS = 4096


def _check_odd_neighborhoods(net: Network):
    if net.directed:
        raise ValueError("majority dynamics runs on undirected networks")
    for i in range(net.n):
        if len(net.out_neighbors(i)) % 2 == 0:
            raise ValueError(
                f"closed neighborhood of {i} has even size; ties are rejected, not resolved"
            )


class _Neighbourhoods:
    """Closed neighbourhoods as padded index columns, for batches of +-1 rows.

    Column slot k of agent i holds its k-th closed neighbour in sorted order;
    slots past a short neighbourhood repeat its first member and keep[k, i] = 0
    masks them out. dtype is the smallest signed integer type that holds every
    closed-neighbourhood sum, so batches stay narrow. Batches may have any
    leading axes, with agents on the last one.
    """

    def __init__(self, net: Network):
        _check_odd_neighborhoods(net)
        nbrs = [sorted(net.out_neighbors(i)) for i in range(net.n)]
        width = max(map(len, nbrs))
        self.dtype = np.min_scalar_type(-1 - width)     # signed, holds -width .. width
        self.idx = np.array([nb + nb[:1] * (width - len(nb)) for nb in nbrs]).T
        self.keep = np.array([[k < len(nb) for nb in nbrs] for k in range(width)], dtype=self.dtype)
        # slots 1.. for sums, with no mask where every neighbourhood reaches the slot
        self._rest = [(i, None if k.all() else k) for i, k in zip(self.idx[1:], self.keep[1:])]

    def sums(self, batch):
        """(N A)_i = sum_{j in N(i)} A^j per row, in dtype."""
        s = batch[..., self.idx[0]].astype(self.dtype, copy=False)
        for idx, keep in self._rest:
            g = batch[..., idx]
            s += g if keep is None else g * keep
        return s

    def step(self, batch):
        return np.sign(self.sums(batch))


def trajectory(net: Network, configs, rounds) -> np.ndarray:
    """A_0 .. A_rounds for every row of configs, as an int8 (rounds + 1) x rows x n array.

    A^i_{t+1} = sgn sum_{j in N(i)} A^j_t. The closed neighbourhoods are
    checked for odd size, and the rows for +-1 entries, once per call.
    """
    hood = _Neighbourhoods(net)
    a = np.asarray(configs, dtype=np.int64)
    if a.ndim != 2 or a.shape[1] != net.n or not np.all(np.abs(a) == 1):
        raise ValueError("config must be a +-1 vector of length n")
    out = np.empty((rounds + 1,) + a.shape, dtype=np.int8)
    out[0] = a
    for t in range(rounds):
        nxt = hood.step(out[t])
        if not nxt.all():
            raise ArithmeticError("neighborhood sum hit zero despite odd-size check")
        out[t + 1] = nxt
    return out


def step(net: Network, config) -> tuple:
    """A^i_{t+1} = sgn sum_{j in N(i)} A^j_t, for one configuration."""
    return tuple(trajectory(net, [config], 1)[1, 0].tolist())


def lyapunov_series(net: Network, traj) -> np.ndarray:
    """L_0 .. L_{T-1} for every row of a (T + 1) x rows x n trajectory, as T x rows int64.

    L_t = 1/2 sum over ordered neighbour pairs (i, j) of (A^i_{t+1} - A^j_t)^2.
    The symmetric-directed edge set counts each undirected edge in both
    orientations and each self-loop once; halving keeps the value an integer
    (every square is 0 or 4, paired across orientations) and makes the exact
    decrement identity L_t - L_{t-1} = -J_t come out with J as in j_series.
    """
    traj = np.asarray(traj)
    hood = _Neighbourhoods(net)
    total = 0
    for idx, keep in zip(hood.idx, hood.keep):
        d = traj[1:] - traj[:-1, ..., idx]
        total += (d * d * keep).sum(axis=-1, dtype=np.int64)
    if (total % 2).any():
        raise AssertionError("ordered-pair Lyapunov sum should be even")
    return total // 2


def j_series(net: Network, traj) -> np.ndarray:
    """J_1 .. J_{T-1} for every row of a (T + 1) x rows x n trajectory, as (T - 1) x rows int64.

    J_t = sum_i (A^i_{t+1} - A^i_{t-1}) * sum_{j in N(i)} A^j_t.
    """
    traj = np.asarray(traj)
    s = _Neighbourhoods(net).sums(traj[1:-1])
    return (np.subtract(traj[2:], traj[:-2], dtype=np.int64) * s).sum(axis=-1)


@dataclass(frozen=True)
class LimitCycle:
    config_even: tuple
    config_odd: tuple
    entry_time: int
    period: int


def run_to_cycle(net: Network, config) -> LimitCycle:
    """The cycle of period at most two that the trajectory enters, always within |E| rounds."""
    edge_count = len(net.undirected_edge_list())
    traj = trajectory(net, [config], edge_count + 2)[:, 0]
    repeats = (traj[2:] == traj[:-2]).all(axis=1)
    if not repeats.any():
        raise AssertionError("no period-two cycle within |E| rounds; majority invariant broken")
    entry = int(repeats.argmax())
    cur, nxt = (tuple(row.tolist()) for row in traj[entry:entry + 2])
    even, odd = (cur, nxt) if entry % 2 == 0 else (nxt, cur)
    return LimitCycle(config_even=even, config_odd=odd,
                      entry_time=entry, period=1 if nxt == cur else 2)


# -- retention of information ------------------------------------------------

def all_spin_configs(n) -> np.ndarray:
    """All 2^n +-1 vectors as int8 rows, first coordinate slowest (itertools.product order)."""
    out = np.empty((1 << n, n), dtype=np.int8)
    for j in range(n):
        out[:, j] = np.tile(np.repeat(np.array([-1, 1], dtype=np.int8), 1 << (n - 1 - j)), 1 << j)
    return out


def limit_profiles(net: Network, configs: np.ndarray) -> np.ndarray:
    """Even-phase limit configuration per row, vectorized.

    Steps two rounds at a time, for at most |E| + 1 pairs: by then every
    trajectory is inside its cycle of period at most two, and the pairs
    keep the even phase of the original clock. A block of rows stops early
    once each of its rows is a fixed point of the two-step map, as the even
    phase then never changes. Blocks of _PROFILE_ROWS keep the temporaries
    small; rows come back in the narrow dtype of _Neighbourhoods.
    """
    hood = _Neighbourhoods(net)
    pairs = len(net.undirected_edge_list()) + 1
    out = np.empty(configs.shape, dtype=hood.dtype)
    for lo in range(0, len(configs), _PROFILE_ROWS):
        cur = np.asarray(configs[lo:lo + _PROFILE_ROWS], dtype=hood.dtype)
        for _ in range(pairs):
            nxt = hood.step(hood.step(cur))
            if np.array_equal(nxt, cur):
                break
            cur = nxt
        out[lo:lo + _PROFILE_ROWS] = cur
    return out


def _pooled_weights(net: Network, delta):
    """Integer joint weights of (limit profile, S), pooled per profile, and their denominator.

    With 1/2 + delta = a/b, a signal vector with k plus signs weighs
    a^k (b - a)^(n - k) given S = +1 and a^(n - k) (b - a)^k given S = -1,
    both over b^n, and S is a fair coin, so every weight is over 2 b^n.
    Profiles are packed (bit j set iff agent j's limit action is +1) and
    counted per (profile, number of plus signals) with np.unique. Returns
    ({packed profile: [weight with S = -1, weight with S = +1]}, 2 b^n).
    """
    n = net.n
    hit = Fraction(1, 2) + Fraction(delta)
    a, b = hit.numerator, hit.denominator
    up = [a ** k * (b - a) ** (n - k) for k in range(n + 1)]
    configs = all_spin_configs(n)
    limits = limit_profiles(net, configs)
    packed = np.zeros(len(limits), dtype=np.int64)
    for j in range(n):
        packed |= (limits[:, j] > 0).astype(np.int64) << j
    plus = (configs > 0).sum(axis=1)
    keys, counts = np.unique(packed * (n + 1) + plus, return_counts=True)
    pooled = {}
    for key, count in zip(keys.tolist(), counts.tolist()):
        prof, k = divmod(key, n + 1)
        acc = pooled.setdefault(prof, [0, 0])
        acc[0] += count * up[n - k]
        acc[1] += count * up[k]
    return pooled, 2 * b ** n


def retention_error(net: Network, delta, mode="exact", trials=10000, rng=None):
    """iota(G, delta) = P(MAP estimate of S from the limit actions != S).

    Exact mode enumerates all 2^n +-1 signal vectors (n <= 16), pushes each
    through the dynamics, pools the exact integer joint weights of
    (limit profile, S) and sums the losing mass. Monte Carlo mode
    lower-bounds performance with the majority-of-limit-actions estimator
    (odd n) and returns its error rate.
    """
    n = net.n
    if mode == "exact":
        if n > EXACT_RETENTION_MAX_N:
            raise ValueError(f"exact retention capped at n={EXACT_RETENTION_MAX_N}")
        pooled, den = _pooled_weights(net, delta)
        return Fraction(sum(min(w) for w in pooled.values()), den)
    if mode == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo mode needs an rng")
        if n % 2 == 0:
            raise ValueError("majority-vote surrogate needs odd n")
        d = float(delta)
        ss = rng.integers(0, 2, size=trials) * 2 - 1
        s8 = ss.astype(np.int8)[:, None]
        configs = np.where(rng.random((trials, n)) < (0.5 + d), s8, -s8)
        limits = limit_profiles(net, configs)
        guesses = np.sign(limits.sum(axis=1))
        return float(np.mean(guesses != ss))
    raise ValueError(f"unknown mode {mode!r}")


def _symmetric_tiebreak(prof):
    """Deterministic odd tie-break: profile-sum sign, then first coordinate."""
    s = sum(prof)
    if s:
        return 1 if s > 0 else -1
    return prof[0]


def map_rule(net: Network, delta):
    """The exact MAP guess per limit-action profile (exact mode internals).

    Exact posterior ties (possible on even-size networks by symmetry) are
    broken by a sign-symmetric rule so the map stays odd; either choice has
    the same error mass.
    """
    pooled, _den = _pooled_weights(net, delta)
    rule = {}
    for packed, (w0, w1) in pooled.items():
        prof = tuple(1 if (packed >> j) & 1 else -1 for j in range(net.n))
        rule[prof] = _symmetric_tiebreak(prof) if w1 == w0 else (1 if w1 > w0 else -1)
    return rule


def signals_to_vote_table(net: Network) -> np.ndarray:
    """f(psi) = sgn sum_i A^i_infinity as a lookup over all 2^n signal vectors.

    Row order matches all_spin_configs(n). Odd n only.
    """
    if net.n % 2 == 0:
        raise ValueError("majority-vote map needs odd n")
    configs = all_spin_configs(net.n)
    limits = limit_profiles(net, configs)
    return np.sign(limits.sum(axis=1)).astype(np.int64)


# -- influences and Russo's formula ------------------------------------------

def _weights_for_delta(configs: np.ndarray, delta):
    """Exact P_delta weight per row: bits are +1 w.p. 1/2 + delta, independent."""
    n = configs.shape[1]
    delta = Fraction(delta)
    p = Fraction(1, 2) + delta
    q = Fraction(1, 2) - delta
    plus = (configs == 1).sum(axis=1)
    table = [p ** k * q ** (n - k) for k in range(n + 1)]
    return [table[int(k)] for k in plus]


def influence(f, n, i, delta, mode="exact", trials=100000, rng=None):
    """I_i = P_delta(f flips when bit i flips): the pivotal probability.

    f maps a +-1 tuple to +-1. Exact mode enumerates the 2^n cube (n <= 14).
    """
    if mode == "exact":
        if n > EXACT_INFLUENCE_MAX_N:
            raise ValueError(f"exact influence capped at n={EXACT_INFLUENCE_MAX_N}")
        configs = all_spin_configs(n)
        w = _weights_for_delta(configs, delta)
        total = Fraction(0)
        for row, wt in zip(configs, w):
            x = tuple(int(v) for v in row)
            y = x[:i] + (-x[i],) + x[i + 1:]
            if f(x) != f(y):
                total += wt
        return total
    if mode == "monte_carlo":
        if rng is None:
            raise ValueError("monte_carlo mode needs an rng")
        d = float(delta)
        hits = 0
        for _ in range(trials):
            x = tuple(1 if u < 0.5 + d else -1 for u in rng.random(n))
            y = x[:i] + (-x[i],) + x[i + 1:]
            hits += f(x) != f(y)
        return hits / trials
    raise ValueError(f"unknown mode {mode!r}")


def success_probability(f, n, delta):
    """Exact P_delta(f(X) = +1)."""
    configs = all_spin_configs(n)
    w = _weights_for_delta(configs, delta)
    return sum(wt for row, wt in zip(configs, w) if f(tuple(int(v) for v in row)) == 1)


def russo_residual(f, n, delta, h=Fraction(1, 10000)):
    """|central difference of P_delta(f=+1) - sum_i I_i^delta| at the given delta.

    Both sides exact rationals; the residual is the finite-difference error
    only, O(h^2) for the polynomial P_delta.
    """
    delta = Fraction(delta)
    h = Fraction(h)
    deriv = (success_probability(f, n, delta + h) - success_probability(f, n, delta - h)) / (2 * h)
    total_inf = sum(influence(f, n, i, delta) for i in range(n))
    return abs(deriv - total_inf)
