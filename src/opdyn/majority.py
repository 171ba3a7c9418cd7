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

from fractions import Fraction
from itertools import chain

import numpy as np

from .harness_util import debug, int_dtype
from .network import Network, _slots
from .signals import bernoulli_blocks, bernoulli_cube, check_delta, cube

EXACT_RETENTION_MAX_N = 23

# rows per block in limit_profiles
_PROFILE_ROWS = 4096
# the exact retention enumeration varies this many agents within a block of 2^bits signal vectors
_HALF_CUBE_BITS = 12


class _Neighbourhoods:
    """Closed neighbourhoods as padded index columns, for batches of +-1 rows.

    Column slot k of agent i holds its k-th closed neighbour in sorted order,
    from the network's neighbour table (network._slots); slots past a short
    neighbourhood hold a filler that keep[k, i] = 0 masks out. dtype is the
    smallest signed integer type that holds every closed-neighbourhood sum,
    so batches stay narrow. Batches may have any leading axes, with agents on
    the last one. Built once per network (Network.cached); refuses a directed
    network and a closed neighbourhood of even size.
    """

    def __init__(self, net: Network):
        if net.directed:
            raise ValueError("majority dynamics runs on undirected networks")
        self.idx, keep = net.cached(_slots)
        deg = keep.sum(axis=0)
        even = np.flatnonzero(deg % 2 == 0)
        if len(even):
            raise ValueError(f"closed neighborhood of {even[0]} has even size; ties are rejected, not resolved")
        self.dtype = np.min_scalar_type(-1 - len(keep))     # signed, holds -max degree .. max degree
        self.keep = keep.astype(self.dtype)
        # slots 1.. for sums, with no mask where every neighbourhood reaches the slot
        self._rest = [(i, None if k.all() else k) for i, k in zip(self.idx[1:], self.keep[1:])]
        self.pairs = len(net.undirected_edge_list()) + 1     # double steps that reach a limit (limit_profiles)

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
    hood = net.cached(_Neighbourhoods)
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
    hood = net.cached(_Neighbourhoods)
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
    s = net.cached(_Neighbourhoods).sums(traj[1:-1])
    return (np.subtract(traj[2:], traj[:-2], dtype=np.int64) * s).sum(axis=-1)


# -- retention of information ------------------------------------------------

def all_spin_configs(n) -> np.ndarray:
    """All 2^n +-1 vectors as int8 rows, first coordinate slowest (itertools.product order).

    The +-1 view of signals.cube(n, 2) with its columns reversed: row r has
    +1 at coordinate i iff bit n - 1 - i of r is set.
    """
    return (2 * cube(n, 2)[:, ::-1] - 1).astype(np.int8)


def _even_limit(hood: _Neighbourhoods, cur):
    """The even-phase limit of a block of rows, two rounds at a time for at most hood.pairs pairs.

    Stops early once every row is a fixed point of the two-step map, as the
    even phase then never changes. Pass the block in Fortran order: each
    agent's column is then contiguous, and so are the gathers of step.
    """
    for _ in range(hood.pairs):
        nxt = hood.step(hood.step(cur))
        if np.array_equal(nxt, cur):
            break
        cur = nxt
    return cur


def limit_profiles(net: Network, configs: np.ndarray) -> np.ndarray:
    """Even-phase limit configuration per row, vectorized.

    Steps two rounds at a time, for at most |E| + 1 pairs: by then every
    trajectory is inside its cycle of period at most two, and the pairs
    keep the even phase of the original clock. Blocks of _PROFILE_ROWS keep
    the temporaries small; rows come back in the narrow dtype of
    _Neighbourhoods.
    """
    hood = net.cached(_Neighbourhoods)
    out = np.empty(configs.shape, dtype=hood.dtype)
    for lo in range(0, len(configs), _PROFILE_ROWS):
        block = np.asfortranarray(configs[lo:lo + _PROFILE_ROWS], dtype=hood.dtype)
        out[lo:lo + _PROFILE_ROWS] = _even_limit(hood, block)
    return out


def _canonical_weights(net: Network, delta):
    """Joint weights of (limit profile, S) per pair {p, ~p} of complementary limit profiles.

    Profiles are packed, bit j set iff agent j's limit action is +1, and the
    pair's canonical member c is the one with bit n - 1 clear. With
    1/2 + delta = a/b, a signal vector with k plus signs weighs
    up[k] = a^k (b - a)^(n - k) given S = +1 and up[n - k] given S = -1,
    both over b^n (signals.bernoulli_cube). Odd neighbourhoods make the
    dynamics odd, limit(-x) = -limit(x), and negating x swaps the two
    weights, so the vectors with x_0 = +1 carry them all: a vector reaching
    c adds up[k] to P[c] and up[n - k] to Q[c], one reaching ~c adds them
    the other way round. Then profile c weighs P[c] with S = +1 and Q[c]
    with S = -1, profile ~c the reverse, all over 2 b^n.

    The 2^(n-1) vectors are built block by block from signals.cube:
    agents 1 .. L vary within a block, as the rows of cube(L, 2), and the
    others hold one row of cube(n - 1 - L, 2) per block, so no 2^n-row
    array exists. Each block's profiles are packed by one float64 product
    with the powers of two (exact, as the sums stay below 2^53). A table over the 2^(n-1) canonical profiles
    gives each pair its slot when first reached, and the pairs' weights are
    pooled per slot with np.add.at, in int64 when b^n < 2^63 (no pair's sum
    exceeds b^n), else in Python integers. Returns (c of every pair
    reached, in slot order, P[c], Q[c], b^n).
    """
    n = net.n
    hood = net.cached(_Neighbourhoods)
    up, den = bernoulli_cube(delta, n)
    dtype = int_dtype(den)
    up = np.array(up, dtype=dtype)
    half, full = 1 << (n - 1), (1 << n) - 1
    slot = np.full(half, -1, dtype=np.int32)
    found, count = [], 0
    P, Q = np.zeros(0, dtype=dtype), np.zeros(0, dtype=dtype)
    L = min(n - 1, _HALF_CUBE_BITS)
    block = np.empty((n, 1 << L), dtype=hood.dtype)
    block[0] = 1
    block[1:L + 1] = 2 * cube(L, 2).T - 1
    low_plus = 1 + (block[1:L + 1] > 0).sum(axis=0)
    powers = 2.0 ** np.arange(n)
    highs = cube(n - 1 - L, 2).astype(hood.dtype)
    blocks = len(highs)
    for high in highs:
        block[L + 1:] = 2 * high[:, None] - 1
        limits = _even_limit(hood, block.T)
        p = ((limits.astype(np.float64) @ powers).astype(np.int64) + full) >> 1     # sum of +-2^j is 2p - full
        plus = low_plus + int(high.sum())
        flip = p >= half
        c = np.where(flip, p ^ full, p)
        k = np.where(flip, n - plus, plus)
        ids = slot[c]
        fresh = np.flatnonzero(ids < 0)
        if len(fresh):
            slot[c[fresh]] = fresh                  # one row of each new profile wins its slot,
            new = c[fresh[slot[c[fresh]] == fresh]]     # so each new profile shows up once
            slot[new] = np.arange(count, count + len(new))
            found.append(new)
            count += len(new)
            if count > len(P):      # at least double the room
                room = np.zeros(count, dtype=dtype)
                P, Q = np.concatenate((P, room)), np.concatenate((Q, room))
            ids = slot[c]
        np.add.at(P, ids, up[k])
        np.add.at(Q, ids, up[n - k])
    debug("majority retention: n=%d configs=%d blocks=%d pairs=%d (%s)", n, half, blocks, count,
          "int64" if dtype is np.int64 else "python-int")
    return np.concatenate(found), P[:count], Q[:count], den


def retention_error(net: Network, delta, mode="exact", trials=10000, rng=None):
    """iota(G, delta) = P(MAP estimate of S from the limit actions != S).

    Exact mode enumerates the 2^(n-1) +-1 signal vectors with x_0 = +1
    (n <= EXACT_RETENTION_MAX_N), pushes each through the dynamics and pools
    the exact integer joint weights of (limit profile, S) per pair of
    complementary profiles (see _canonical_weights); the MAP estimate loses
    min(P[c], Q[c]) on each of the pair's two profiles, so iota is the sum
    of min(P[c], Q[c]) over b^n. Monte Carlo mode lower-bounds performance
    with the majority-of-limit-actions estimator (odd n) and returns its
    error rate. Both refuse a delta outside [0, 1/2] (see signals.check_delta).
    """
    n = net.n
    delta = check_delta(delta)
    if mode == "exact":
        if n > EXACT_RETENTION_MAX_N:
            raise ValueError(f"exact retention capped at n={EXACT_RETENTION_MAX_N}")
        _c, P, Q, den = _canonical_weights(net, delta)
        return Fraction(int(np.minimum(P, Q).sum()), den)
    if mode == "monte_carlo":
        if rng is None or trials < 1:
            raise ValueError("monte_carlo mode needs an rng and trials >= 1")
        if n % 2 == 0:
            raise ValueError("majority-vote surrogate needs odd n")
        s, blocks = bernoulli_blocks(rng, trials, n, delta)
        spins = (2 * s - 1).astype(np.int8)[:, None]
        wrong = 0
        for lo, match in blocks:
            sb = spins[lo:lo + len(match)]
            wrong += np.count_nonzero(np.sign(limit_profiles(net, np.where(match, sb, -sb)).sum(axis=1)) != sb[:, 0])
        return wrong / trials
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
    c, P, Q, _den = _canonical_weights(net, delta)
    full = (1 << net.n) - 1
    c, P, Q = c.tolist(), P.tolist(), Q.tolist()
    rule = {}
    # each packed profile with its weights given S = -1 and S = +1: (Q, P) for c, (P, Q) for ~c
    for packed, w0, w1 in chain(zip(c, Q, P), zip((x ^ full for x in c), P, Q)):
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
#
# A boolean function f of n +-1 coordinates is its truth table: table[r] =
# f(row r of all_spin_configs(n)), as signals_to_vote_table returns it.

def _spin_table(table):
    """(table, n, plus[r] = the +1 count of row r, the bit count of r); ValueError unless 2^n entries of +-1."""
    t = np.asarray(table)
    n = max(t.size, 1).bit_length() - 1
    if t.ndim != 1 or t.size != 1 << n or not np.isin(t, (-1, 1)).all():
        raise ValueError(f"a truth table over the cube holds 2^n entries, each +1 or -1; got shape {t.shape}")
    return t, n, cube(n, 2).sum(axis=1)


def _cube_mass(plus, n, delta):
    """P_delta of a set of rows given by their counts of +1 coordinates, each +1 w.p. 1/2 + delta."""
    w, den = bernoulli_cube(delta, n)
    return Fraction(sum(c * wk for c, wk in zip(np.bincount(plus, minlength=n + 1).tolist(), w)), den)


def influence(table, i, delta):
    """I_i = P_delta(f flips when coordinate i flips): the pivotal probability, exact.

    Flipping coordinate i of row r gives row r ^ 2^(n - 1 - i); the pivotal rows
    are counted per number of +1s and weighed with bernoulli_cube's integers.
    """
    t, n, plus = _spin_table(table)
    if not 0 <= i < n:
        raise ValueError(f"coordinate {i} outside 0 .. {n - 1}")
    return _cube_mass(plus[t != t[np.arange(t.size) ^ (1 << (n - 1 - i))]], n, delta)


def success_probability(table, delta):
    """Exact P_delta(f(X) = +1)."""
    t, n, plus = _spin_table(table)
    return _cube_mass(plus[t == 1], n, delta)


def russo_residual(table, delta, h=Fraction(1, 10000)):
    """|central difference of P_delta(f=+1) - sum_i I_i^delta| at the given delta.

    Both sides exact rationals; the residual is the finite-difference error
    only, O(h^2) for the polynomial P_delta.
    """
    delta, h = Fraction(delta), Fraction(h)
    deriv = (success_probability(table, delta + h) - success_probability(table, delta - h)) / (2 * h)
    total_inf = sum(influence(table, i, delta) for i in range(_spin_table(table)[1]))
    return abs(deriv - total_inf)
