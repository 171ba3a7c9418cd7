"""The randomized voter model and its strong/weak two-bit variant.

Base model: synchronous rounds; each agent independently adopts the previous
action of a neighbor chosen with its row weights. On a network that passes
validate(require_stochastic=True) (self-loops, strongly connected) the
unanimity states are the only absorbing states and absorption is almost
sure; both the exact path and the Monte Carlo refuse any other network.
The Monte Carlo copies each neighbour with exactly its weight, whatever
integer total a row's counts need: it compares random digits with exact
ones (_Stages, _bernoulli_words). sum_i alpha_i A_i is a martingale, so
the chance of absorbing at all-ones given the signals equals
sum_i alpha_i * psi_i. The exact path builds that table on integers from
the stationary distribution, whose exact solve proves it; no linear system
over the 2^n states is solved, and the voter-identity audit checks the
table state by state (_certify_table).

Variant: asynchronous edge updates with (opinion, strength) pairs; strong
opinions beat weak ones, equal-strength disagreements demote or randomize,
and the pair swaps position with probability 1/2. The consensus opinion is
the strict signal majority whenever one exists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod

import numpy as np

from .harness_util import debug, int_dtype, scaled, unscaled
from .network import Network, _integer_view, _pairs_connected, require_stochastic, stationary_distribution
from .signals import bernoulli_blocks, check_delta, cube

# the exact table holds 2^n Fractions, built through the 2^n x n cube(n, 2): at n = 16, 0.02 s and
# 40 MB peak on cycle:16, 0.3 s where alpha has a 95-bit denominator; that one took 1.4 s at n = 18
EXACT_ABSORPTION_MAX_N = 16

# Monte Carlo draws its neighbour picks a block of columns at a time, whose
# uniform digits, 16 words per row and column, fill about this many words:
# a block with a lane still tied after its first digit (probability about
# 2^-16 per lane and row) pays about 30 numpy calls for its next one
_ROUND_WORDS = 1 << 17

_ALL = np.uint64(2 ** 64 - 1)

# strong_voter_trials finishes this many or fewer open trials one at a time:
# a lockstep step costs about as much as 70 one-trial edge updates
_LOCKSTEP_MIN = 64


def _digits(num, den, m):
    """(digit, more): digit m + 1 of the base-2^16 expansion of each num / den < 1, and whether a nonzero one follows.

    Python integers, so exact for every den: digit is
    floor(num 2^(16 (m + 1)) / den) mod 2^16, and more says that division
    leaves a remainder.
    """
    a, b = num.astype(object) << 16 * (m + 1), den.astype(object)
    return (a // b & 0xFFFF).astype(np.uint16), a % b != 0


class _Stages:
    """The stage rows through which mc_consensus picks neighbours.

    Agent i's neighbours j_0 .. j_{d-1}, in index order, have the counts c_k
    out of D_i of the network's IntegerView, and C_k = c_0 + ... + c_{k-1}.
    In each lane the agent has one uniform U and copies j_k where C_k / D_i
    <= U < C_{k+1} / D_i, so j_k with probability exactly c_k / D_i. Its
    stage k < d - 1 is the test U < C_{k+1} / D_i; the tests only turn on as
    k grows, so the agent copies j_k for its first stage k that is set, and
    j_{d-1} if none is. Stage row r is a stage of agent agent[r], with
    q = num[r] / den[r]; an agent's rows come in stage order, first and more
    are _digits(num, den, 0) and owner[r] is agent[r]'s state row.

    The state holds agent order[p] in row p, so each degree's agents are
    the rows a0:a1 of one select group (a0, a1, J, r0): J[k, a] is the row
    of agent a0 + a's neighbour j_k and r0 + k (a1 - a0) + a the row of its
    stage k. Refuses, with ValueError and in this order, an agent without
    out-neighbours and a network that fails validate(require_stochastic=True).
    """

    def __init__(self, net: Network):
        deg = np.diff(net.cached(_integer_view).indptr)
        if not deg.all():
            raise ValueError(f"agent {int(np.argmin(deg))} has no out-neighbours")
        view = require_stochastic(net)
        self.max_deg, self.max_D = int(deg.max(initial=0)), int(view.D.max(initial=0))
        self.order = np.argsort(deg, kind="stable")
        row = np.argsort(self.order)
        self.select, parts = [], []
        a0 = r0 = 0
        for d in sorted(set(deg.tolist())):         # np.unique would import numpy.ma, 10-20 ms, on first use
            who = self.order[a0:a0 + np.count_nonzero(deg == d)]
            at = view.indptr[who][:, None] + np.arange(d)
            self.select.append((a0, a0 + len(who), row[view.J[at].T], r0))
            cum, dens = np.cumsum(view.C[at], axis=1), np.repeat(view.D[who, None], d, 1)
            parts.append([np.tile(who, d - 1)] + [v.T[:-1].reshape(-1) for v in (cum, dens)])
            a0, r0 = a0 + len(who), r0 + (d - 1) * len(who)
        self.agent, self.num, self.den = (np.concatenate(v) for v in zip(*parts))
        self.owner = row[self.agent]
        self.first, self.more = _digits(self.num, self.den, 0)


def _uniform_digits(words):
    """The uint16 digits of uint64 words, 4 per word, lowest first."""
    return words.astype("<u8", copy=False).view("<u2")


def _bernoulli_words(st: _Stages, owner, owners, w, draw):
    """w words of exact [U < q] lanes for each row r of st, q its num / den.

    Each of the `owners` rows of uniforms holds one U per lane, and row r
    compares the U of owner[r], so the rows of one owner see one U in each
    lane; with distinct owners the lanes are independent Bernoulli(q). A U
    is spelled by random base-2^16 digits, most significant first, and the
    first one that differs from q's digit decides the lane: 1 iff it is the
    smaller. Each (owner, word) pair draws 16 uint64 words, pair after pair
    in row-major order, and lane l reads the l-th uint16 of them; q's first
    digit is st.first. Then the pairs with a lane still tied (probability
    2^-16) in one of their rows draw 16 more words each, in pair order, for
    the next digit, which _digits computes for the tied rows only, until
    none is left. A lane still tied where q's expansion ends has U >= q and
    is 0.
    """
    u = _uniform_digits(draw(16 * owners * w)).reshape(owners, 64 * w)[owner]
    e = st.first[:, None]
    out, tied = _pack(u < e), _pack(u == e)
    idx = np.flatnonzero(tied)
    row, tied, flat = idx // w, tied.reshape(-1)[idx], out.reshape(-1)
    more, m = st.more[row], 1
    while True:
        keep = (tied != 0) & more
        idx, row, tied = idx[keep], row[keep], tied[keep]
        if not len(idx):
            return out
        pairs, at = np.unique(owner[row] * w + idx % w, return_inverse=True)
        u = _uniform_digits(draw(16 * len(pairs))).reshape(len(pairs), 64)[at]
        e, more = _digits(st.num[row], st.den[row], m)
        ties = _lanes(tied).reshape(len(idx), 64).view(bool)
        flat[idx] |= _pack(ties & (u < e[:, None]))[:, 0]
        tied = _pack(ties & (u == e[:, None]))[:, 0]
        m += 1


class _Choices:
    """The neighbour picks of mc_consensus as one stream of word columns.

    A pick never depends on the state, so the picks are drawn ahead. For
    select group g of _Stages, with neighbours j_0 .. j_{d-1},
    masks[g][k, a, c] is the word of lanes in which agent a0 + a copies j_k
    in column c: its stage k is set and its stage k - 1 is not (stage -1
    never set, stage d - 1 always). Each refill turns one _bernoulli_words
    call of `block` words into `block` columns; take() hands them out in
    order, so no column is dropped or used twice.
    """

    def __init__(self, st: _Stages, block, draw):
        self.st, self.block, self.draw = st, block, draw
        self.masks, self.at = [], block
        self.refills = self.columns = 0

    def take(self, most):
        """(masks, m): the next m <= most columns of each group's masks, m < most only at the end of a refill."""
        if self.at == self.block:
            self._refill()
        m = min(most, self.block - self.at)
        cols = slice(self.at, self.at + m)
        self.at += m
        self.columns += m
        return [M[:, :, cols] for M in self.masks], m

    def _refill(self):
        st, w = self.st, self.block
        self.masks = []                 # freed before the next block is drawn
        B = _bernoulli_words(st, st.owner, len(st.order), w, self.draw)
        for _a0, _a1, J, r0 in st.select:
            d, c = J.shape
            S = B[r0:r0 + (d - 1) * c].reshape(d - 1, c, w)
            M = np.empty((d, c, w), dtype=np.uint64)
            M[:d - 1] = S
            M[d - 1] = _ALL
            M[1:] ^= S
            self.masks.append(M)
        self.at = 0
        self.refills += 1


def _pack(bits):
    """Bits along the last axis, a multiple of 64 long, as words: bit l of word w is bits[..., 64 w + l]."""
    return np.packbits(bits, axis=-1, bitorder="little").view("<u8").astype(np.uint64, copy=False)


def _lanes(words):
    """The bits of words as a flat uint8 array, 64 per word, lowest first."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8).reshape(-1), bitorder="little")


def mc_consensus(net: Network, delta, trials, seed, step_cap=None):
    """Trial-vectorized Monte Carlo of the base model under Bernoulli signals.

    Draws S uniform and psi_i = S with probability 1/2 + delta per trial,
    runs synchronous rounds until unanimity, and returns a dict with the
    count of trials whose consensus matched S and the absorption times.
    Like the exact path it refuses, with ValueError, a network that fails
    validate(require_stochastic=True): only there is absorption almost sure,
    and a delta outside [0, 1/2] (see signals.check_delta). The stage rows
    and that check come from _Stages, built once per network (Network.cached).

    The state is bit-sliced: state[p, w] holds the actions of agent
    order[p] in 64 trials, trial 64 w + l in bit l until repacking moves it.
    Each round every agent copies one neighbour: the stage rows of _Stages
    compare one uniform per agent and lane with the agent's cumulative
    weights, exactly (_bernoulli_words), so it copies its k-th neighbour with
    probability exactly c_k / D_i, for any D_i (see _Stages). The picks come
    from _Choices, a round of W words taking the stream's next W columns,
    so a round is one gather, one AND and one OR per select group.
    Unanimity is one XOR with the first agent's row and one OR; a trial
    unanimous at the start of round t retires with time t. A lane not open,
    padding or retired, is unanimous and stays so, so a trial retires iff
    the lanes not unanimous differ from the open ones. Once fewer than half
    the lanes of the words are open, the open lanes are repacked, in order,
    into the fewest words. S and psi come from signals.bernoulli_blocks, whole
    words at a time; the picks then draw raw 64-bit words from the same
    generator, a block of columns of about _ROUND_WORDS draws at a time.
    """
    n = net.n
    delta = check_delta(delta)
    st = net.cached(_Stages)
    if step_cap is None:
        step_cap = 100 * 2 * st.max_deg * n * n
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    s, blocks = bernoulli_blocks(rng, trials, n, delta, unit=64)
    W = -(-trials // 64)
    lane = np.arange(64 * W)
    state = np.empty((n, W), dtype=np.uint64)
    for lo, match in blocks:
        psi = match.T[st.order] == (s[lo:lo + len(match)] == 1)      # S where it matches
        words = _pack(np.pad(psi, ((0, 0), (0, -len(match) % 64))))
        state[:, lo // 64:lo // 64 + words.shape[1]] = words
    lanes = lane.astype(np.int32)            # the trial in each lane; padding lanes never open
    live = _pack(lane < trials)              # the open lanes
    count, drawn, repacks = trials, 0, 0
    raw = rng.bit_generator.random_raw

    def draw(size):
        nonlocal drawn
        drawn += size
        return raw(size)

    times = np.zeros(trials, dtype=np.int64)
    value = np.zeros(trials, dtype=np.int8)
    choices = _Choices(st, max(1, _ROUND_WORDS // (16 * max(n, len(st.den)))), draw)   # 16 words per row and column
    for t in range(step_cap + 1):
        mixed = np.bitwise_or.reduce(state ^ state[0], axis=0)
        if (mixed != live).any():
            done, live = live ^ mixed, mixed
            ws = np.flatnonzero(done)
            hit = _lanes(done[ws]).view(bool)
            ids = lanes[(64 * ws[:, None] + np.arange(64)).reshape(-1)[hit]]
            times[ids] = t
            value[ids] = _lanes(state[0, ws])[hit]
            count -= len(ids)
        if count == 0:
            break
        if t == step_cap:
            raise TimeoutError(f"{count} trials unabsorbed after {step_cap} rounds")
        if len(live) > 1 and 2 * count < 64 * len(live):
            keep = np.flatnonzero(_lanes(live))
            W = -(-count // 64)
            bits = np.zeros(64 * W, dtype=np.uint8)
            packed = np.empty((n, W), dtype=np.uint64)
            for r in range(n):                   # a row at a time keeps the unpacked bits small
                bits[:count] = _lanes(state[r])[keep]
                packed[r] = _pack(bits)
            state, lanes = packed, np.pad(lanes[keep], (0, 64 * W - count), constant_values=trials)
            live = _pack(np.arange(64 * W) < count)
            repacks += 1
        new = np.empty_like(state)
        w0 = 0
        while w0 < W:
            masks, m = choices.take(W - w0)
            cur = state[:, w0:w0 + m]
            for (a0, a1, J, _r0), M in zip(st.select, masks):
                G = cur[J]
                G &= M
                np.bitwise_or.reduce(G, axis=0, out=new[a0:a1, w0:w0 + m])
            w0 += m
        state = new
    debug("voter MC: n=%d trials=%d max_D=%d stage_rows=%d rounds=%d trial_rounds=%d words=%d repacks=%d "
          "refills=%d columns=%d", n, trials, st.max_D, len(st.den), int(times.max(initial=0)), int(times.sum()),
          drawn, repacks, choices.refills, choices.columns)
    return {"matches": int((value == s).sum()), "trials": trials,
            "times": times, "s": s.astype(np.int8), "value": value}


# -- exact absorption analysis ----------------------------------------------

def _certify_table(net: Network, T, H):
    """Check that h = T / H is 0 at all-zeros, 1 at all-ones and harmonic; raise ArithmeticError if not.

    T is the list of integers h(s) H over the 2^n states. Agent i's row
    weights are the counts C over the row denominator d_i of the network's
    IntegerView, so it adopts 1 with probability q_i = a_i / d_i for an
    integer a_i that depends on the state. Contracting T one agent at a time,
    T <- d_i T[bit_i = 0] + a_i (T[bit_i = 1] - T[bit_i = 0]), leaves
    prod_i d_i H E[h(next) | s], which must equal prod_i d_i T[s]. The
    network must pass validate(require_stochastic=True) with rational weights.
    Time and memory are O(4^n): the voter-identity audit runs it at n <= 8.
    """
    n = net.n
    ns = 1 << n
    if T[0] != 0 or T[ns - 1] != H:
        raise ArithmeticError(f"rational certification failed at the unanimity states: "
                              f"h = {Fraction(T[0], H)} and {Fraction(T[ns - 1], H)}, want 0 and 1")
    view = require_stochastic(net)
    d = view.D.tolist()
    scale = prod(d)
    # every partial sum and difference is at most 2 max|T| prod(d) in absolute value
    bound = 2 * max(map(abs, T)) * scale
    dtype = int_dtype(bound)
    T = np.array(T, dtype=dtype)
    W = np.zeros((n, n), dtype=dtype)
    W[view.rows, view.J] = view.C.tolist()
    a = cube(n, 2).astype(dtype) @ W.T        # a[s, i] = d_i q_i(s), state s the bit vector of cube(n, 2)
    cur = T[None]
    for i in range(n - 1, -1, -1):            # agent i is bit i; the top bit halves first
        half = 1 << i
        low = cur[:, :half]
        cur = a[:, i:i + 1] * (cur[:, half:] - low) + d[i] * low
    bad = np.flatnonzero(cur[:, 0] != T * scale)
    if len(bad):
        s = int(bad[0])
        raise ArithmeticError(f"rational certification failed at state {s}: "
                              f"E[h(next)] = {Fraction(int(cur[s, 0]), H * scale)}, "
                              f"h = {Fraction(int(T[s]), H)}")
    debug("absorption certificate: %d states, H=%d, dtype=%s", ns, H, np.dtype(dtype).name)


def absorption_probabilities(net: Network):
    """P(absorb at all-ones | start state) for every state, exact rationals.

    With alpha the stationary distribution and H the lcm of its
    denominators, the answer is h(s) = sum_i alpha_i s_i, the integer table
    T = cube(n, 2) @ (alpha H) over H, state s the bit vector of s
    (signals.cube). The stationary solve proves it:
    - n <= EXACT_ABSORPTION_MAX_N < network.EXACT_SOLVE_MAX_N, so alpha is
      the exact solve, and network._proves makes alpha P = alpha exact;
    - so E[h(next) | s] = sum_j (alpha P)_j s_j = h(s), 0 and 1 at unanimity;
    - a validated network absorbs almost surely, so h is the absorption
      probability.
    Raises ValueError above EXACT_ABSORPTION_MAX_N agents or on a failed
    validation (stationary_distribution validates).
    """
    n = net.n
    if n > EXACT_ABSORPTION_MAX_N:
        raise ValueError(f"exact absorption capped at n={EXACT_ABSORPTION_MAX_N}")
    H, A = scaled(stationary_distribution(net).alpha)
    T = (cube(n, 2) @ np.array(A, dtype=int_dtype(H))).tolist()      # entries are at most H
    return dict(enumerate(unscaled(H, T)))


# -- strong/weak variant -----------------------------------------------------
#
# An agent's (opinion, strength) pair is coded 2 * opinion + strength, an edge
# update's draw as ctrl = 2 * coin + swap, and the update of edge (i, j) is
# looked up at ctrl * 16 + 4 * code_i + code_j.

def _strong_pairs(net: Network):
    """The edges between two distinct agents, which the variant picks uniformly.

    Callers take it through net.cached, so each network builds and checks it
    once. Raises ValueError on a directed network, on one without such an
    edge and on a disconnected one, whose components can settle on different
    opinions and never reach one consensus.
    """
    if net.directed:
        raise ValueError("strong voter runs on undirected networks")
    pairs = tuple(e for e in net.undirected_edge_list() if e[0] != e[1])
    if not pairs:
        raise ValueError("strong voter needs an edge between two agents")
    if not _pairs_connected(net.n, pairs):
        raise ValueError("strong voter needs a connected network: two components never reach one consensus")
    return pairs


def _strong_pair_array(net: Network):
    """_strong_pairs as an intp array, for whole-array lookups; callers take it through net.cached."""
    return np.array(net.cached(_strong_pairs), dtype=np.intp)


def _strong_rule(ai, wi, aj, wj, coin, swap):
    """One edge update of (opinion, strength) pairs; returns the new (ai, wi, aj, wj).

    Strong-vs-strong disagreement: both keep opinions, both go weak.
    Strong-vs-weak: the weak side adopts the strong opinion, strengths keep.
    Weak-vs-weak disagreement: both adopt the common fair-coin opinion.
    Equal opinions: no change. Afterwards the two endpoints swap their whole
    pairs if swap is 1.
    """
    if ai != aj:
        if wi and wj:
            wi = wj = 0
        elif wi:
            aj = ai
        elif wj:
            ai = aj
        else:
            ai = aj = coin
    if swap:
        ai, wi, aj, wj = aj, wj, ai, wi
    return ai, wi, aj, wj


@cache
def _strong_table():
    """(code_i, code_j, change in the count of ones) after each (ctrl, code_i, code_j)."""
    table = []
    for ctrl in range(4):
        for ci in range(4):
            for cj in range(4):
                ai, wi, aj, wj = _strong_rule(ci >> 1, ci & 1, cj >> 1, cj & 1, ctrl >> 1, ctrl & 1)
                table.append((2 * ai + wi, 2 * aj + wj, ai + aj - (ci >> 1) - (cj >> 1)))
    return tuple(table)


@cache
def _strong_arrays():
    """_strong_table as three int8 columns, for whole-array lookups."""
    return tuple(np.array(col, dtype=np.int8) for col in zip(*_strong_table()))


def _strong_apply(codes, flat_i, flat_j, ctrl):
    """Update edge (i, j) of every row of codes in place under its draw ctrl.

    flat_i and flat_j index the raveled codes; returns each row's change in
    its count of ones.
    """
    flat = codes.reshape(-1)
    new_i, new_j, d_ones = _strong_arrays()
    k = ctrl * 16 + flat[flat_i] * 4 + flat[flat_j]
    flat[flat_i] = new_i[k]
    flat[flat_j] = new_j[k]
    return d_ones[k]


def _strong_walk(pairs, codes, ones, t, step_cap, rng):
    """Run one trial on from its list of codes with t updates done; returns (opinion, T).

    Each update is one draw d from [0, 4 len(pairs)), packed as in
    strong_voter_trials: edge d >> 2 and ctrl d & 3. Draws come in batches of
    64, then 128, 256, ..., never past step_cap updates in all, and each
    update is looked up in _strong_table; codes changes in place and ones
    counts its opinions 1.
    """
    n = len(codes)
    table = _strong_table()
    batch = 64
    while ones != 0 and ones != n:
        if t >= step_cap:
            raise TimeoutError(f"no opinion consensus within {step_cap} edge updates")
        for d in rng.integers(0, 4 * len(pairs), size=min(batch, step_cap - t)).tolist():
            i, j = pairs[d >> 2]
            codes[i], codes[j], change = table[((d & 3) << 4) + 4 * codes[i] + codes[j]]
            ones += change
            t += 1
            if ones == 0 or ones == n:
                break
        batch *= 2
    return codes[0] >> 1, t


def run_strong_voter(net: Network, signals, rng):
    """Run one trial's edge updates until all opinions agree; returns (opinion, T) as ints.

    One row of strong_voter_trials, walked with _strong_walk from t = 0 as
    that walks a lone trial, without its whole-array set-up.
    """
    n, pairs, bits = net.n, net.cached(_strong_pairs), [*signals]
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"signals must be a trials x {n} array of 0/1")
    return _strong_walk(pairs, [2 * int(b) + 1 for b in bits], sum(map(int, bits)), 0, 2000 * n * n, rng)


def strong_voter_trials(net: Network, signals, rng):
    """Run the trials of a trials x n 0/1 signal array in lockstep; returns (values, steps).

    Each step draws one edge and one (coin, swap) for every trial not yet at
    consensus, from the one generator rng, applies the update to all of them
    at once and drops the trials that reached consensus. Once _LOCKSTEP_MIN
    or fewer trials are open, each runs on alone in turn with _strong_walk,
    drawing from the same rng. values[t] is trial t's consensus opinion and
    steps[t] its number of edge updates. Raises ValueError on a disconnected
    network, and TimeoutError if a trial has no consensus after 2000 n^2
    updates.
    """
    n = net.n
    step_cap = 2000 * n * n
    pair_list, pairs = net.cached(_strong_pairs), net.cached(_strong_pair_array)
    sig = np.asarray(signals)
    # a bool array holds only 0/1, so it skips the check and its trials x n temporaries
    if sig.ndim != 2 or sig.shape[1] != n or (sig.dtype != bool and not ((sig == 0) | (sig == 1)).all()):
        raise ValueError(f"signals must be a trials x {n} array of 0/1")
    trials = len(sig)
    # C order: _strong_apply writes through codes.reshape(-1), which must be a view
    codes = np.array(sig, dtype=np.int8, order="C")
    codes *= 2
    codes += 1
    ones = sig.sum(axis=1, dtype=np.intp)
    active = np.arange(trials)
    values = np.zeros(trials, dtype=np.int8)
    steps = np.zeros(trials, dtype=np.int64)
    row_start = np.arange(0, trials * n, n)
    t = 0
    while len(active) > _LOCKSTEP_MIN:
        done = (ones == 0) | (ones == n)
        if done.any():
            values[active[done]] = ones[done] == n
            steps[active[done]] = t
            keep = ~done
            active, codes, ones = active[keep], codes[keep], ones[keep]
            if len(active) <= _LOCKSTEP_MIN:
                break
        m = len(active)
        if t == step_cap:
            raise TimeoutError(f"{m} trials without opinion consensus after {step_cap} edge updates")
        draw = rng.integers(0, 4 * len(pairs), size=m)
        edge = pairs[draw >> 2]
        ones += _strong_apply(codes, row_start[:m] + edge[:, 0], row_start[:m] + edge[:, 1], draw & 3)
        t += 1
    for trial, row, k in zip(active.tolist(), codes.tolist(), ones.tolist()):
        values[trial], steps[trial] = _strong_walk(pair_list, row, k, t, step_cap, rng)
    debug("strong voter: trials=%d steps_max=%d trial_steps=%d",
          trials, int(steps.max(initial=0)), int(steps.sum()))
    return values, steps
