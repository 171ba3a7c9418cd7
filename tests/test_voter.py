import logging
import tracemalloc
from fractions import Fraction
from math import floor, inf, lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from opdyn import signals, voter
from opdyn.network import REBUILD_MAX_DEN, Network, generate, read_network, require_stochastic, stationary_distribution
from opdyn.signals import trial_rng
from oracles import (FixedDraws, StrongVoterState, absorption_drift, certify_absorption, exact_consensus_probability,
                     float_solve_absorption, fraction_bernoulli_words, initial_strong_state,
                     martingale_residual, one_step_distribution, per_update_strong_walk, product_mc_consensus,
                     searchsorted_mc_consensus, stagewise_mc_consensus, strong_voter_step, three_draw_run_strong_voter,
                     weighted_net, wide_net)


def test_two_node_one_step_distribution():
    net = generate("chain", 2)
    dist = one_step_distribution(net, (0, 1))
    assert dist == {(0, 0): Fraction(1, 4), (0, 1): Fraction(1, 4),
                    (1, 0): Fraction(1, 4), (1, 1): Fraction(1, 4)}


def test_unanimity_absorbs():
    net = generate("cycle", 4)
    dist = one_step_distribution(net, (1, 1, 1, 1))
    assert dist == {(1, 1, 1, 1): Fraction(1)}
    h = voter.absorption_probabilities(net)
    assert h[0b1111] == 1 and h[0] == 0


def test_absorption_equals_alpha_mass_path3():
    net = generate("chain", 3)
    h = voter.absorption_probabilities(net)
    # alpha = (2/7, 3/7, 2/7); state ints are little-endian bit vectors
    assert h[0b001] == Fraction(2, 7)
    assert h[0b010] == Fraction(3, 7)
    assert h[0b011] == Fraction(5, 7)
    assert h[0b111] == 1 and h[0] == 0


def test_exact_consensus_probability():
    net = generate("cycle", 5)
    alpha = stationary_distribution(net).alpha
    signals = (1, 0, 1, 1, 0)
    assert exact_consensus_probability(net, signals) == \
        sum(a for a, s in zip(alpha, signals) if s == 1)


def test_martingale_residual_zero():
    # X = sum_i |N(i)| A_i is a martingale, so the absorption kernel reads X / sum_i |N(i)|
    net = generate("star", 4)
    h = voter.absorption_probabilities(net)
    degs = [len(net.out_neighbors(i)) for i in range(4)]
    for bits in range(16):
        acts = tuple((bits >> i) & 1 for i in range(4))
        assert martingale_residual(net, acts) == 0
        assert h[bits] == Fraction(sum(d * a for d, a in zip(degs, acts)), sum(degs))


def test_mc_consensus_unanimous_start():
    # delta = 1/2: every signal equals S, so each trial starts at consensus S
    out = voter.mc_consensus(generate("cycle", 5), Fraction(1, 2), trials=40, seed=3)
    assert out["matches"] == 40
    assert (out["times"] == 0).all()
    assert (out["value"] == out["s"]).all()


def test_mc_consensus_matches_exact_small():
    net = generate("cycle", 5)
    delta = Fraction(1, 5)
    out = voter.mc_consensus(net, delta, trials=20000, seed=11)
    p_hat = out["matches"] / out["trials"]
    assert abs(p_hat - (0.5 + float(delta))) < 0.02
    assert out["times"].min() >= 0


def test_stage_rows_pick_each_neighbour_with_its_exact_weight():
    # stage k is the test U < q_k = (c_0 + ... + c_k) / D_i on the agent's U, and the
    # first set stage picks: P(j_k) = q_k - q_{k-1} = c_k / D_i, with q_{-1} = 0 and q_{d-1} = 1
    for net in (generate("cycle", 5), generate("star", 7), generate("grid", 9), weighted_net(8, 3), wide_net(7)):
        view = require_stochastic(net)
        st = voter._Stages(net)
        seen = []
        for a0, a1, J, r0 in st.select:
            for a in range(a1 - a0):
                i = int(st.order[a0 + a])
                seen.append(i)
                # agent i's stage k is row r0 + k (a1 - a0) + a, and its neighbour j_k is in state row J[k, a]
                rows = r0 + (a1 - a0) * np.arange(len(J) - 1) + a
                assert rows.tolist() == np.flatnonzero(st.agent == i).tolist()
                row = slice(view.indptr[i], view.indptr[i + 1])
                assert st.order[J[:, a]].tolist() == view.J[row].tolist() == sorted(net.out_neighbors(i))
                assert (st.order[st.owner[rows]] == i).all()
                qs = [Fraction(0)] + [Fraction(int(st.num[r]), int(st.den[r])) for r in rows] + [Fraction(1)]
                assert all(0 < q < 1 for q in qs[1:-1])
                assert [b - a for a, b in zip(qs, qs[1:])] == [Fraction(int(c), int(view.D[i])) for c in view.C[row]]
        # the select groups hold every agent once and every stage row once
        assert sorted(seen) == sorted(st.order.tolist()) == list(range(net.n))
        assert sum((a1 - a0) * (len(J) - 1) for a0, a1, J, _r0 in st.select) == len(st.den)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.integers(2, 2 ** 200).flatmap(lambda den: st.tuples(st.integers(1, den - 1), st.just(den))),
                     min_size=1, max_size=4),
       m=st.integers(0, 8))
def test_digits_match_fraction_arithmetic(rows, m):
    # digit m + 1 of q = num / den is floor(q 2^(16 (m + 1))) mod 2^16, and more says q 2^(16 (m + 1)) is no integer
    num, den = (np.array(v, dtype=object) for v in zip(*rows))
    digit, more = voter._digits(num, den, m)
    scaled = [Fraction(a, b) * 2 ** (16 * (m + 1)) for a, b in rows]
    assert digit.dtype == np.uint16 and more.dtype == bool
    assert digit.tolist() == [floor(x) % 2 ** 16 for x in scaled]
    assert more.tolist() == [x.denominator != 1 for x in scaled]
    if max(den) < 2 ** 63:          # int64 rows, as an IntegerView holds them, give the same digits
        got = voter._digits(num.astype(np.int64), den.astype(np.int64), m)
        assert got[0].tolist() == digit.tolist() and got[1].tolist() == more.tolist()


class _Rows:
    """Stage rows of the probabilities qs, with the fields voter._bernoulli_words reads from a voter._Stages."""

    def __init__(self, qs):
        self.num = np.array([q.numerator for q in qs], dtype=object)
        self.den = np.array([q.denominator for q in qs], dtype=object)
        self.first, self.more = voter._digits(self.num, self.den, 0)


class _PinnedWords:
    """draw(size) for voter._bernoulli_words: random words, but the lanes in force copy q's digits before digit through.

    Every call draws 16 words, 64 uint16 lane digits, per (row, word) pair,
    and call m gives each lane its digit m, from voter._digits. The first
    call's pairs run row-major over (row, word); later calls copy q's digit
    only for a single row, where every pair has the same q.
    """

    def __init__(self, rows, w, force, through, seed):
        self.rows, self.w, self.force, self.through = rows, w, force, through
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def __call__(self, size):
        m = len(self.calls)
        lanes = self.rng.bit_generator.random_raw(size).astype("<u8").view("<u2").reshape(-1, 64)
        if m < self.through and (m == 0 or len(self.rows.den) == 1):
            digit = voter._digits(self.rows.num, self.rows.den, m)[0]
            pinned = [lane for lane in range(64) if self.force >> lane & 1]
            lanes[:, pinned] = (np.repeat(digit, self.w) if m == 0 else digit[0])[..., None]
        self.calls.append(lanes.reshape(-1).view("<u8").astype(np.uint64))
        return self.calls[-1].copy()


def _wide_q():
    """A wide_net() row's first stage threshold: a count ratio over about 2^40."""
    st = voter._Stages(wide_net())
    return Fraction(int(st.num[0]), int(st.den[0]))


_WIDE_Q = _wide_q()


@pytest.mark.parametrize("q, through", [
    (Fraction(1, 2), 0),                           # the first digit decides every lane
    (Fraction(1, 2), 1),                           # a lane tied on it has U >= q: q's expansion ends there
    (Fraction(1, 3), 2),                           # tied past the first digit
    (Fraction(1, 3), 6),                           # tied past 4 digits
    (Fraction(2, 5), 3),
    (Fraction(1, 2 ** 53 - 1), 4),                 # three zero digits, then 0x0800
    (Fraction(5, 2 ** 20), 3),                     # a dyadic q whose expansion ends at digit 2
    (_WIDE_Q, 3),                                  # a wide row's count ratio over about 2^40
    (Fraction(1, 2 ** 64 + 13), 5),                # past int64: four zero digits, then 0xFFFF
], ids=["1/2", "1/2-tied", "1/3", "1/3-past-4", "2/5", "1/(2^53-1)", "5/2^20", "float-row", "1/(2^64+13)"])
def test_bernoulli_words_match_the_fraction_oracle(q, through):
    w = 3
    rows = _Rows([q])
    # q's expansion length in digits, inf if it runs past 64
    L = next((m + 1 for m in range(64) if not voter._digits(rows.num, rows.den, m)[1][0]), inf)
    for force in (0b111111 | 1 << 40, 0xF0F0 | 1 << 63):
        draw = _PinnedWords(rows, w, force, through, seed=q.denominator % 1000)
        got = voter._bernoulli_words(rows, np.arange(1), 1, w, draw)
        assert np.array_equal(got, fraction_bernoulli_words([q], w, draw.calls))
        # the pinned lanes stay tied through digit `through`, and no pair draws past the end of q
        assert 1 + min(through, L - 1) <= len(draw.calls) <= L


def test_bernoulli_words_of_many_rows_match_the_fraction_oracle():
    # rows of different q, with the first digit pinned to tie some lanes of every pair
    qs = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(5, 2 ** 12), Fraction(7, 9), _WIDE_Q]
    rows = _Rows(qs)
    for seed in range(3):
        draw = _PinnedWords(rows, 2, 0b1011 << 20, 1, seed=seed)
        got = voter._bernoulli_words(rows, np.arange(len(qs)), len(qs), 2, draw)
        assert np.array_equal(got, fraction_bernoulli_words(qs, 2, draw.calls))
        assert len(draw.calls) > 1


def test_bernoulli_words_draw_each_owners_next_digit_once():
    # rows 0 and 1 share owner 0 and agree on q's first two digits; lanes pinned to 1/3's
    # digits stay tied in both, and each tied (owner, word) pair draws its next digit once
    qs = [Fraction(1, 3), Fraction(1, 3) + Fraction(1, 2 ** 40), Fraction(2, 5)]
    owner = np.array([0, 0, 1])
    rows = _Rows(qs)
    pinned = [20, 21, 23]
    for seed in range(3):
        rng, calls = np.random.default_rng(seed), []

        def draw(size):
            lanes = rng.bit_generator.random_raw(size).astype("<u8").view("<u2").reshape(-1, 64)
            if len(calls) < 4:
                lanes[:, pinned] = 0x5555
            calls.append(lanes.reshape(-1).view("<u8").astype(np.uint64))
            return calls[-1].copy()
        got = voter._bernoulli_words(rows, owner, 2, 2, draw)
        assert np.array_equal(got, fraction_bernoulli_words(qs, 2, calls, owner))
        assert len(calls) > 4 and not (got[0] & ~got[1]).any()


@pytest.mark.parametrize("net", [weighted_net(8, 3), wide_net(7), generate("star", 9), generate("grid", 9)],
                         ids=["weighted8", "float7", "star9", "grid9"])
def test_stage_words_give_each_stage_row_its_own_q(net):
    # row r of the stage words must be [U < num[r] / den[r]] for its agent's U, by the Fraction oracle
    st = voter._Stages(net)
    rng = np.random.default_rng(len(st.den))
    calls = []

    def draw(size):
        calls.append(rng.bit_generator.random_raw(size))
        return calls[-1].copy()
    B = voter._bernoulli_words(st, st.owner, net.n, 2, draw)
    qs = [Fraction(int(num), int(den)) for num, den in zip(st.num, st.den)]
    assert np.array_equal(B, fraction_bernoulli_words(qs, 2, calls, st.owner))
    # an agent's stages test one U against rising q, so each stage word holds the one before it
    for i in range(net.n):
        rows = np.flatnonzero(st.agent == i)
        assert all(((B[a] & ~B[b]) == 0).all() for a, b in zip(rows, rows[1:]))


def _two_agents(q):
    """Agent 0 copies agent 1 with probability 1/q, so its row's counts total q; agent 1 is fair."""
    return Network(n=2, edges=((0, 0, Fraction(q - 1, q)), (0, 1, Fraction(1, q)),
                               (1, 0, Fraction(1, 2)), (1, 1, Fraction(1, 2))))


@pytest.mark.parametrize("q", [2 ** 53, 2 ** 64 + 13], ids=["2^53", "2^64+13"])
def test_stage_words_of_rows_of_2_53_and_past_int64(q):
    # agent 0's stage row (q - 1) / q has the first digit 0xFFFF; lanes pinned to it tie and
    # read their next digits from the exact expansion, which no word size caps
    st = voter._Stages(_two_agents(q))
    assert int(st.den[0]) == q and st.first[0] == 0xFFFF
    qs = [Fraction(int(num), int(den)) for num, den in zip(st.num, st.den)]
    for seed in range(3):
        draw = _PinnedWords(st, 2, 0b1011 << 20, 1, seed=seed)
        B = voter._bernoulli_words(st, st.owner, 2, 2, draw)
        assert np.array_equal(B, fraction_bernoulli_words(qs, 2, draw.calls, st.owner))
        assert len(draw.calls) > 1


def _recorded_masks(mp):
    """Patch voter._bernoulli_words to record the stage words it returns; returns the list."""
    masks, real = [], voter._bernoulli_words

    def record(*args):
        masks.append(real(*args))
        return masks[-1]
    mp.setattr(voter, "_bernoulli_words", record)
    return masks


def _adopt_count(D, C):
    """K = #{k < 2^53 : fl(k 2^-53 D) < C} for each pair of int64 entries of D and C.

    fl(u D) is nondecreasing in u, so the k that pass are a prefix 0 .. K - 1.
    K is bisected on the 2^-53 grid from a bracket around C 2^53 / D that is
    checked first.
    """
    Df, Cf = D.astype(np.float64), C.astype(np.float64)

    def below(k):
        return (k * 2.0 ** -53) * Df < Cf            # k <= 2^53 converts exactly
    guess = (Cf / Df * 2.0 ** 53).astype(np.int64)
    lo, hi = np.maximum(guess - 2, 0), np.minimum(guess + 3, 2 ** 53)
    assert below(lo - 1).all() and not below(hi).any()      # lo <= K <= hi
    while (lo < hi).any():
        mid = (lo + hi) >> 1
        hit = below(mid)
        lo, hi = np.where(hit & (lo < hi), mid + 1, lo), np.where(hit, hi, mid)
    return lo


def test_adoption_probability_is_within_two_ulps_of_c_over_d():
    # P(fl(u D) < C) for u uniform on the 2^-53 grid, counted exactly, against
    # C / D for every 0 <= C <= D: every D up to 2048, then every 97th, powers
    # of two and their neighbours, and the primes 9973 and 10007
    extra = {4095, 4096, 4097, 8191, 8192, 8193, 9973, 10007}
    all_d = np.array(sorted(set(range(1, 2049)) | set(range(2049, 10008, 97)) | extra), dtype=np.int64)
    for ds in np.array_split(all_d, 16):
        D = np.repeat(ds, ds + 1)
        C = np.arange(len(D)) - np.repeat(np.cumsum(ds + 1) - (ds + 1), ds + 1)
        K = _adopt_count(D, C)
        # |K / 2^53 - C / D| <= 2^-52 is |K D - C 2^53| <= 2 D; with 2^53 = Q D + R
        # that is |(K - C Q) D - C R| <= 2 D, which stays inside int64
        Q, R = np.repeat(2 ** 53 // ds, ds + 1), np.repeat(2 ** 53 % ds, ds + 1)
        assert (np.abs((K - C * Q) * D - C * R) <= 2 * D).all()
        assert (K[C == 0] == 0).all() and (K[C == D] == 2 ** 53).all()


def _mc_net(kind, n, seed):
    if kind == "grid":
        return generate(kind, (2 + n % 2) ** 2)
    if kind == "random_regular":
        return generate(kind, max(4, n - n % 2), d=3, seed=seed)
    if kind == "weighted":
        return weighted_net(n, seed)
    if kind == "float":         # rows over about 2^40
        return wide_net(n, seed)
    return generate(kind, n)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["cycle", "chain", "star", "complete", "grid", "random_regular", "weighted", "float"]),
       n=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 1),
       delta=st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 3)]),
       trials=st.sampled_from([0, 1, 63, 64, 65, 129]), block=st.sampled_from([1, 8, 24, 1 << 16]),
       words=st.sampled_from([1, 1 << 9, 1 << 15]))
def test_round_step_matches_a_scalar_loop_on_the_same_masks(kind, n, seed, delta, trials, block, words):
    # small blocks split the start draws into many row blocks; refills of one column or a few
    # split rounds of several words, and refills of many columns serve many rounds
    net = _mc_net(kind, n, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signals, "_MC_BLOCK", block)
        mp.setattr(voter, "_ROUND_WORDS", words)
        masks = _recorded_masks(mp)
        got = voter.mc_consensus(net, delta, trials, seed)
    want = stagewise_mc_consensus(net, delta, trials, seed, voter._Stages(net), masks)
    assert got["matches"] == want["matches"] and got["trials"] == trials
    for key in ("times", "s", "value"):
        assert got[key].dtype == want[key].dtype
        assert np.array_equal(got[key], want[key]), key


def _round_widths(times, trials):
    """The words of each round mc_consensus played, from its absorption times.

    Round t plays the trials with times above t; before it, once fewer than
    half the lanes of the words are open, the open ones move to the fewest words.
    """
    W, widths = -(-trials // 64), []
    for t in range(int(times.max(initial=0))):
        left = int((times > t).sum())
        if W > 1 and 2 * left < 64 * W:
            W = -(-left // 64)
        widths.append(W)
    return widths


def test_round_step_on_one_agent_and_a_repack():
    # one agent is unanimous from the start; 129 trials on a cycle repack from 3 words to fewer,
    # on refills of 2 columns (14 stage rows), so rounds of 3 words and of 1 cross their ends
    one = Network(n=1, edges=((0, 0, 1),))
    out = voter.mc_consensus(one, Fraction(1, 10), 129, seed=0)
    want = stagewise_mc_consensus(one, Fraction(1, 10), 129, 0, voter._Stages(one), [])
    assert not out["times"].any() and np.array_equal(out["value"], want["value"])
    net = generate("cycle", 7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(voter, "_ROUND_WORDS", 2 * 16 * 14)
        masks = _recorded_masks(mp)
        got = voter.mc_consensus(net, Fraction(1, 10), 129, seed=3)
    assert {m.shape[1] for m in masks} == {2} and {3, 1} <= set(_round_widths(got["times"], 129))
    want = stagewise_mc_consensus(net, Fraction(1, 10), 129, 3, voter._Stages(net), masks)
    for key in ("times", "s", "value"):
        assert np.array_equal(got[key], want[key]), key


def test_mc_consensus_step_cap_names_the_open_trials():
    # the cap counts rounds: a trial unanimous at round step_cap still retires
    net = generate("cycle", 9)
    with pytest.MonkeyPatch.context() as mp:
        masks = _recorded_masks(mp)
        with pytest.raises(TimeoutError) as exc:
            voter.mc_consensus(net, Fraction(1, 10), 300, seed=2, step_cap=5)
    with pytest.raises(TimeoutError) as want:
        stagewise_mc_consensus(net, Fraction(1, 10), 300, 2, voter._Stages(net), masks, step_cap=5)
    assert str(exc.value) == str(want.value) and str(exc.value).endswith("trials unabsorbed after 5 rounds")
    times = voter.mc_consensus(net, Fraction(1, 10), 300, seed=2)["times"]
    out = voter.mc_consensus(net, Fraction(1, 10), 300, seed=2, step_cap=int(times.max()))
    assert np.array_equal(out["times"], times)


@pytest.mark.parametrize("net", [generate("cycle", 5), generate("star", 6), weighted_net(6, 1), wide_net()],
                         ids=["cycle5", "star6", "weighted6", "float5"])
def test_mc_consensus_agrees_with_the_neighbour_picking_sampler(net):
    # the stage rule, the searchsorted pick and the product rule sample one chain from different draws
    trials = 4000
    got = voter.mc_consensus(net, Fraction(1, 10), trials, seed=5)
    for sampler, seed in ((searchsorted_mc_consensus, 6), (product_mc_consensus, 7)):
        want = sampler(net, Fraction(1, 10), trials, seed=seed)
        p, q = got["matches"] / trials, want["matches"] / trials
        assert abs(p - q) <= 4 * np.sqrt((p * (1 - p) + q * (1 - q)) / trials), sampler.__name__
        a, b = got["times"], want["times"]
        assert abs(a.mean() - b.mean()) <= 4 * np.sqrt((a.var() + b.var()) / trials), sampler.__name__


def test_mc_consensus_float_rows_and_wide_denominators():
    # rows whose counts are over about 2^40
    net = wide_net()
    view = require_stochastic(net)
    assert np.abs(view.D - 2 ** 40).max() <= net.n and (view.C >= 2 ** 35).all()
    out = voter.mc_consensus(net, Fraction(1, 10), 500, seed=4)
    assert out["trials"] == 500 and out["times"].max() > 0
    out = voter.mc_consensus(net, Fraction(1, 2), 50, seed=4)    # every start is unanimous
    assert out["matches"] == 50 and not out["times"].any()
    # a row total of 2^53 or more, past int64 too, samples as exactly as 2^53 - 1: a pick of
    # probability about 2^-53 never happens in 20 trials, so every such row gives one result
    assert require_stochastic(_two_agents(2 ** 53 - 1)).D[0] == 2 ** 53 - 1
    want = voter.mc_consensus(_two_agents(2 ** 53 - 1), Fraction(1, 10), 20, seed=0)
    assert want["trials"] == 20 and want["times"].max() > 0
    for q in (2 ** 53, 2 ** 53 + 1, 2 ** 64 + 13, 3 ** 80):
        assert require_stochastic(_two_agents(q)).D[0] == q
        out = voter.mc_consensus(_two_agents(q), Fraction(1, 10), 20, seed=0)
        assert out["matches"] == want["matches"]
        for key in ("times", "s", "value"):
            assert np.array_equal(out[key], want[key]), (q, key)


def test_mc_consensus_logs_sizes(caplog, monkeypatch):
    drawn, blocks, real = [], [], voter._bernoulli_words

    def counted(st, owner, owners, w, draw):
        blocks.append(w)
        return real(st, owner, owners, w, lambda size: drawn.append(size) or draw(size))
    monkeypatch.setattr(voter, "_bernoulli_words", counted)
    monkeypatch.setattr(voter, "_ROUND_WORDS", 3 * 16 * 10)     # refills of 3 columns
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        out = voter.mc_consensus(generate("star", 6), Fraction(1, 10), trials=200, seed=2)
    times = out["times"]
    # the hub's row has six neighbours, so its weights count over D = 6; it has
    # five stage rows and each leaf, with two neighbours, one
    assert (f"voter MC: n=6 trials=200 max_D=6 stage_rows=10 rounds={times.max()} "
            f"trial_rounds={times.sum()} words={sum(drawn)} repacks=") in caplog.text
    assert "repacks=0" not in caplog.text
    # each round takes one column per word, and a refill comes only when the last one is used up
    columns, refills = sum(_round_widths(times, 200)), len(blocks)
    assert set(blocks) == {3} and 3 * (refills - 1) < columns <= 3 * refills
    assert f"refills={refills} columns={columns}\n" in caplog.text + "\n"


def test_mc_consensus_validates_once_per_network(monkeypatch):
    checked, real = [], voter.require_stochastic
    monkeypatch.setattr(voter, "require_stochastic", lambda net: checked.append(net) or real(net))
    net = generate("cycle", 9)
    first = voter.mc_consensus(net, Fraction(1, 10), trials=300, seed=4)
    second = voter.mc_consensus(net, Fraction(1, 10), trials=300, seed=4)
    fresh = voter.mc_consensus(generate("cycle", 9), Fraction(1, 10), trials=300, seed=4)
    # the second call reuses the first one's stage rows; a new network is checked again
    assert len(checked) == 2 and checked[0] is net
    for out in (second, fresh):
        assert out["matches"] == first["matches"]
        for key in ("times", "s", "value"):
            assert np.array_equal(out[key], first[key])


def test_strong_voter_strict_majority_deterministic_outcome():
    net = generate("cycle", 5)
    signals = (1, 1, 1, 0, 0)
    for trial in range(50):
        value, _ = voter.run_strong_voter(net, signals, trial_rng(3, trial))
        assert value == 1


def test_strong_voter_step_protocol():
    net = generate("chain", 2)

    class FixedRng:
        def __init__(self, vals):
            self.vals = list(vals)

        def integers(self, lo, hi, size=None):
            return self.vals.pop(0)

    # strong-strong disagreement demotes both, no swap
    st0 = initial_strong_state((0, 1))
    st1 = strong_voter_step(net, st0, FixedRng([0, 0]))
    assert st1.opinions == (0, 1) and st1.strengths == (0, 0)
    # then weak-weak disagreement lands on a common coin value, no swap
    st2 = strong_voter_step(net, st1, FixedRng([0, 1, 0]))
    assert st2.opinions == (1, 1) and st2.strengths == (0, 0)


def test_strong_voter_strong_beats_weak():
    net = generate("chain", 2)

    class FixedRng:
        def __init__(self, vals):
            self.vals = list(vals)

        def integers(self, lo, hi, size=None):
            return self.vals.pop(0)

    st0 = StrongVoterState(opinions=(0, 1), strengths=(1, 0))
    st1 = strong_voter_step(net, st0, FixedRng([0, 0]))
    assert st1.opinions == (0, 0)
    assert st1.strengths == (1, 0)


def test_lockstep_rule_matches_step_oracle():
    # every (opinion, strength) pair state of an edge, under each coin and swap
    net = generate("chain", 2)
    cases = [(ai, wi, aj, wj, coin, swap) for ai in (0, 1) for wi in (0, 1) for aj in (0, 1)
             for wj in (0, 1) for coin in (0, 1) for swap in (0, 1)]
    codes = np.array([[2 * ai + wi, 2 * aj + wj] for ai, wi, aj, wj, _c, _s in cases], dtype=np.int8)
    ctrl = np.array([2 * coin + swap for *_pair, coin, swap in cases])
    rows = np.arange(0, 2 * len(cases), 2)
    d_ones = voter._strong_apply(codes, rows, rows + 1, ctrl)
    for (ai, wi, aj, wj, coin, swap), got, d in zip(cases, codes, d_ones):
        draws = [0] + ([coin] if ai != aj and not wi and not wj else []) + [swap]
        want = strong_voter_step(net, StrongVoterState(opinions=(ai, aj), strengths=(wi, wj)),
                                 FixedDraws(draws))
        assert tuple(got >> 1) == want.opinions and tuple(got & 1) == want.strengths
        assert d == sum(want.opinions) - ai - aj


@pytest.mark.parametrize("lockstep_min", [0, 64, 10**6])   # all lockstep, a walked tail, all walked
def test_strong_voter_trials_strict_majority_and_ties(monkeypatch, lockstep_min):
    monkeypatch.setattr(voter, "_LOCKSTEP_MIN", lockstep_min)
    net = generate("grid", 9)
    rng = np.random.default_rng(11)
    signals = rng.integers(0, 2, size=(500, 9))
    signals[:5] = signals[0, 0]                 # unanimous starts take no step
    values, steps = voter.strong_voter_trials(net, signals, rng)
    assert values.shape == steps.shape == (500,)
    assert np.array_equal(values, 2 * signals.sum(axis=1) > 9)
    unanimous = (signals == signals[:, :1]).all(axis=1)
    assert unanimous[:5].all() and np.array_equal(steps == 0, unanimous)
    tie_net = generate("cycle", 6)
    values, _steps = voter.strong_voter_trials(tie_net, np.tile((1, 0, 1, 0, 1, 0), (2000, 1)), rng)
    assert abs(values.mean() - 0.5) < 0.05
    # a Fortran-ordered input runs the same stream to the same results
    split = np.tile([[1, 1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1, 1], [1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 1, 1, 0]],
                    (25, 1))
    c_values, c_steps = voter.strong_voter_trials(generate("cycle", 7), split, np.random.default_rng(11))
    f_values, f_steps = voter.strong_voter_trials(generate("cycle", 7), np.asfortranarray(split),
                                                  np.random.default_rng(11))
    assert np.array_equal(f_values, c_values) and np.array_equal(f_steps, c_steps)


def test_strong_voter_trials_input_and_cap(monkeypatch):
    net = generate("cycle", 5)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="trials x 5 array of 0/1"):
        voter.strong_voter_trials(net, [[1, 0, 1]], rng)
    with pytest.raises(ValueError, match="trials x 5 array of 0/1"):
        voter.strong_voter_trials(net, [[1, 0, 2, 0, 1]], rng)
    for row in ([1, 0, 1], [1, 0, 2, 0, 1], [[1, 0, 1, 0, 1]]):    # one trial's row, checked the same way
        with pytest.raises(ValueError, match="trials x 5 array of 0/1"):
            voter.run_strong_voter(net, row, rng)
    with pytest.raises(ValueError, match="undirected"):
        voter.strong_voter_trials(Network(2, ((0, 1, 1), (1, 0, 1))), [[0, 1]], rng)
    with pytest.raises(ValueError, match="needs an edge between two agents"):
        voter.strong_voter_trials(Network(1, ((0, 0, 1),), directed=False), [[1]], rng)
    # two components, each unanimous against the other: never a consensus
    split = Network(4, ((0, 1, 1), (2, 3, 1)), directed=False)
    with pytest.raises(ValueError, match="needs a connected network"):
        voter.strong_voter_trials(split, [[1, 1, 0, 0]], rng)
    # past the connectivity check, the step cap still ends such a run
    monkeypatch.setattr(voter, "_pairs_connected", lambda n, pairs: True)
    with pytest.raises(TimeoutError, match="no opinion consensus within 32000 edge updates"):
        voter.strong_voter_trials(split, [[1, 1, 0, 0], [0, 0, 1, 1]], rng)
    with pytest.raises(TimeoutError, match="65 trials without opinion consensus after 32000 edge updates"):
        voter.strong_voter_trials(split, np.tile((1, 1, 0, 0), (65, 1)), rng)


def test_strong_voter_trials_set_up_holds_one_copy_of_a_bool_input():
    # a bool array needs no 0/1 check, and the int8 codes are built in place: their one copy is
    # the set-up's only trials x n array (the check and 2 * sig.astype(np.int8) + 1 once held 2.2 of them)
    net = generate("cycle", 2001)
    sig = np.ones((2000, 2001), dtype=bool)
    tracemalloc.start()
    try:
        values, steps = voter.strong_voter_trials(net, sig, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.all() and not steps.any()
    assert peak <= 1.5 * sig.nbytes, peak / sig.nbytes


def test_strong_voter_trials_logs_sizes(caplog):
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        _values, steps = voter.strong_voter_trials(generate("cycle", 7), np.tile((1, 1, 1, 1, 0, 0, 0), (40, 1)),
                                                   np.random.default_rng(3))
    assert (f"strong voter: trials=40 steps_max={steps.max()} trial_steps={steps.sum()}"
            in caplog.text)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["cycle", "chain", "star", "complete", "grid", "random_regular"]),
       n=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 1), data=st.data(),
       t=st.integers(0, 50), cap=st.sampled_from([None, 0, 1, 63, 64, 65, 200]))
def test_strong_walk_matches_per_update_oracle(kind, n, seed, data, t, cap):
    # any (opinion, strength) codes, any updates already done, caps inside and at the batch edges
    net = _mc_net(kind, n, seed)
    codes = data.draw(st.lists(st.integers(0, 3), min_size=net.n, max_size=net.n))
    step_cap = 2000 * net.n ** 2 if cap is None else t + cap
    state = StrongVoterState(opinions=tuple(c >> 1 for c in codes), strengths=tuple(c & 1 for c in codes), t=t)
    ones = sum(state.opinions)
    try:
        want = per_update_strong_walk(net, state, step_cap, np.random.default_rng(seed))
    except TimeoutError as exc:
        with pytest.raises(TimeoutError, match=str(exc)):
            voter._strong_walk(net.cached(voter._strong_pairs), codes, ones, t, step_cap, np.random.default_rng(seed))
        return
    got = voter._strong_walk(net.cached(voter._strong_pairs), codes, ones, t, step_cap, np.random.default_rng(seed))
    assert got == (want.opinions[0], want.t)
    assert codes == [2 * a + w for a, w in zip(want.opinions, want.strengths)]


@pytest.mark.parametrize("kind, n, signals", [
    ("grid", 9, (1, 1, 1, 1, 1, 0, 0, 0, 0)),
    ("cycle", 6, (1, 0, 1, 0, 1, 0)),
    ("star", 5, (0, 1, 1, 0, 0)),
], ids=["grid9", "cycle6-tie", "star5"])
def test_run_strong_voter_agrees_with_the_three_draw_sampler(kind, n, signals):
    # one packed draw per update and three drawn arrays per batch sample one walk from different draws
    net = generate(kind, n)
    trials = 2000
    got = np.array([voter.run_strong_voter(net, signals, trial_rng(7, k)) for k in range(trials)])
    want = np.array([three_draw_run_strong_voter(net, signals, trial_rng(8, k)) for k in range(trials)])
    for col in (0, 1):
        a, b = got[:, col], want[:, col]
        assert abs(a.mean() - b.mean()) <= 4 * np.sqrt((a.var() + b.var()) / trials) + 1e-12, col


@pytest.mark.parametrize("kind,n", [("grid", 9), ("cycle", 7), ("complete", 4)])
def test_run_strong_voter_is_the_one_trial_walk(kind, n):
    # one trial never runs in lockstep: strong_voter_trials hands it to _strong_walk from t = 0
    net = generate(kind, n)
    for k in range(60):
        signals = tuple(int(b) for b in trial_rng(9, k).integers(0, 2, n))
        want = voter._strong_walk(net.cached(voter._strong_pairs), [2 * a + 1 for a in signals], sum(signals), 0,
                                  2000 * n * n, trial_rng(10, k))
        got = voter.run_strong_voter(net, signals, trial_rng(10, k))
        assert got == want and all(type(x) is int for x in got)
        assert voter.run_strong_voter(net, np.array(signals, dtype=np.int8), trial_rng(10, k)) == want


def test_run_strong_voter_refuses_a_disconnected_network(tmp_path):
    # two 4-node paths that settle on different opinions never reach one consensus
    path = tmp_path / "split.txt"
    path.write_text("n 8 undirected\n0 1 1\n1 2 1\n2 3 1\n4 5 1\n5 6 1\n6 7 1\n")
    net = read_network(path)
    rng = np.random.default_rng(0)
    for _ in range(2):                        # a refusal is not cached: it repeats
        with pytest.raises(ValueError, match="strong voter needs a connected network"):
            voter.run_strong_voter(net, (1, 1, 1, 1, 0, 0, 0, 0), rng)
    # nothing was drawn before the refusal
    assert rng.integers(0, 2 ** 32) == np.random.default_rng(0).integers(0, 2 ** 32)
    # a connected network builds its pair list once
    grid = generate("grid", 9)
    assert grid.cached(voter._strong_pairs) is grid.cached(voter._strong_pairs)
    assert len(grid.cached(voter._strong_pairs)) == 12


@pytest.mark.parametrize("delta", [Fraction(3, 4), Fraction(-1), Fraction(1, 2) + Fraction(1, 10 ** 9), -1e-9])
def test_mc_consensus_refuses_delta_outside_the_half_interval(delta):
    with pytest.raises(ValueError, match=r"delta must lie in \[0, 1/2\]"):
        voter.mc_consensus(generate("cycle", 5), delta, trials=10, seed=0)


@settings(max_examples=10, deadline=None)
@given(bits=st.integers(1, 30))
def test_absorption_certificate_holds(bits):
    # the stationary solve proves the table and voter-identity audits it; spot-check the one-step identity here
    net = generate("cycle", 5)
    h = voter.absorption_probabilities(net)
    acts = tuple((bits >> i) & 1 for i in range(5))
    dist = one_step_distribution(net, acts)
    s = sum((1 << i) for i, a in enumerate(acts) if a)
    expected = sum(p * h[sum((1 << i) for i, a in enumerate(nxt) if a)]
                   for nxt, p in dist.items())
    assert expected == h[s]


def test_absorption_size_cap():
    cap = voter.EXACT_ABSORPTION_MAX_N
    with pytest.raises(ValueError, match=f"exact absorption capped at n={cap}"):
        voter.absorption_probabilities(generate("cycle", cap + 1))
    # at the cap, the table of the doubly stochastic cycle is the share of ones
    h = voter.absorption_probabilities(generate("cycle", cap))
    assert len(h) == 1 << cap and all(h[s] == Fraction(bin(s).count("1"), cap) for s in (0, 5, 1 << cap - 1, len(h) - 1))


@st.composite
def _stochastic_digraphs(draw):
    """A strongly connected directed graph on n <= 7 agents with a self-loop at each and random positive rows."""
    n = draw(st.integers(2, 7))
    ring = draw(st.permutations(range(n)))
    arcs = {(ring[k], ring[(k + 1) % n]) for k in range(n)} | {(i, i) for i in range(n)}
    arcs |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n))
    edges = []
    for i in range(n):
        out = sorted(j for a, j in arcs if a == i)
        ws = draw(st.lists(st.integers(1, 4), min_size=len(out), max_size=len(out)))
        edges += [(i, j, Fraction(w, sum(ws))) for j, w in zip(out, ws)]
    return Network(n=n, edges=tuple(edges), directed=True)


@settings(max_examples=60, deadline=None)
@given(net=_stochastic_digraphs())
def test_absorption_matches_float_solve_oracle(net):
    # the float rebuild can only find denominators up to REBUILD_MAX_DEN
    assume(lcm(*(a.denominator for a in stationary_distribution(net).alpha)) <= REBUILD_MAX_DEN)
    assert voter.absorption_probabilities(net) == float_solve_absorption(net)


def test_certificate_checks_the_unanimity_states():
    # h + c is harmonic too; only h(all-zeros) = 0 and h(all-ones) = 1 pin h down
    net = generate("cycle", 4)
    h = {s: p + Fraction(1, 7) for s, p in voter.absorption_probabilities(net).items()}
    assert absorption_drift(net, h) == {}
    with pytest.raises(ArithmeticError, match="failed at the unanimity states"):
        certify_absorption(net, h)


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(["chain", "cycle", "star"]), n=st.integers(3, 5),
       state=st.integers(1, 30), eps=st.fractions(min_value=Fraction(-1, 7), max_value=Fraction(1, 7)))
def test_certificate_matches_fraction_contraction(kind, n, state, eps):
    net = generate(kind, n)
    h = voter.absorption_probabilities(net)
    assert absorption_drift(net, h) == {}
    s = state % ((1 << n) - 2) + 1
    if eps == 0:
        return
    h[s] += eps
    first_bad = min(absorption_drift(net, h))
    with pytest.raises(ArithmeticError, match=f"failed at state {first_bad}:"):
        certify_absorption(net, h)


def test_certificate_with_wide_denominators(caplog):
    # a doubly stochastic circulant with denominators 10007: alpha is uniform,
    # and prod_i d_i H exceeds int64, so the certificate runs on Python integers
    p = 10007
    ws = [Fraction(p - 6, p), Fraction(1, p), Fraction(2, p), Fraction(1, p), Fraction(2, p)]
    net = Network(n=5, edges=tuple((i, (i + k) % 5, ws[k]) for i in range(5) for k in range(5)))
    h = voter.absorption_probabilities(net)
    assert all(h[s] == Fraction(bin(s).count("1"), 5) for s in range(32))
    # the slow Python-integer fallback names itself
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        certify_absorption(net, h)
    assert "absorption certificate: 32 states, H=5, dtype=object" in caplog.text
    caplog.clear()
    cycle = generate("cycle", 5)
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        certify_absorption(cycle, voter.absorption_probabilities(cycle))
    assert "absorption certificate: 32 states, H=5, dtype=int64" in caplog.text
    h[7] = Fraction(3, 5) + Fraction(1, 10 ** 12)
    with pytest.raises(ArithmeticError):
        certify_absorption(net, h)


def test_exact_absorption_rejects_float_weights():
    # a float weight never reaches the exact absorption: the network refuses it, and the
    # refusal's Fraction(str(w)) gets the exact table
    edges = ((0, 0, 0.5), (0, 1, 0.5), (1, 0, Fraction(1, 2)), (1, 1, Fraction(1, 2)))
    with pytest.raises(ValueError, match=r"edge \(0,0\) has the weight 0.5, which is not rational"):
        Network(n=2, edges=edges)
    net = Network(n=2, edges=tuple((i, j, Fraction(str(w))) for i, j, w in edges))
    assert voter.absorption_probabilities(net) == {0: 0, 1: Fraction(1, 2), 2: Fraction(1, 2), 3: 1}
