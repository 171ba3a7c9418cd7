import logging
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from opdyn import voter
from opdyn.network import REBUILD_MAX_DEN, Network, from_pairs, generate, stationary_distribution
from opdyn.signals import trial_rng
from oracles import (StrongVoterState, absorption_drift, float_solve_absorption, initial_strong_state,
                     searchsorted_mc_consensus, strong_voter_step)


def test_two_node_one_step_distribution():
    net = generate("chain", 2)
    dist = voter.one_step_distribution(net, (0, 1))
    assert dist == {(0, 0): Fraction(1, 4), (0, 1): Fraction(1, 4),
                    (1, 0): Fraction(1, 4), (1, 1): Fraction(1, 4)}


def test_unanimity_absorbs():
    net = generate("cycle", 4)
    dist = voter.one_step_distribution(net, (1, 1, 1, 1))
    assert dist == {(1, 1, 1, 1): Fraction(1)}


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
    assert voter.exact_consensus_probability(net, signals) == \
        sum(a for a, s in zip(alpha, signals) if s == 1)


def test_martingale_residual_zero():
    net = generate("star", 4)
    for bits in range(16):
        acts = tuple((bits >> i) & 1 for i in range(4))
        assert voter.martingale_residual(net, acts) == 0


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


def test_pick_pins_the_last_threshold():
    # ten weights 1/10 sum in floats to just below 1: a draw above that sum
    # would pick past the row, so the last threshold is pinned to 1.0
    ws = np.full(10, float(Fraction(1, 10)))
    assert np.cumsum(ws / ws.sum())[-1] < 1.0
    rnd = voter._VoterRound(generate("complete", 10), rows=1)
    assert (rnd.cum[-1] == 1.0).all()
    u = np.full((1, 10), np.nextafter(1.0, 0))
    assert rnd.picks(u).tolist() == [[9] * 10]       # every agent's last neighbour
    assert rnd.picks(np.zeros((1, 10))).tolist() == [[0] * 10]


def _weighted_net(n, seed):
    """A random tree plus chords with random positive integer weights on each closed neighbourhood."""
    rng = random.Random(seed)
    pairs = {(rng.randrange(i), i) for i in range(1, n)} | {(0, n - 1)}
    base = from_pairs(n, sorted(pairs))
    edges = []
    for i in range(n):
        ws = {j: rng.randint(1, 5) for j in base.out_neighbors(i)}
        total = sum(ws.values())
        edges += [(i, j, Fraction(w, total)) for j, w in ws.items()]
    return Network(n=n, edges=tuple(edges))


def _mc_net(kind, n, seed):
    if kind == "grid":
        return generate(kind, (2 + n % 2) ** 2)
    if kind == "random_regular":
        return generate(kind, max(4, n - n % 2), d=3, seed=seed)
    if kind == "weighted":
        return _weighted_net(n, seed)
    return generate(kind, n)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["cycle", "chain", "star", "complete", "grid", "random_regular", "weighted"]),
       n=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 1),
       delta=st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 3)]),
       trials=st.integers(0, 60), block=st.sampled_from([1, 8, 24, 1 << 16]))
def test_mc_consensus_matches_searchsorted_oracle(kind, n, seed, delta, trials, block):
    # small blocks split the trials into many row blocks; the stream must not notice
    net = _mc_net(kind, n, seed)
    want = searchsorted_mc_consensus(net, delta, trials, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(voter, "_MC_BLOCK", block)
        got = voter.mc_consensus(net, delta, trials, seed)
    assert got["matches"] == want["matches"] and got["trials"] == trials
    for key in ("times", "s", "value"):
        assert got[key].dtype == want[key].dtype
        assert np.array_equal(got[key], want[key]), key


def test_mc_consensus_logs_sizes(caplog):
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        out = voter.mc_consensus(generate("star", 6), Fraction(1, 10), trials=50, seed=2)
    times = out["times"]
    assert (f"voter MC: n=6 trials=50 dmax=6 rounds={times.max()} "
            f"trial_rounds={times.sum()} block=10922 rows") in caplog.text


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


class _Draws:
    """Stands in for a generator: integers() returns the given values in order."""

    def __init__(self, vals):
        self.vals = list(vals)

    def integers(self, lo, hi, size=None):
        return self.vals.pop(0)


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
                                 _Draws(draws))
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


def test_strong_voter_trials_logs_sizes(caplog):
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        _values, steps = voter.strong_voter_trials(generate("cycle", 7), np.tile((1, 1, 1, 1, 0, 0, 0), (40, 1)),
                                                   np.random.default_rng(3))
    assert (f"strong voter: trials=40 steps_max={steps.max()} trial_steps={steps.sum()}"
            in caplog.text)


@settings(max_examples=10, deadline=None)
@given(bits=st.integers(1, 30))
def test_absorption_certificate_holds(bits):
    # the exact solver self-certifies; spot-check the one-step identity here
    net = generate("cycle", 5)
    h = voter.absorption_probabilities(net)
    acts = tuple((bits >> i) & 1 for i in range(5))
    dist = voter.one_step_distribution(net, acts)
    s = sum((1 << i) for i, a in enumerate(acts) if a)
    expected = sum(p * h[sum((1 << i) for i, a in enumerate(nxt) if a)]
                   for nxt, p in dist.items())
    assert expected == h[s]


def test_absorption_size_cap():
    with pytest.raises(ValueError, match=f"capped at n={voter.EXACT_SOLVE_MAX_N}"):
        voter.absorption_probabilities(generate("cycle", voter.EXACT_SOLVE_MAX_N + 1))


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
        voter.certify_absorption(net, h)


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
        voter.certify_absorption(net, h)


def test_certificate_with_wide_denominators(caplog):
    # a doubly stochastic circulant with denominators 10007: alpha is uniform,
    # and prod_i d_i H exceeds int64, so the certificate runs on Python integers
    p = 10007
    ws = [Fraction(p - 6, p), Fraction(1, p), Fraction(2, p), Fraction(1, p), Fraction(2, p)]
    net = Network(n=5, edges=tuple((i, (i + k) % 5, ws[k]) for i in range(5) for k in range(5)))
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        h = voter.absorption_probabilities(net)
    assert all(h[s] == Fraction(bin(s).count("1"), 5) for s in range(32))
    assert "absorption certificate: 32 states, H=5" in caplog.text
    h[7] = Fraction(3, 5) + Fraction(1, 10 ** 12)
    with pytest.raises(ArithmeticError):
        voter.certify_absorption(net, h)


def test_exact_absorption_rejects_float_weights():
    net = Network(n=2, edges=((0, 0, 0.5), (0, 1, 0.5), (1, 0, Fraction(1, 2)), (1, 1, Fraction(1, 2))))
    with pytest.raises(ValueError, match=r"edge \(0,0\) has the float weight 0.5"):
        voter.absorption_probabilities(net)
