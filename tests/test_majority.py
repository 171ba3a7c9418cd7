import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opdyn import majority, signals
from opdyn.network import from_pairs, generate
from opdyn.signals import trial_rng
from oracles import (fraction_influence, fraction_retention, fraction_success_probability, full_cube_pooled_weights,
                     majority_step, run_to_cycle, scalar_j_functional, scalar_lyapunov, scalar_step, stepwise_limit_profiles,
                     undirected_edge_list, whole_array_retention_mc)

# odd closed neighbourhoods only: cycles, odd cliques, 4-regular graphs, and
# three triangles in a chain, whose degrees 2 and 4 mix neighbourhoods of sizes 3 and 5
ODD_NETS = [generate("cycle", n) for n in range(3, 12)] + [
    generate("complete", 5), generate("complete", 7),
    generate("random_regular", 8, d=4, seed=7), generate("random_regular", 10, d=4, seed=1),
    from_pairs(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (1, 5), (1, 6), (5, 6)]),
]


def test_even_closed_neighborhood_rejected():
    with pytest.raises(ValueError):
        majority_step(generate("chain", 4), (1, 1, -1, -1))


def test_step_cycle5_oracle():
    net = generate("cycle", 5)
    # closed neighborhoods of size 3: plain local majority
    assert majority_step(net, (1, 1, -1, -1, -1)) == (1, 1, -1, -1, -1)
    assert majority_step(net, (1, -1, 1, -1, 1)) == (1, 1, -1, 1, 1)


def test_all_ones_fixed():
    net = generate("cycle", 7)
    assert majority_step(net, (1,) * 7) == (1,) * 7


def test_run_to_cycle_period_two_example():
    net = generate("cycle", 6)
    lc = run_to_cycle(net, (1, -1, 1, -1, 1, -1))
    assert lc.period in (1, 2)
    assert lc.entry_time <= len(undirected_edge_list(net))
    # the two phases map to each other
    assert majority_step(net, lc.config_even) == lc.config_odd
    assert majority_step(net, lc.config_odd) == lc.config_even


def test_trajectory_matches_step():
    net = generate("cycle", 6)
    configs = majority.all_spin_configs(6)
    batch = majority.trajectory(net, configs, 1)[1]
    for k in range(0, 64, 7):
        assert tuple(batch[k]) == majority_step(net, tuple(configs[k]))


def test_trajectory_rejects_bad_rows():
    net = generate("cycle", 5)
    for configs in ([(1, 1, 0, 1, 1)], [(1, 1, 1)], (1, 1, 1, 1, 1)):
        with pytest.raises(ValueError, match=r"\+-1 vector of length n"):
            majority.trajectory(net, configs, 2)


@settings(max_examples=25, deadline=None)
@given(bits=st.integers(0, 2 ** 7 - 1))
def test_lyapunov_identity_cycle7(bits):
    net = generate("cycle", 7)
    traj = majority.trajectory(net, [[1 if (bits >> i) & 1 else -1 for i in range(7)]], 9)
    lyap = majority.lyapunov_series(net, traj)[:, 0]
    j = majority.j_series(net, traj)[:, 0]
    for t in range(1, 8):
        assert lyap[t] - lyap[t - 1] == -j[t - 1]
        assert j[t - 1] >= 0


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, len(ODD_NETS) - 1), rounds=st.integers(1, 8),
       rows=st.lists(st.integers(0, 2 ** 11 - 1), min_size=1, max_size=4))
def test_trajectory_and_series_match_scalar_oracles(k, rounds, rows):
    net = ODD_NETS[k]
    configs = [[1 if (bits >> i) & 1 else -1 for i in range(net.n)] for bits in rows]
    traj = majority.trajectory(net, configs, rounds)
    lyap = majority.lyapunov_series(net, traj)
    j = majority.j_series(net, traj)
    assert traj.dtype == np.int8 and traj.shape == (rounds + 1, len(rows), net.n)
    assert lyap.shape == (rounds, len(rows)) and j.shape == (rounds - 1, len(rows))
    for r, config in enumerate(configs):
        want = [tuple(config)]
        for _ in range(rounds):
            want.append(scalar_step(net, want[-1]))
        assert [tuple(row) for row in traj[:, r].tolist()] == want
        assert lyap[:, r].tolist() == [scalar_lyapunov(net, want[t], want[t + 1])
                                       for t in range(rounds)]
        assert j[:, r].tolist() == [scalar_j_functional(net, want[t - 1], want[t], want[t + 1])
                                    for t in range(1, rounds)]


def test_retention_exact_vs_monte_carlo():
    net = generate("cycle", 5)
    delta = Fraction(3, 10)
    exact = majority.retention_error(net, delta, mode="exact")
    mc = majority.retention_error(net, delta, mode="monte_carlo",
                                  trials=20000, rng=trial_rng(5, 0))
    # the MC surrogate (majority vote) can only do worse than the MAP
    assert mc >= float(exact) - 0.02


def test_retention_beats_single_signal():
    # keeping the network's limit actions beats throwing away all but one bit
    net = generate("cycle", 5)
    delta = Fraction(3, 10)
    assert majority.retention_error(net, delta, mode="exact") < Fraction(1, 2) - delta


def test_map_rule_is_odd_cycle5():
    rule = majority.map_rule(generate("cycle", 5), Fraction(3, 10))
    for prof, g in rule.items():
        neg = tuple(-v for v in prof)
        assert neg in rule and rule[neg] == -g


def truth_table(f, n):
    """f's values over the rows of all_spin_configs(n), whose row r has +1 at coordinate i iff bit n - 1 - i is set."""
    return [f(tuple(1 if r >> (n - 1 - i) & 1 else -1 for i in range(n))) for r in range(1 << n)]


def maj3(x):
    return 1 if sum(x) > 0 else -1


def test_influence_dictator_and_parity():
    dictator = truth_table(lambda x: x[0], 3)
    assert majority.influence(dictator, 0, Fraction(1, 10)) == 1
    assert majority.influence(dictator, 1, Fraction(1, 10)) == 0
    parity = truth_table(lambda x: x[0] * x[1] * x[2], 3)
    for i in range(3):
        assert majority.influence(parity, i, Fraction(1, 10)) == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 6),
       delta=st.one_of(st.just(Fraction(0)), st.fractions(-Fraction(1, 2), Fraction(1, 2), max_denominator=30),
                       st.sampled_from([Fraction(1, 10) + Fraction(1, 10000), Fraction(1, 10) - Fraction(1, 10000),
                                        -Fraction(1, 10000)])))
def test_cube_kernels_match_fraction_oracle(data, n, delta):
    # a random truth table over the 2^n cube; the oracles read it through f, indexed by the bits with +1 as 1,
    # the first coordinate the most significant
    table = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=1 << n, max_size=1 << n))

    def f(x):
        return table[sum(1 << (n - 1 - j) for j, v in enumerate(x) if v == 1)]

    for i in range(n):
        assert majority.influence(table, i, delta) == fraction_influence(f, n, i, delta)
    assert majority.success_probability(table, delta) == fraction_success_probability(f, n, delta)


@pytest.mark.parametrize("table", [[], [1, -1, 1], [1, -1, 0, 1], [[1, -1], [-1, 1]], [1, -1, 1, 2]])
def test_cube_kernels_refuse_a_bad_table(table):
    for kernel in (lambda t: majority.influence(t, 0, Fraction(1, 10)),
                   lambda t: majority.success_probability(t, Fraction(1, 10)),
                   lambda t: majority.russo_residual(t, Fraction(1, 10))):
        with pytest.raises(ValueError, match="2\\^n entries, each \\+1 or -1"):
            kernel(table)
    with pytest.raises(ValueError, match="coordinate 3 outside 0 .. 2"):
        majority.influence(truth_table(maj3, 3), 3, Fraction(1, 10))


def test_russo_three_bit_closed_form():
    table = truth_table(maj3, 3)
    d = Fraction(1, 10)
    total = sum(majority.influence(table, i, d) for i in range(3))
    q = Fraction(1, 2) + d
    assert total == 6 * q * (1 - q)
    assert majority.russo_residual(table, d) <= Fraction(1, 10 ** 6)


def test_success_probability_majority():
    d = Fraction(1, 4)
    p = Fraction(1, 2) + d
    assert majority.success_probability(truth_table(maj3, 3), d) == p ** 3 + 3 * p ** 2 * (1 - p)


def test_vote_table_rows_follow_all_spin_configs():
    # signals_to_vote_table is the truth table of the vote after the dynamics, read by the cube kernels
    net = generate("cycle", 7)
    table = majority.signals_to_vote_table(net)
    assert table.tolist() == truth_table(lambda x: int(np.sign(sum(stepwise_limit_profiles(net, [x])[0]))), 7)


def test_limit_profiles_match_stepwise():
    for net in ODD_NETS:
        configs = majority.all_spin_configs(net.n)
        assert np.array_equal(majority.limit_profiles(net, configs),
                              stepwise_limit_profiles(net, configs))


@settings(max_examples=12, deadline=None)
@given(k=st.integers(0, len(ODD_NETS) - 1),
       delta=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(9, 20), max_denominator=20))
def test_retention_integer_pooling_matches_fraction(k, delta):
    net = ODD_NETS[k]
    assert net.n <= 11
    assert majority.retention_error(net, delta, mode="exact") == fraction_retention(net, delta)


@st.composite
def odd_graphs(draw):
    """Graphs whose closed neighbourhoods all have odd size: every degree is even, as in a sum of cycles."""
    n = draw(st.integers(3, 12))
    edges = set()
    for _ in range(draw(st.integers(0, 4))):
        ring = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=n, unique=True))
        edges ^= {(min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1])}
    return from_pairs(n, sorted(edges))


def full_cube_rule(net, pooled):
    """map_rule's guesses from the full-cube pooled weights."""
    rule = {}
    for packed, (w0, w1) in pooled.items():
        prof = tuple(1 if (packed >> j) & 1 else -1 for j in range(net.n))
        rule[prof] = majority._symmetric_tiebreak(prof) if w1 == w0 else (1 if w1 > w0 else -1)
    return rule


# 1/2 + delta = 6001/10000 puts b^n past 2^63 from n = 5 on, so those weights pool in Python integers
DELTAS = [Fraction(0), Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(1, 10) + Fraction(1, 10000)]


@settings(max_examples=40, deadline=None)
@given(net=odd_graphs(), delta=st.sampled_from(DELTAS), bits=st.sampled_from([0, 2, 12]))
def test_half_cube_retention_matches_full_cube(net, delta, bits):
    # bits < n - 1 streams the half cube in several blocks of 2^bits vectors
    pooled, den = full_cube_pooled_weights(net, delta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(majority, "_HALF_CUBE_BITS", bits)
        iota = majority.retention_error(net, delta, mode="exact")
        rule = majority.map_rule(net, delta)
    assert iota == Fraction(sum(min(w) for w in pooled.values()), den) == fraction_retention(net, delta)
    assert rule == full_cube_rule(net, pooled)


@settings(max_examples=40, deadline=None)
@given(net=st.sampled_from([net for net in ODD_NETS if net.n % 2] + [generate("cycle", 101)]),
       seed=st.integers(0, 2 ** 32 - 1), delta=st.sampled_from(DELTAS), trials=st.integers(1, 400),
       block=st.sampled_from([1, 8, 40, 1 << 16]))
def test_retention_mc_matches_the_whole_array_draw(net, seed, delta, trials, block):
    # small blocks push the trials through the dynamics in many row blocks; the error rate must not notice
    want = whole_array_retention_mc(net, delta, trials, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signals, "_MC_BLOCK", block)
        got = majority.retention_error(net, delta, mode="monte_carlo", trials=trials, rng=np.random.default_rng(seed))
    assert got == want


def test_retention_logs_sizes(caplog, monkeypatch):
    monkeypatch.setattr(majority, "_HALF_CUBE_BITS", 2)
    net = generate("cycle", 7)
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        majority.retention_error(net, Fraction(3, 10))
        majority.retention_error(net, DELTAS[-1])
    # the 2^6 vectors with x_0 = +1, in blocks of 4; each pair {p, ~p} of limit profiles once
    pairs = len(full_cube_pooled_weights(net, Fraction(3, 10))[0]) // 2
    assert f"majority retention: n=7 configs=64 blocks=16 pairs={pairs} (int64)" in caplog.text
    assert f"majority retention: n=7 configs=64 blocks=16 pairs={pairs} (python-int)" in caplog.text


@pytest.mark.parametrize("trials, rng", [(0, np.random.default_rng(0)), (10, None)])
def test_retention_mc_refuses_no_trials_or_no_rng(trials, rng):
    # the trial count is checked by signals.check_trials, as in every seeded sampler
    with pytest.raises(ValueError, match="needs an rng" if rng is None else "needs at least one trial"):
        majority.retention_error(generate("cycle", 5), Fraction(1, 10), mode="monte_carlo", trials=trials, rng=rng)


def test_retention_size_cap():
    cap = majority.EXACT_RETENTION_MAX_N
    with pytest.raises(ValueError, match=f"capped at n={cap}"):
        majority.retention_error(generate("cycle", cap + 1), Fraction(3, 10))
