from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opdyn import majority
from opdyn.network import from_pairs, generate
from opdyn.signals import trial_rng
from oracles import (fraction_retention, scalar_j_functional, scalar_lyapunov, scalar_step,
                     stepwise_limit_profiles)

# odd closed neighbourhoods only: cycles, odd cliques, 4-regular graphs, and
# three triangles in a chain, whose degrees 2 and 4 mix neighbourhoods of sizes 3 and 5
ODD_NETS = [generate("cycle", n) for n in range(3, 12)] + [
    generate("complete", 5), generate("complete", 7),
    generate("random_regular", 8, d=4, seed=7), generate("random_regular", 10, d=4, seed=1),
    from_pairs(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (1, 5), (1, 6), (5, 6)]),
]


def test_even_closed_neighborhood_rejected():
    with pytest.raises(ValueError):
        majority.step(generate("chain", 4), (1, 1, -1, -1))


def test_step_cycle5_oracle():
    net = generate("cycle", 5)
    # closed neighborhoods of size 3: plain local majority
    assert majority.step(net, (1, 1, -1, -1, -1)) == (1, 1, -1, -1, -1)
    assert majority.step(net, (1, -1, 1, -1, 1)) == (1, 1, -1, 1, 1)


def test_all_ones_fixed():
    net = generate("cycle", 7)
    assert majority.step(net, (1,) * 7) == (1,) * 7


def test_run_to_cycle_period_two_example():
    net = generate("cycle", 6)
    lc = majority.run_to_cycle(net, (1, -1, 1, -1, 1, -1))
    assert lc.period in (1, 2)
    assert lc.entry_time <= len(net.undirected_edge_list())
    # the two phases map to each other
    assert majority.step(net, lc.config_even) == lc.config_odd
    assert majority.step(net, lc.config_odd) == lc.config_even


def test_trajectory_matches_step():
    net = generate("cycle", 6)
    configs = majority.all_spin_configs(6)
    batch = majority.trajectory(net, configs, 1)[1]
    for k in range(0, 64, 7):
        assert tuple(batch[k]) == majority.step(net, tuple(configs[k]))


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


def test_influence_dictator_and_parity():
    dictator = lambda x: x[0]
    assert majority.influence(dictator, 3, 0, Fraction(1, 10)) == 1
    assert majority.influence(dictator, 3, 1, Fraction(1, 10)) == 0
    parity = lambda x: x[0] * x[1] * x[2]
    for i in range(3):
        assert majority.influence(parity, 3, i, Fraction(1, 10)) == 1


def test_influence_mc_agrees():
    maj3 = lambda x: 1 if sum(x) > 0 else -1
    exact = majority.influence(maj3, 3, 0, Fraction(1, 5))
    mc = majority.influence(maj3, 3, 0, Fraction(1, 5), mode="monte_carlo",
                            trials=20000, rng=trial_rng(9, 0))
    assert abs(mc - float(exact)) < 0.02


def test_russo_three_bit_closed_form():
    maj3 = lambda x: 1 if sum(x) > 0 else -1
    d = Fraction(1, 10)
    total = sum(majority.influence(maj3, 3, i, d) for i in range(3))
    q = Fraction(1, 2) + d
    assert total == 6 * q * (1 - q)
    assert majority.russo_residual(maj3, 3, d) <= Fraction(1, 10 ** 6)


def test_success_probability_majority():
    maj3 = lambda x: 1 if sum(x) > 0 else -1
    d = Fraction(1, 4)
    p = Fraction(1, 2) + d
    assert majority.success_probability(maj3, 3, d) == p ** 3 + 3 * p ** 2 * (1 - p)


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
