import logging
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opdyn import degroot
from opdyn.network import Network, from_pairs, generate, mixing_tv, stationary_distribution
from opdyn.signals import trial_rng
from oracles import enumerate_p_w


def test_step_path3_oracle():
    net = generate("chain", 3)
    st0 = degroot.DeGrootState(actions=(Fraction(0), Fraction(1), Fraction(0)))
    st1 = degroot.step(net, st0)
    assert st1.actions == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))


def test_limit_matches_alpha_mass():
    net = generate("chain", 3)
    psi = (Fraction(1), Fraction(0), Fraction(1))
    # alpha = (2/7, 3/7, 2/7)
    assert degroot.limit(net, psi) == Fraction(4, 7)


def test_iterates_approach_limit():
    net = generate("cycle", 6)
    psi = (1, 0, 0, 1, 1, 0)
    lim = float(degroot.limit(net, psi))
    st60 = degroot.run(net, [Fraction(x) for x in psi], 60)
    assert max(abs(float(a) - lim) for a in st60.actions) < 1e-6


def test_distance_to_limit_bounded_by_twice_mixing():
    # |A^i_t - A_infinity| <= 2 * mixing_tv(i, t) for 0/1 signals
    net = generate("chain", 4)
    psi = (1, 0, 1, 0)
    lim = float(degroot.limit(net, psi))
    state = degroot.DeGrootState(actions=tuple(Fraction(x) for x in psi))
    for t in range(1, 12):
        state = degroot.step(net, state)
        for i in range(net.n):
            assert abs(float(state.actions[i]) - lim) <= 2 * mixing_tv(net, i, t) + 1e-12


def test_learning_probability_exact_cycle3():
    # A_infinity = mean of three signals: success iff majority correct
    net = generate("cycle", 3)
    d = Fraction(1, 10)
    est = degroot.learning_probability(net, d, mode="exact")
    p = Fraction(1, 2) + d
    assert est.p == p ** 3 + 3 * p ** 2 * (1 - p)
    assert est.tie_mass == 0


def test_learning_probability_mc_agrees():
    net = generate("cycle", 5)
    d = Fraction(3, 10)
    exact = degroot.learning_probability(net, d, mode="exact").p
    mc = degroot.learning_probability(net, d, mode="monte_carlo",
                                      trials=20000, rng=trial_rng(1, 0))
    lo, hi = mc.ci
    assert lo - 0.01 <= float(exact) <= hi + 0.01


def test_hoeffding_bound_holds():
    for net in (generate("cycle", 7), generate("cycle", 101),
                generate("random_regular", 120, d=4, seed=0)):
        alpha = stationary_distribution(net).alpha
        for d in (Fraction(1, 10), Fraction(3, 10)):
            exact = degroot.learning_probability(net, d, mode="exact")
            assert float(exact.p + exact.tie_mass) >= degroot.hoeffding_success_bound(alpha, d) - 1e-12


def test_convergence_round_is_tight():
    net = generate("cycle", 5)
    t = degroot.convergence_round(net, tv_threshold=1e-6)
    assert max(mixing_tv(net, i, t) for i in range(net.n)) <= 1e-6
    assert max(mixing_tv(net, i, t - 1) for i in range(net.n)) > 1e-6


def test_cheater_pulls_limit():
    net = generate("cycle", 5)
    psi = (0, 0, 0, 0, 0)
    out = degroot.run_with_cheaters(net, psi, {0: 1}, horizon=20000)
    assert all(abs(x - 1.0) < 1e-9 for x in out)


def test_cheater_exact_oracle_matches_iteration():
    net = generate("chain", 4)
    cheaters = {0: Fraction(1), 3: Fraction(0)}
    h = degroot.cheater_limit_exact(net, cheaters)
    out = degroot.run_with_cheaters(net, (0, 0, 0, 0), cheaters, horizon=200000, tol=1e-14)
    for i in (1, 2):
        target = sum(Fraction(v) * h[i][c] for c, v in cheaters.items())
        assert abs(out[i] - float(target)) < 1e-9
    # hitting probabilities from each honest vertex sum to one
    for i in (1, 2):
        assert sum(h[i].values()) == 1


@settings(max_examples=15, deadline=None)
@given(n=st.integers(3, 7), bits=st.integers(0, 127))
def test_limit_is_invariant_of_dynamics(n, bits):
    net = generate("cycle", n)
    psi = tuple(Fraction((bits >> i) & 1) for i in range(n))
    lim = degroot.limit(net, psi)
    stepped = degroot.step(net, degroot.DeGrootState(actions=psi))
    assert degroot.limit(net, stepped.actions) == lim


def _small_net(kind, n, seed):
    """A network of at most 12 agents of the given kind."""
    if kind == "random_regular":
        return generate(kind, max(4, n - n % 2), d=3, seed=seed)
    if kind == "from_pairs":
        # a random tree plus one chord: irregular degrees, so alpha takes several values
        rng = random.Random(seed)
        pairs = {(rng.randrange(i), i) for i in range(1, n)} | {(0, n - 1)}
        return from_pairs(n, sorted(pairs))
    return generate(kind, n)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["chain", "cycle", "star", "random_regular", "from_pairs"]),
       n=st.integers(2, 12), seed=st.integers(0, 50),
       delta=st.fractions(min_value=Fraction(1, 50), max_value=Fraction(12, 25), max_denominator=50))
def test_learning_probability_dp_matches_enumerator(kind, n, seed, delta):
    net = _small_net(kind, n, seed)
    est = degroot.learning_probability(net, delta, mode="exact")
    assert (est.p, est.tie_mass) == enumerate_p_w(net, delta)


def test_learning_probability_dp_logs_support(caplog):
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        degroot.learning_probability(generate("star", 9), Fraction(1, 10))
    # alpha = (9, 2, ..., 2) / 25: sums 0..25 reachable in steps of 2, plus 9
    assert "p_w DP: n=9 support=18 D=25" in caplog.text


def test_learning_probability_dp_support_cap(monkeypatch):
    monkeypatch.setattr(degroot, "EXACT_DP_MAX_SUPPORT", 8)
    with pytest.raises(ValueError, match="distinct weighted signal sums"):
        degroot.learning_probability(generate("star", 9), Fraction(1, 10))


def test_exact_p_w_rejects_float_weights():
    net = Network(n=2, edges=((0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 2)), (1, 0, 0.5), (1, 1, 0.5)))
    with pytest.raises(ValueError, match=r"edge \(1,0\) has the float weight 0.5"):
        degroot.learning_probability(net, Fraction(1, 10))
