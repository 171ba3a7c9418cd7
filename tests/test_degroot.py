import logging
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opdyn import degroot, signals
from opdyn.network import Network, from_pairs, generate, stationary_distribution
from opdyn.signals import trial_rng
from oracles import (DeGrootState, degroot_limit, degroot_run, degroot_step, enumerate_p_w, fraction_cheater_limits,
                     mixing_tv, per_trial_learning_probability, rational_digraphs, run_with_cheaters,
                     scalar_learning_probability, weighted_net, wide_net)


def test_step_path3_oracle():
    net = generate("chain", 3)
    st0 = DeGrootState(actions=(Fraction(0), Fraction(1), Fraction(0)))
    st1 = degroot_step(net, st0)
    assert st1.actions == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))


def test_limit_matches_alpha_mass():
    net = generate("chain", 3)
    psi = (Fraction(1), Fraction(0), Fraction(1))
    # alpha = (2/7, 3/7, 2/7)
    assert degroot_limit(net, psi) == Fraction(4, 7)


def test_iterates_approach_limit():
    net = generate("cycle", 6)
    psi = (1, 0, 0, 1, 1, 0)
    lim = float(degroot_limit(net, psi))
    st60 = degroot_run(net, [Fraction(x) for x in psi], 60)
    assert max(abs(float(a) - lim) for a in st60.actions) < 1e-6


def test_distance_to_limit_bounded_by_twice_mixing():
    # |A^i_t - A_infinity| <= 2 * mixing_tv(i, t) for 0/1 signals
    net = generate("chain", 4)
    psi = (1, 0, 1, 0)
    lim = float(degroot_limit(net, psi))
    state = DeGrootState(actions=tuple(Fraction(x) for x in psi))
    for t in range(1, 12):
        state = degroot_step(net, state)
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


def test_learning_probability_takes_delta_on_the_closed_half_interval():
    # delta = 1/2: every signal equals S, so the limit is S; delta = 0: fair signals, so p_w = (1 - tie) / 2
    net = generate("cycle", 6)
    for delta, want in ((Fraction(1, 2), (1, 0)), (Fraction(0), (Fraction(11, 32), Fraction(5, 16)))):
        est = degroot.learning_probability(net, delta)
        assert (est.p, est.tie_mass) == want == enumerate_p_w(net, delta)
    # at delta = 1/2 only the all-S profile has weight, so the DP stays at one sum where delta = 1/10 passes 2^20
    est = degroot.learning_probability(weighted_net(28, 1), Fraction(1, 2))
    assert (est.p, est.tie_mass) == (1, 0)
    est = degroot.learning_probability(net, Fraction(1, 2), mode="monte_carlo", trials=50, rng=trial_rng(0, 0))
    assert (est.p, est.tie_mass) == (1, 0)
    # outside [0, 1/2], 1/2 + delta is no probability: both modes refuse it by the signals' one rule
    for delta in (Fraction(-1, 10), Fraction(3, 4)):
        for mode in ("exact", "monte_carlo"):
            with pytest.raises(ValueError, match=rf"delta must lie in \[0, 1/2\], got {delta}$"):
                degroot.learning_probability(net, delta, mode=mode, trials=10, rng=trial_rng(0, 0))


def test_convergence_round_is_tight():
    net = generate("cycle", 5)
    t = degroot.convergence_round(net, tv_threshold=1e-6)
    assert max(mixing_tv(net, i, t) for i in range(net.n)) <= 1e-6
    assert max(mixing_tv(net, i, t - 1) for i in range(net.n)) > 1e-6


def test_convergence_round_refuses_past_the_dense_cap(monkeypatch):
    # its matrix powers are n x n floats, so it stops at the stationary solve's dense cap before building one
    monkeypatch.setattr(Network, "weight_matrix", lambda self: pytest.fail("built the dense weight matrix"))
    with pytest.raises(ValueError, match=r"runs only for n <= 200 \(n=201\)"):
        degroot.convergence_round(generate("cycle", 201))
    assert degroot.EXACT_SOLVE_MAX_N == 200


def test_cheater_pulls_limit():
    # a lone cheater absorbs every honest walk, so every honest limit is its value
    net = generate("cycle", 5)
    psi = (0, 0, 0, 0, 0)
    out = run_with_cheaters(net, psi, {0: 1}, horizon=20000)
    assert all(abs(x - 1.0) < 1e-9 for x in out)
    assert degroot.cheater_limit_exact(net, {0: 1}) == {i: {0: Fraction(1)} for i in range(1, 5)}


def test_cheater_exact_oracle_matches_iteration():
    net = generate("chain", 4)
    cheaters = {0: Fraction(1), 3: Fraction(0)}
    h = degroot.cheater_limit_exact(net, cheaters)
    out = run_with_cheaters(net, (0, 0, 0, 0), cheaters, horizon=200000, tol=1e-14)
    for i in (1, 2):
        target = sum(Fraction(v) * h[i][c] for c, v in cheaters.items())
        assert abs(out[i] - float(target)) < 1e-9
    # hitting probabilities from each honest vertex sum to one
    for i in (1, 2):
        assert sum(h[i].values()) == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data(), net=rational_digraphs(min_n=2))
def test_cheater_limits_match_fraction_hitting_oracle(data, net):
    cheaters = data.draw(st.sets(st.integers(0, net.n - 1), min_size=1, max_size=min(3, net.n - 1)))
    assert degroot.cheater_limit_exact(net, dict.fromkeys(cheaters, 1)) == fraction_cheater_limits(net, cheaters)


def test_cheater_limits_bareiss_branch(caplog):
    # honest agents 1 and 2 between the cheaters 0 and 3 step out with
    # probabilities 1/999983 and 1/1000003: the hitting probabilities have the
    # denominator 1999984, above the rebuild bound, so elimination solves them
    p, q = 999983, 1000003
    net = Network(n=4, edges=((0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 2)),
                              (1, 0, Fraction(1, p)), (1, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2) - Fraction(1, p)),
                              (2, 1, Fraction(1, 2) - Fraction(1, q)), (2, 2, Fraction(1, 2)), (2, 3, Fraction(1, q)),
                              (3, 2, Fraction(1, 2)), (3, 3, Fraction(1, 2))))
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        h = degroot.cheater_limit_exact(net, {0: 1, 3: 0})
    assert h == fraction_cheater_limits(net, {0, 3})
    assert h[1][0] == Fraction(1000003, 1999984)
    assert caplog.text.count("exact solve n=2: Bareiss fallback") == 2


def test_cheater_limits_with_python_integer_counts():
    # row denominators past 2^63 make the view's counts, and so [A | B], Python integers
    q = 2 ** 70 + 1
    net = Network(n=4, edges=((0, 0, Fraction(1, q)), (0, 1, Fraction(q - 1, q)), (1, 0, Fraction(1, 3)),
                              (1, 1, Fraction(1, 3)), (1, 2, Fraction(1, 3)), (2, 2, Fraction(1, 2)),
                              (2, 3, Fraction(1, 2)), (3, 0, Fraction(q + 1, q + 2)), (3, 3, Fraction(1, q + 2))))
    assert net.view.D.dtype == object
    for cheaters in ({0, 2}, {1}, {3}):
        assert degroot.cheater_limit_exact(net, dict.fromkeys(cheaters, 1)) == fraction_cheater_limits(net, cheaters)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(3, 7), bits=st.integers(0, 127))
def test_limit_is_invariant_of_dynamics(n, bits):
    net = generate("cycle", n)
    psi = tuple(Fraction((bits >> i) & 1) for i in range(n))
    lim = degroot_limit(net, psi)
    stepped = degroot_step(net, DeGrootState(actions=psi))
    assert degroot_limit(net, stepped.actions) == lim


def _small_net(kind, n, seed):
    """A network of at most 12 agents of the given kind."""
    if kind == "random_regular":
        return generate(kind, max(4, n - n % 2), d=3, seed=seed)
    if kind == "weighted":
        return weighted_net(n, seed)
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
    # a float weight never reaches the exact p_w: the network refuses it, and the
    # refusal's Fraction(str(w)) gets the exact answer
    edges = ((0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 2)), (1, 0, 0.5), (1, 1, 0.5))
    with pytest.raises(ValueError, match=r"edge \(1,0\) has the weight 0.5, which is not rational"):
        Network(n=2, edges=edges)
    net = Network(n=2, edges=tuple((i, j, Fraction(str(w))) for i, j, w in edges))
    # alpha = (1/2, 1/2): a win needs both signals right, one right is a tie
    est = degroot.learning_probability(net, Fraction(1, 10))
    assert (est.p, est.tie_mass) == (Fraction(9, 25), Fraction(12, 25))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["cycle", "star", "chain", "from_pairs", "weighted"]),
       n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1),
       delta=st.sampled_from([Fraction(1, 100), Fraction(1, 10), Fraction(1, 3), Fraction(49, 100)]),
       trials=st.integers(1, 300), block=st.sampled_from([1, 8, 40, 1 << 14]))
def test_learning_probability_mc_matches_scalar_oracle(kind, n, seed, delta, trials, block):
    # small blocks split the trials into many row blocks; the stream must not notice
    net = _small_net(kind, n, seed)
    wins, ties = scalar_learning_probability(net, delta, trials, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signals, "_MC_BLOCK", block)
        est = degroot.learning_probability(net, delta, mode="monte_carlo", trials=trials,
                                           rng=np.random.default_rng(seed))
    assert (est.p, est.tie_mass, est.trials) == (wins / trials, ties / trials, trials)


@pytest.mark.parametrize("seed", range(4))
def test_learning_probability_mc_matches_scalar_oracle_on_float_weights(seed):
    # alpha's common denominator is far above 2^53, so the kernel sums a float alpha in float64;
    # no limit of these draws lies within rounding of 1/2
    net = wide_net(7, seed)
    trials = 500
    wins, ties = scalar_learning_probability(net, Fraction(1, 10), trials, np.random.default_rng(seed))
    est = degroot.learning_probability(net, Fraction(1, 10), mode="monte_carlo", trials=trials,
                                       rng=np.random.default_rng(seed))
    assert (est.p, est.tie_mass) == (wins / trials, ties / trials)


@pytest.mark.parametrize("net", [generate("cycle", 6), generate("star", 7), weighted_net(6, 1)],
                         ids=["cycle6", "star7", "weighted6"])
def test_learning_probability_mc_agrees_with_the_per_trial_sampler(net):
    # the block kernel and the old per-trial loop sample p_w and the tie mass from different draws
    trials = 4000
    got = degroot.learning_probability(net, Fraction(1, 10), mode="monte_carlo", trials=trials, rng=trial_rng(5, 0))
    wins, ties = per_trial_learning_probability(net, Fraction(1, 10), trials, trial_rng(6, 0))
    for p, q in ((got.p, wins / trials), (got.tie_mass, ties / trials)):
        assert abs(p - q) <= 4 * np.sqrt((p * (1 - p) + q * (1 - q)) / trials)


def test_learning_probability_mc_logs_sizes(caplog):
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        degroot.learning_probability(generate("star", 9), Fraction(1, 10), mode="monte_carlo",
                                     trials=100, rng=trial_rng(1, 0))
    # alpha = (9, 2, ..., 2) / 25; test_signals checks the block sizes
    assert "p_w MC: n=9 trials=100 D=25" in caplog.text
    # alpha = (q, 2) / (q + 2) with q + 2 = 2^54 + 1: too wide for float64, so the sum is a float
    q = 2 ** 54 - 1
    wide = Network(n=2, edges=((0, 0, Fraction(q - 1, q)), (0, 1, Fraction(1, q)),
                               (1, 0, Fraction(1, 2)), (1, 1, Fraction(1, 2))))
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        degroot.learning_probability(wide, Fraction(1, 10), mode="monte_carlo", trials=10, rng=trial_rng(1, 0))
    assert "p_w MC: n=2 trials=10 D=float" in caplog.text
