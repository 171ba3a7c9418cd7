from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opdyn.signals import (FiniteModel, GaussianLLR, bernoulli_delta,
                           belief_support, delta_independence,
                           map_accuracy_three_bits, private_belief,
                           read_signal_model, sample_world, three_bit_epsilon,
                           trial_rng, tv_distance, write_signal_model, xor_pair)
from oracles import fraction_map_accuracy_three_bits


def test_bernoulli_model_exact():
    m = bernoulli_delta(Fraction(1, 6))
    assert m.prob(1, 1) == Fraction(2, 3)
    assert m.prob(1, 0) == Fraction(1, 3)
    assert private_belief(m, 1) == Fraction(2, 3)
    kind, lo, hi = belief_support(m)
    assert (kind, lo, hi) == ("bounded", Fraction(1, 3), Fraction(2, 3))


def test_degenerate_models_rejected():
    with pytest.raises(ValueError):
        FiniteModel(alphabet=(0, 1), mu0=(1, 0), mu1=(Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        bernoulli_delta(Fraction(1, 2))


def test_gaussian_support_unbounded():
    assert belief_support(GaussianLLR(1.0)) == ("unbounded",)
    assert GaussianLLR(2.0).llr(1.0) == 1.0


def test_xor_pair_is_uninformative_marginally():
    jt = xor_pair()
    assert sum(w for (_s, _p, w) in jt.entries) == 1
    # each single signal carries nothing: P(S=1 | psi_1 = a) = 1/2
    for a in (0, 1):
        w1 = sum(w for (s, p, w) in jt.entries if p[0] == a and s == 1)
        w = sum(w for (_s, p, w) in jt.entries if p[0] == a)
        assert w1 / w == Fraction(1, 2)


def test_delta_independence_detects_xor():
    jt = xor_pair()
    joint = {(s,) + p: w for (s, p, w) in jt.entries}
    within, excess = delta_independence(joint, tol=Fraction(1, 10))
    assert not within and excess > 0
    product = {(a, b): Fraction(1, 4) for a in (0, 1) for b in (0, 1)}
    within2, excess2 = delta_independence(product, tol=0)
    assert within2 and excess2 == 0


def test_three_bit_map_unskewed_is_majority():
    acc, rule = map_accuracy_three_bits(Fraction(2, 3))
    assert acc == Fraction(20, 27)  # p^3 + 3 p^2 (1-p) at p = 2/3
    for x, g in rule.items():
        assert g == (1 if sum(x) >= 2 else 0)


def test_three_bit_epsilon_positive_inside():
    for p in (Fraction(11, 20), Fraction(3, 4), Fraction(19, 20)):
        assert 0 < three_bit_epsilon(p) < Fraction(1, 2)


@settings(max_examples=30, deadline=None)
@given(num=st.integers(11, 19), k=st.integers(-2, 2))
def test_three_bit_map_beats_one_bit(num, k):
    p = Fraction(num, 20)
    d = k * min(p, 1 - p) / 3
    acc, _ = map_accuracy_three_bits(p, d, 0, -d)
    assert acc >= p + three_bit_epsilon(p)


@settings(max_examples=60, deadline=None)
@given(p=st.fractions(min_value=Fraction(1, 2), max_value=1, max_denominator=60)
       .filter(lambda p: Fraction(1, 2) < p < 1),
       skews=st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=12),
                      min_size=3, max_size=3))
def test_three_bit_map_matches_fraction_oracle(p, skews):
    # skews in units of room = min(p, 1 - p); +-room itself is degenerate and must be refused
    ds = [s * min(p, 1 - p) for s in skews]
    if any(abs(s) == 1 for s in skews):
        for fn in (map_accuracy_three_bits, fraction_map_accuracy_three_bits):
            with pytest.raises(ValueError, match="degenerate parameters"):
                fn(p, *ds)
        return
    assert map_accuracy_three_bits(p, *ds) == fraction_map_accuracy_three_bits(p, *ds)


def test_three_bit_map_rejects_bad_quality():
    for p in (Fraction(1, 2), Fraction(1), Fraction(1, 3)):
        with pytest.raises(ValueError, match="need 1/2 < p < 1"):
            map_accuracy_three_bits(p)


def test_signal_model_file_round_trip(tmp_path):
    m = FiniteModel(alphabet=(0, 1, 2),
                    mu0=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
                    mu1=(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
    path = tmp_path / "model.txt"
    write_signal_model(m, path)
    back = read_signal_model(path)
    assert back.mu0 == m.mu0 and back.mu1 == m.mu1


def test_trial_rng_reproducible_and_distinct():
    a = trial_rng(7, 3).random(4)
    b = trial_rng(7, 3).random(4)
    c = trial_rng(7, 4).random(4)
    assert np.allclose(a, b)
    assert not np.allclose(a, c)


def test_sample_world_respects_state():
    m = bernoulli_delta(Fraction(49, 100))
    rng = trial_rng(0, 0)
    w = sample_world(m, 50, rng)
    matches = sum(1 for x in w.signals if x == w.s)
    assert matches > 40  # p = 0.99


def test_tv_distance():
    assert tv_distance({0: Fraction(1, 2), 1: Fraction(1, 2)},
                       {0: Fraction(1), 1: Fraction(0)}) == Fraction(1, 2)
