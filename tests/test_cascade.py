import logging
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opdyn import cascade
from opdyn.signals import FiniteModel, GaussianLLR, bernoulli_delta
from oracles import (fraction_cascade_run_exact, fraction_limit_accuracy, observer_update, per_trial_gaussian_run,
                     per_trial_run_sampled)

MODEL = bernoulli_delta(Fraction(1, 6))  # P(signal = S) = 2/3


def test_first_agent_follows_signal():
    # at an even public ratio the signal decides
    assert cascade.agent_decision(Fraction(1), cascade.private_ratio(MODEL, 1)) == 1
    assert cascade.agent_decision(Fraction(1), cascade.private_ratio(MODEL, 0)) == 0


def test_observer_update_is_bayes():
    lx = observer_update(MODEL, Fraction(1), 1)
    # agent followed its signal, so the action carries one signal's ratio
    assert lx == Fraction(1, 2)
    assert observer_update(MODEL, Fraction(1), 0) == Fraction(2)
    # the chain's children are the same updates
    chain = cascade._Chain(MODEL)
    assert [chain.rows[chain.child(0, a)][0] for a in (1, 0)] == [Fraction(1, 2), Fraction(2)]


def test_cascade_states():
    chain = cascade._Chain(MODEL)

    def forced(lx):
        return chain.rows[chain.number(lx)][1]
    assert forced(Fraction(1, 2)) == 1   # both signals say 1
    assert forced(Fraction(4)) == 0      # both say 0
    assert forced(Fraction(1)) is None
    assert forced(Fraction(2)) is None


def test_exact_series_oracle():
    out = cascade.run_exact(MODEL, 6)
    assert out.p_correct[0] == Fraction(2, 3)
    assert out.p_cascaded_by[0] == 0
    assert out.p_cascaded_by[1] == Fraction(1, 2)
    # accuracy never falls below the single-signal baseline
    assert all(p >= Fraction(2, 3) for p in out.p_correct)
    assert out.limit_wrong > 0


def test_sampled_matches_exact():
    exact = cascade.run_exact(MODEL, 8)
    correct, cascaded = cascade.run_sampled(MODEL, 8, trials=4000, seed=123)
    assert abs(correct[-1] - float(exact.p_correct[-1])) < 0.03
    assert abs(cascaded[-1] - float(exact.p_cascaded_by[-1])) < 0.03


def test_observer_copies_last_action():
    assert cascade.observer_action(Fraction(1, 2)) == 1
    assert cascade.observer_action(Fraction(1)) == 1     # indifference goes to 1
    assert cascade.observer_action(Fraction(4)) == 0
    # run_exact asserts the copy claim internally on every transition
    cascade.run_exact(MODEL, 10)


THREE_LETTER = FiniteModel((0, 1, 2), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
                           (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
FOUR_LETTER = FiniteModel((0, 1, 2, 3), (Fraction(1, 4),) * 4,
                          (Fraction(1, 8), Fraction(1, 8), Fraction(3, 8), Fraction(3, 8)))
# incommensurate private ratios: the public-ratio chain does not stay small
INCOMMENSURATE = FiniteModel((0, 1, 2), (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)),
                             (Fraction(1, 10), Fraction(1, 5), Fraction(7, 10)))
MODELS = [bernoulli_delta(Fraction(1, 10)), MODEL, bernoulli_delta(Fraction(3, 10)), THREE_LETTER, FOUR_LETTER]
MODEL_IDS = ["bernoulli-1/10", "bernoulli-1/6", "bernoulli-3/10", "three-letter", "four-letter"]


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
@pytest.mark.parametrize("n", [1, 60])
def test_run_exact_matches_fraction_oracle(model, n):
    assert cascade.run_exact(model, n) == fraction_cascade_run_exact(model, n)


# the chain's mass denominator D has 72 bits, so the plateau's integer system holds Python integers
WIDE = bernoulli_delta(Fraction(1, 6) + Fraction(1, 2 ** 70))


@pytest.mark.parametrize("model", MODELS + [INCOMMENSURATE, WIDE],
                         ids=MODEL_IDS + ["incommensurate", "wide-denominator"])
def test_limit_accuracy_matches_fraction_oracle(model):
    # the four-letter chain keeps more than 64 non-cascade ratios too: both sides refuse it
    if model is FOUR_LETTER or model is INCOMMENSURATE:
        for fn in (cascade.limit_accuracy, fraction_limit_accuracy):
            with pytest.raises(RuntimeError, match="public-ratio chain did not stay small"):
                fn(model)
    else:
        assert cascade.limit_accuracy(model) == fraction_limit_accuracy(model)


def test_uninformative_signals_leave_every_agent_at_one_half():
    # mu0 = mu1: the prior ratio is already a cascade on action 1, so the limit has no transient row to solve from
    model = FiniteModel((0, 1), (Fraction(3, 4), Fraction(1, 4)), (Fraction(3, 4), Fraction(1, 4)))
    assert cascade.limit_accuracy(model) == Fraction(1, 2)
    out = cascade.run_exact(model, 5)
    assert out == fraction_cascade_run_exact(model, 5)
    assert out.p_correct == [Fraction(1, 2)] * 5 and out.p_cascaded_by == [1] * 5


@settings(max_examples=30, deadline=None)
@given(model=st.sampled_from(MODELS + [INCOMMENSURATE]), n=st.integers(1, 40),
       trials=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_run_sampled_matches_per_trial_oracle(model, n, trials, seed):
    got = cascade.run_sampled(model, n, trials, seed)
    want = per_trial_run_sampled(model, n, trials, seed)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_gaussian_keeps_learning():
    p = cascade.gaussian_run(GaussianLLR(1.0), 40, trials=20000, seed=5)
    assert p[-1] > p[0] + 0.05
    assert p[-1] > 0.85


@settings(max_examples=30, deadline=None)
@given(sigma2=st.sampled_from([0.01, 0.25, 1.0, 4.0]), n=st.integers(1, 60),
       trials=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1))
def test_gaussian_run_matches_per_trial_oracle(sigma2, n, trials, seed):
    # sigma2 = 1/100 underflows the action probabilities: infinite and NaN ratios appear
    model = GaussianLLR(sigma2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = per_trial_gaussian_run(model, n, trials, seed)
        got = cascade.gaussian_run(model, n, trials, seed)
    assert np.array_equal(got, want)


def test_gaussian_run_logs_sizes(caplog):
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        cascade.gaussian_run(GaussianLLR(1.0), 3, trials=1000, seed=4)
    # one public state at the first position, at most two at the second, at most four at the third
    record = next(r.getMessage() for r in caplog.records if r.getMessage().startswith("gaussian cascade:"))
    fields = dict(f.split("=") for f in record.split(": ")[1].split() if "=" in f)
    assert fields["n"] == "3" and fields["trials"] == "1000"
    assert fields["states_max"] == "4" and fields["thresholds"] == "7"
    assert record.endswith("of n*trials=3000")


def test_gaussian_run_needs_a_trial():
    with pytest.raises(ValueError, match="at least one trial"):
        cascade.gaussian_run(GaussianLLR(1.0), 3, trials=0, seed=4)
