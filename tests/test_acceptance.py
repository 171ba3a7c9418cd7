"""Acceptance gate: sixteen pass/fail checks over the named-experiment registry.

Each test runs (or reuses) one registry experiment, prints a single
``[criterion N] PASS/FAIL`` line, and asserts the assertion subset that
the criterion is about. Shared experiments run once per session.
"""

import json

from opdyn.harness import registry, run_experiment

_CACHE = {}


def _record(name):
    if name not in _CACHE:
        rec = run_experiment(registry(name))
        # every record must survive the JSON that `opdyn accept --out` writes
        body = json.loads(rec.to_json())
        assert (body["assertions"], body["exact"]) == (rec.assertions, rec.exact)
        _CACHE[name] = rec
    return _CACHE[name]


def _check(number, description, record, keys=None):
    keys = list(keys or record.assertions)
    ok = all(record.assertions[k] for k in keys)
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {description} "
          f"({record.config.name}, {record.runtime:.1f}s)")
    failed = [k for k in keys if not record.assertions[k]]
    assert ok, f"failed assertions: {failed}"


def test_criterion_01_degroot_limit():
    _check(1, "averaging iterates reach the stationary-weighted limit within 1e-8",
           _record("degroot-limit"))


def test_criterion_02_degroot_learning_monotone():
    _check(2, "exact learning probability is monotone in signal quality and -> 1/2 at 0+",
           _record("degroot-monotone"))


def test_criterion_03_voter_absorption_identity():
    _check(3, "voter absorption probability equals the stationary mass on ones, exactly",
           _record("voter-identity"))


def test_criterion_04_voter_consensus_matches_signal():
    rec = _record("voter-absorption")
    keys = [k for k in rec.assertions if k.startswith("consensus_matches_signal")]
    _check(4, "Monte Carlo consensus-matches-state probability is 1/2+delta within 3 half-widths",
           rec, keys)


def test_criterion_05_voter_absorption_time():
    rec = _record("voter-absorption")
    keys = [k for k in rec.assertions if k.startswith("mean_time_bound")]
    _check(5, "mean absorption time on lazy cycles is at most 2*d*n^2", rec, keys)


def test_criterion_06_strong_voter():
    _check(6, "strong/weak voter: strict signal majority always wins; even tie is fair",
           _record("strong-voter-majority"))


def test_criterion_07_majority_period_and_lyapunov():
    _check(7, "majority dynamics reach period <= 2 by t=|E| with exact potential bookkeeping",
           _record("majority-period2"))


def test_criterion_08_russo_formula():
    _check(8, "summed influences equal the derivative of the success probability",
           _record("majority-russo"))


def test_criterion_09_three_bit_map_margin():
    _check(9, "three-signal MAP accuracy clears the closed-form margin on the whole grid",
           _record("three-bit-map"))


def test_criterion_10_fixation_bounds():
    _check(10, "rational Bayes: fixation and per-agent change counts within the m*n / m bounds",
           _record("bayes-fixation"))


def test_criterion_11_agreement_and_full_learning():
    rec = _record("bayes-agreement")
    _check(11, "limit beliefs agree and match the pooled posterior; complementary pair never learns",
           rec, ["stabilized", "beliefs_agree", "full_information"])
    xor = _record("bayes-xor")
    assert xor.passed, f"failed assertions: {[k for k, v in xor.assertions.items() if not v]}"


def test_criterion_12_equal_limit_utilities():
    _check(12, "discrete utility: limit expected utilities are equal across agents, exactly",
           _record("bayes-agreement"), ["equal_utilities"])


def test_criterion_13_senate():
    _check(13, "committee verdict error is independent of population size and everyone follows it",
           _record("senate"))


def test_criterion_14_chain_tie():
    _check(14, "own-signal tie rule freezes the chain; wrong fixation stays above 5%",
           _record("chain-tie"))


def test_criterion_15_cascades():
    bounded = _record("cascade-bounded")
    _check(15, "bounded cascades plateau below 1 and the observer copies the last actor;"
              " unbounded signals beat the plateau", bounded)
    unbounded = _record("cascade-unbounded")
    assert unbounded.passed, (
        f"failed assertions: {[k for k, v in unbounded.assertions.items() if not v]}")


def test_criterion_16_retention_trend():
    _check(16, "exact retention error is non-increasing over odd cycles; MAP map odd and monotone",
           _record("retention-cycle"))
