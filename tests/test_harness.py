import json
from fractions import Fraction

import pytest

from opdyn import harness
from opdyn.harness_util import wilson_interval


def test_wilson_midpoint():
    low, high = wilson_interval(50, 100)
    assert abs(low - 0.404) < 2e-3
    assert abs(high - 0.596) < 2e-3


def test_wilson_boundaries():
    low, high = wilson_interval(0, 20)
    assert low < 1e-12 and 0 < high < 0.2
    low, high = wilson_interval(20, 20)
    assert 0.8 < low < 1 and high > 1 - 1e-12
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(6, 5)


def test_config_json_round_trip():
    cfg = harness.registry("three-bit-map")
    back = harness.ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg


def test_config_schema_version_rejected():
    cfg = harness.registry("three-bit-map")
    data = json.loads(cfg.to_json())
    data["schema_version"] = 99
    with pytest.raises(ValueError):
        harness.ExperimentConfig.from_json(json.dumps(data))


def test_registry_lists_and_rejects():
    names = harness.experiment_names()
    assert len(names) == 16
    assert "degroot-limit" in names and "retention-cycle" in names
    with pytest.raises(KeyError):
        harness.registry("no-such-experiment")


def test_run_experiment_deterministic():
    cfg = harness.registry("voter-identity")
    a = harness.run_experiment(cfg)
    b = harness.run_experiment(cfg)
    assert a.passed and b.passed
    assert a.estimates == b.estimates
    assert a.exact == b.exact
    assert a.assertions == b.assertions


def test_result_record_json():
    rec = harness.run_experiment(harness.registry("three-bit-map"))
    body = json.loads(rec.to_json())
    assert body["schema_version"] == harness.SCHEMA_VERSION
    assert body["config"]["name"] == "three-bit-map"
    assert all(isinstance(v, bool) for v in body["assertions"].values())


def test_senate_joint_space_weights_are_atom_products():
    p = Fraction(1, 2) + Fraction(1, 6)
    space = harness._senate_joint_space(6, 3, Fraction(1, 6))
    assert len(space.entries) == 2 * 2 ** 6
    for s, prof, w in space.entries:
        want = Fraction(1, 2)
        for b, verdict in prof:
            want *= p if b == s else 1 - p
            assert verdict == (sum(c for c, _v in prof[:3]) >= 2)
        assert w == want
    assert sum(w for _s, _p, w in space.entries) == 1
