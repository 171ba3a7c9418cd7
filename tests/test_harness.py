import json
from fractions import Fraction

import pytest

from opdyn import harness, majority, voter
from opdyn.harness_util import wilson_interval
from opdyn.network import StationaryDistribution, generate
from oracles import config_from_json, config_to_json, undirected_edge_list


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
    back = config_from_json(config_to_json(cfg))
    assert back == cfg


def test_config_schema_version_rejected():
    cfg = harness.registry("three-bit-map")
    data = json.loads(config_to_json(cfg))
    data["schema_version"] = 99
    with pytest.raises(ValueError):
        config_from_json(json.dumps(data))


def test_config_holds_only_the_settings_experiments_read():
    # schema 2 dropped mode, horizon and options, which no experiment read; a schema 1 config is refused
    cfg = harness.registry("voter-absorption")
    assert sorted(json.loads(config_to_json(cfg))) == ["name", "schema_version", "seed", "trials"]
    old = {"name": "voter-absorption", "mode": "mc", "trials": 100000, "seed": 20240601, "horizon": 0,
           "options": {}, "schema_version": 1}
    with pytest.raises(ValueError, match="unsupported schema version 1"):
        config_from_json(json.dumps(old))


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


def test_voter_identity_audit_is_not_a_tautology(monkeypatch):
    # the kernel's table is alpha . s by construction; the experiment's certificate must still see a wrong one
    def verdict():
        return harness.run_experiment(harness.registry("voter-identity")).assertions["absorption_equals_alpha_mass"]

    assert verdict() is True
    kernel, star8 = voter.absorption_probabilities, generate("star", 8)

    def bent(net):
        h = kernel(net)
        if net.edges == star8.edges:
            h[37] += Fraction(1, 7)
        return h

    monkeypatch.setattr(voter, "absorption_probabilities", bent)
    assert verdict() is False
    # a table that matches the alpha it is compared with, uniform here, is caught by the certificate alone
    monkeypatch.setattr(harness, "stationary_distribution",
                        lambda net: StationaryDistribution((Fraction(1, net.n),) * net.n))
    monkeypatch.setattr(voter, "absorption_probabilities",
                        lambda net: {s: Fraction(bin(s).count("1"), net.n) for s in range(1 << net.n)})
    assert verdict() is False


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


def _period2_checks(net, traj, edge_count):
    return harness._period2_checks(traj, majority.lyapunov_series(net, traj),
                                   majority.j_series(net, traj), edge_count)


@pytest.mark.parametrize("kind, n", [("cycle", 7), ("complete", 5), ("cycle", 8)])
def test_period2_checks_catch_faults(kind, n):
    net = generate(kind, n)
    edge_count = len(undirected_edge_list(net))
    traj = majority.trajectory(net, majority.all_spin_configs(n), edge_count + 2)
    assert all(_period2_checks(net, traj, edge_count).values())
    # one flipped entry in the last round breaks the period-two repeat
    bad = traj.copy()
    bad[-1, 5, 0] *= -1
    assert not _period2_checks(net, bad, edge_count)["period_two_by_edge_count"]
    # one flipped entry mid-way through the all-(+1) fixed point: L - L' = -J holds for any
    # +-1 sequence, but the round before the flip dissipates a negative amount
    bad = traj.copy()
    bad[3, -1, 0] = -1
    checks = _period2_checks(net, bad, edge_count)
    assert checks["lyapunov_decrement_identity"] and not checks["dissipation_nonnegative"]
    # one L value off by a unit step breaks the decrement identity
    lyap = majority.lyapunov_series(net, traj)
    lyap[2, 0] += 2
    assert not harness._period2_checks(traj, lyap, majority.j_series(net, traj),
                                       edge_count)["lyapunov_decrement_identity"]


@pytest.mark.parametrize("n", [5, 6])
def test_map_rule_checks_catch_a_swapped_guess(n):
    rule = majority.map_rule(generate("cycle", n), Fraction(3, 10))
    assert harness._map_rule_checks(rule) == (True, True)
    for prof in rule:
        bad = dict(rule)
        bad[prof] = -bad[prof]
        assert harness._map_rule_checks(bad) != (True, True)
    # swapping the two constant profiles together keeps the rule odd but not monotone
    bad = dict(rule)
    bad[(1,) * n], bad[(-1,) * n] = -1, 1
    assert harness._map_rule_checks(bad) == (True, False)
