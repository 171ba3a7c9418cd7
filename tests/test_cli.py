import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from opdyn import cascade, cli, degroot, majority, network, voter
from opdyn.network import generate
from opdyn.signals import GaussianLLR, bernoulli_delta, trial_rng
from oracles import (scalar_j_functional, scalar_lyapunov, scalar_step, undirected_edge_list, write_network,
                     write_signal_model)


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_degroot_exact(capsys):
    code, rec = run_json(capsys, ["degroot", "--graph", "cycle:3", "--delta", "1/10"])
    assert code == 0
    # three agents, equal weights: learn iff at least two signals match
    assert Fraction(rec["p_w"]) == Fraction(81, 125)


def test_degroot_cheater(capsys):
    code, rec = run_json(capsys, ["degroot", "--graph", "chain:3", "--cheater", "0=1"])
    assert code == 0
    assert all(Fraction(v) == 1 for v in rec["limits_exact"].values())


def test_voter_exact(capsys):
    code, rec = run_json(capsys, ["voter", "--graph", "chain:3", "--mode", "exact"])
    assert code == 0
    assert [Fraction(a) for a in rec["alpha"]] == [Fraction(2, 7), Fraction(3, 7), Fraction(2, 7)]
    assert Fraction(rec["p_consensus_one_by_state"]["100"]) == Fraction(2, 7)
    assert Fraction(rec["p_consensus_one_by_state"]["111"]) == 1


def test_voter_monte_carlo_commands(tmp_path, capsys):
    code, rec = run_json(capsys, ["voter", "--graph", "cycle:6", "--delta", "1/5",
                                  "--trials", "200", "--seed", "1"])
    assert code == 0
    out = voter.mc_consensus(generate("cycle", 6), Fraction(1, 5), 200, seed=1)
    assert rec["p_match_signal_state"] == out["matches"] / 200
    assert rec["mean_absorption_time"] == float(out["times"].mean())
    code, rec = run_json(capsys, ["voter-strong", "--graph", "cycle:5", "--delta", "1/10",
                                  "--trials", "30", "--seed", "2"])
    assert code == 0
    assert rec["trials"] == 30 and rec["p_majority_wins_given_strict"] == 1.0
    # the flags nothing read, and the duplicate --exact spelling of --mode exact, are gone
    for argv in (["voter", "--graph", "cycle:3", "--horizon", "5"],
                 ["voter", "--graph", "cycle:3", "--exact"],
                 ["voter-strong", "--graph", "cycle:3", "--mode", "mc"],
                 ["degroot", "--graph", "cycle:3", "--horizon", "5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    # an agent with no out-edges is a user error, not an IndexError
    path = tmp_path / "lonely.txt"
    path.write_text("n 2 directed\n0 0 1\n")
    code, err = _error_record(capsys, ["voter", "--graph", str(path), "--trials", "5"])
    assert code == 2
    assert err["error"] == "agent 1 has no out-neighbours"


def test_cascade_exact(capsys):
    code, rec = run_json(capsys, ["cascade", "--signal", "bernoulli:1/6", "--n", "4"])
    assert code == 0
    assert Fraction(rec["p_correct"][0]) == Fraction(2, 3)
    assert Fraction(rec["p_cascaded_by"][1]) == Fraction(1, 2)


def test_bayes_chain_tie(capsys):
    code, rec = run_json(capsys, ["bayes", "--scenario", "chain-tie:4"])
    assert code == 0
    assert rec["sticks_to_own_signal"] is True
    assert Fraction(rec["p_some_wrong"]) >= Fraction(rec["p_adjacent_wrong"])


def test_bayes_exact_graph(capsys):
    code, rec = run_json(capsys, ["bayes", "--graph", "cycle:3",
                                  "--signal", "bernoulli:1/6",
                                  "--utility", "continuous"])
    assert code == 0
    assert rec["stabilized"] and rec["agreement"] and rec["full_information"]
    # the continuous path reads no tie rule, so its record names none
    assert rec["utility"] == "continuous" and rec["tie"] is None
    code, rec = run_json(capsys, ["bayes", "--graph", "cycle:3", "--signal", "bernoulli:1/6"])
    assert code == 0 and (rec["utility"], rec["tie"]) == ("discrete", "one")


def test_majority_lyapunov(capsys):
    code, rec = run_json(capsys, ["majority", "--graph", "cycle:5",
                                  "--delta", "3/10", "--emit-lyapunov"])
    assert code == 0
    series = rec["lyapunov_series"]
    # L never increases and each drop equals -J exactly
    for a, b in zip(series, series[1:]):
        assert Fraction(b["L"]) - Fraction(a["L"]) == -Fraction(b["J"])
        assert Fraction(b["J"]) >= 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_majority_lyapunov_record_matches_scalar_kernels(capsys, seed):
    code, rec = run_json(capsys, ["majority", "--graph", "cycle:7", "--emit-lyapunov",
                                  "--seed", str(seed)])
    assert code == 0
    # the record as one scalar step, lyapunov and j_functional call per round built it
    net = generate("cycle", 7)
    config = tuple(int(v) for v in (trial_rng(seed, 1).integers(0, 2, size=7) * 2 - 1))
    traj = [config]
    for _ in range(len(undirected_edge_list(net)) + 2):
        traj.append(scalar_step(net, traj[-1]))
    series = [{"t": t,
               "L": int(scalar_lyapunov(net, traj[t], traj[t + 1])),
               "J": scalar_j_functional(net, traj[t - 1], traj[t], traj[t + 1])}
              for t in range(1, len(traj) - 1)]
    assert rec["initial_config"] == list(config)
    assert rec["lyapunov_series"] == json.loads(json.dumps(series, default=str))
    assert rec["iota"] == str(majority.retention_error(net, Fraction(3, 10)))


def test_graph_and_signal_files(tmp_path, capsys):
    gpath = tmp_path / "net.txt"
    write_network(generate("cycle", 3), str(gpath))
    spath = tmp_path / "sig.txt"
    write_signal_model(bernoulli_delta(Fraction(1, 6)), str(spath))
    code, rec = run_json(capsys, ["cascade", "--signal", f"file:{spath}", "--n", "3"])
    assert code == 0
    assert Fraction(rec["p_correct"][0]) == Fraction(2, 3)
    code, rec = run_json(capsys, ["degroot", "--graph", str(gpath)])
    assert code == 0
    assert Fraction(rec["p_w"]) == Fraction(81, 125)


def test_accept_single(capsys, tmp_path):
    path = tmp_path / "gate.jsonl"
    code = cli.main(["accept", "--only", "three-bit-map", "--out", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS three-bit-map")
    record = json.loads(path.read_text())
    assert record["config"]["name"] == "three-bit-map"
    assert record["assertions"] == {"map_margin_everywhere": True}


def test_cascade_plateau_matches_golden(capsys):
    golden = Path(__file__).resolve().parent.parent / "bench" / "golden_gate.jsonl"
    records = [json.loads(line) for line in golden.read_text().splitlines() if line.strip()]
    want = next(r for r in records if r["config"]["name"] == "cascade-bounded")["exact"]["plateau"]
    code, rec = run_json(capsys, ["cascade", "--signal", "bernoulli:1/6"])
    assert code == 0
    assert rec["plateau"] == want == "5/7"


def test_cascade_plateau_cap_is_reported(tmp_path, capsys):
    # three letters with incommensurate ratios: the public-ratio chain does not stay small
    path = tmp_path / "sig3.txt"
    path.write_text("3\n1/2 3/10 1/5\n1/10 1/5 7/10\n")
    code, rec = run_json(capsys, ["cascade", "--signal", f"file:{path}", "--n", "3"])
    assert code == 0
    assert rec["plateau"] is None
    assert "did not stay small" in rec["plateau_error"]
    assert len(rec["p_correct"]) == 3


def _error_record(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    return code, json.loads(lines[0])


def test_decimal_files_get_the_exact_oracles(tmp_path, capsys):
    path = tmp_path / "decimal.txt"
    path.write_text("n 2 directed\n0 0 1/2\n0 1 1/2\n1 0 0.25\n1 1 0.75\n")
    code, rec = run_json(capsys, ["voter", "--graph", str(path), "--mode", "exact"])
    assert code == 0 and rec["alpha"] == ["1/3", "2/3"]
    assert rec["p_consensus_one_by_state"] == {"00": "0", "10": "1/3", "01": "2/3", "11": "1"}
    # alpha = (1/3, 2/3): the limit rounds to S exactly when agent 1's signal is right
    code, rec = run_json(capsys, ["degroot", "--graph", str(path)])
    assert code == 0 and (rec["p_w"], rec["tie_mass"]) == ("3/5", "0")
    code, rec = run_json(capsys, ["degroot", "--graph", str(path), "--cheater", "0=0.5"])
    assert code == 0 and rec["limits_exact"] == {"0": "1/2", "1": "1/2"}
    # a weight written as 1 is the rational 1
    path.write_text("n 1 directed\n0 0 1\n")
    code, rec = run_json(capsys, ["degroot", "--graph", str(path)])
    assert code == 0 and rec["p_w"] == "3/5"


@pytest.mark.parametrize("weight", ["nan", "inf", "1/0", "1e-100000"])
def test_graph_file_weights_that_are_not_rationals_are_refused_by_line(tmp_path, capsys, weight):
    path = tmp_path / "bad.txt"
    path.write_text(f"n 2 directed\n0 0 1\n1 0 {weight}\n1 1 1\n")
    for argv in (["degroot", "--graph", str(path)], ["voter", "--graph", str(path), "--mode", "exact"]):
        start = time.perf_counter()
        code, err = _error_record(capsys, argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and err["error"].startswith(f"bad graph spec {str(path)!r}: line 3: ")


def test_graph_file_without_agents_is_refused_by_line(tmp_path, capsys):
    # once an IndexError traceback, an unpacking error, an empty record or "negative shift count"
    path = tmp_path / "empty.txt"
    for kind in ("directed", "undirected"):
        path.write_text(f"n 0 {kind}\n")
        for argv in (["degroot"], ["degroot", "--cheater", "0=1"], ["voter", "--mode", "exact"], ["voter"],
                     ["bayes"], ["majority"]):
            code, err = _error_record(capsys, [argv[0], "--graph", str(path), *argv[1:]])
            assert code == 2 and err == {"command": argv[0], "error": f"bad graph spec {str(path)!r}: line 1: a "
                                                                      f"network needs at least 1 agent, got 'n 0 {kind}'"}


def test_voter_monte_carlo_on_float_weights(tmp_path, capsys):
    # the decimal file runs under Monte Carlo
    path = tmp_path / "decimal.txt"
    path.write_text("n 2 directed\n0 0 1/2\n0 1 1/2\n1 0 0.25\n1 1 0.75\n")
    code, rec = run_json(capsys, ["voter", "--graph", str(path), "--trials", "300", "--seed", "2"])
    assert code == 0
    assert rec["trials"] == 300 and 0 <= rec["p_match_signal_state"] <= 1
    assert rec["wilson95"][0] <= rec["p_match_signal_state"] <= rec["wilson95"][1]
    assert rec["mean_absorption_time"] > 0
    # a row whose counts need a total of 2^53 or more runs too: its picks are exact at any width
    q = 2 ** 53 + 1
    path.write_text(f"n 2 directed\n0 0 1/2\n0 1 1/2\n1 0 1/{q}\n1 1 {q - 1}/{q}\n")
    code, rec = run_json(capsys, ["voter", "--graph", str(path), "--trials", "5"])
    assert code == 0 and rec["trials"] == 5


@pytest.mark.parametrize("argv, message", [
    (["degroot", "--graph", "cycle:3", "--trials", "5", "--seed", "3"], "--trials applies to --mode mc only"),
    (["degroot", "--graph", "cycle:3", "--seed", "0"], "--seed applies to --mode mc only"),
    (["degroot", "--graph", "cycle:3", "--cheater", "0=1", "--mode", "mc", "--trials", "5"],
     "--trials does not apply to --cheater"),
    (["cascade", "--signal", "bernoulli:1/6", "--mode", "exact", "--trials", "5"],
     "--trials applies to --mode mc only"),
    (["cascade", "--signal", "bernoulli:1/6", "--seed", "3"], "--seed applies to --mode mc only"),
    (["majority", "--graph", "cycle:5", "--trials", "5"], "--trials applies to --mode mc only"),
    (["majority", "--graph", "cycle:5", "--seed", "3"], "--seed applies to --mode mc only"),
    (["majority", "--graph", "cycle:5", "--emit-lyapunov", "--trials", "5"], "--trials applies to --mode mc only"),
    # flags that a path reads nothing from, including an explicitly typed default
    (["degroot", "--graph", "cycle:3", "--cheater", "0=1", "--delta", "1/5", "--mode", "mc"],
     "--delta does not apply to --cheater"),
    (["degroot", "--graph", "cycle:3", "--cheater", "0=1", "--mode", "exact"], "--mode does not apply to --cheater"),
    (["degroot", "--graph", "cycle:3", "--cheater", "0=1", "--delta", "1/10"], "--delta does not apply to --cheater"),
    (["cascade", "--signal", "gaussian:1", "--mode", "exact", "--n", "3", "--trials", "10"],
     "--mode exact needs a finite signal model"),
    (["bayes", "--scenario", "senate:10,5", "--graph", "cycle:3", "--utility", "continuous", "--tie", "own",
      "--horizon", "3"], "--graph does not apply to --scenario senate"),
    (["bayes", "--scenario", "senate:10,5", "--utility", "discrete"], "--utility does not apply to --scenario senate"),
    (["bayes", "--scenario", "senate:10,5", "--tie", "one"], "--tie does not apply to --scenario senate"),
    (["bayes", "--scenario", "senate:10,5", "--horizon", "3"], "--horizon does not apply to --scenario senate"),
    (["bayes", "--scenario", "chain-tie:4", "--graph", "cycle:3"], "--graph does not apply to --scenario chain-tie"),
    (["bayes", "--scenario", "chain-tie:4", "--utility", "continuous"],
     "--utility does not apply to --scenario chain-tie"),
    (["bayes", "--scenario", "chain-tie:4", "--tie", "own"], "--tie does not apply to --scenario chain-tie"),
    (["bayes", "--graph", "star:4", "--signal", "bernoulli:1/6", "--utility", "continuous", "--tie", "own"],
     "--tie does not apply to --utility continuous"),
    (["bayes", "--graph", "star:4", "--utility", "continuous", "--tie", "one"],
     "--tie does not apply to --utility continuous"),
])
def test_exact_paths_refuse_the_sampling_flags(capsys, argv, message):
    code, err = _error_record(capsys, argv)
    assert code == 2
    assert err["command"] == argv[0] and err["error"].startswith(message)


def test_sampling_paths_read_trials_and_seed(capsys):
    code, rec = run_json(capsys, ["degroot", "--graph", "cycle:3", "--mode", "mc", "--trials", "50", "--seed", "4"])
    assert code == 0 and (rec["trials"], rec["seed"]) == (50, 4)
    est = degroot.learning_probability(generate("cycle", 3), Fraction(1, 10), mode="monte_carlo", trials=50,
                                       rng=trial_rng(4, 0))
    assert (rec["p_w"], rec["tie_mass"]) == (est.p, est.tie_mass)
    code, rec = run_json(capsys, ["degroot", "--graph", "cycle:3", "--mode", "mc"])
    assert code == 0 and (rec["trials"], rec["seed"]) == (10000, 0)
    code, rec = run_json(capsys, ["cascade", "--signal", "bernoulli:1/6", "--mode", "mc", "--trials", "40",
                                  "--seed", "4"])
    assert code == 0 and (rec["trials"], rec["seed"]) == (40, 4)
    code, rec = run_json(capsys, ["majority", "--graph", "cycle:5", "--mode", "mc", "--trials", "40", "--seed", "4"])
    assert code == 0 and (rec["trials"], rec["seed"]) == (40, 4)
    code, rec = run_json(capsys, ["cascade", "--signal", "gaussian:1", "--mode", "mc", "--n", "3", "--trials", "10"])
    assert code == 0 and rec["experiment"] == "cascade-gaussian" and rec["trials"] == 10
    # --emit-lyapunov reads --seed on the exact path too
    seeded = run_json(capsys, ["majority", "--graph", "cycle:7", "--emit-lyapunov", "--seed", "3"])[1]
    default = run_json(capsys, ["majority", "--graph", "cycle:7", "--emit-lyapunov"])[1]
    assert seeded["initial_config"] != default["initial_config"]


def test_bad_graph_spec_is_a_json_error(capsys):
    code, err = _error_record(capsys, ["degroot", "--graph", "cycle:x"])
    assert code == 2
    assert err["command"] == "degroot"
    assert err["error"].startswith("bad graph spec 'cycle:x'")


def test_oversized_graph_spec_is_refused_before_it_is_built(capsys, monkeypatch):
    # the spec names more agents (or pairs) than generate builds; nothing is built or run
    monkeypatch.setattr(network, "_undirected_pairs", lambda *a, **k: pytest.fail("pairs were built"))
    for spec, size in (("cycle:99999999999", 99999999999), ("complete:1000000", 499999500000)):
        start = time.perf_counter()
        code, err = _error_record(capsys, ["voter", "--graph", spec, "--mode", "mc", "--trials", "2"])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and err["command"] == "voter"
        assert err["error"].startswith(f"bad graph spec {spec!r}: ")
        assert f"{size} neighbour pairs" in err["error"]
        assert f"at most {network.GENERATE_MAX_SIZE} of either" in err["error"]


def test_bad_signal_spec(capsys):
    code, err = _error_record(capsys, ["cascade", "--signal", "weird:1"])
    assert code == 2
    assert err == {"command": "cascade",
                   "error": "unknown signal spec 'weird:1' (bernoulli:<d> | gaussian:<s2> | file:<path>)"}


def test_bayes_scenario_rejects_asymmetric_model(tmp_path, capsys):
    path = tmp_path / "skew.txt"
    path.write_text("2\n1/2 1/2\n1/3 2/3\n")
    for scenario in ("senate:8,5", "chain-tie:4"):
        code, err = _error_record(capsys, ["bayes", "--scenario", scenario, "--signal", f"file:{path}"])
        assert code == 2
        assert "symmetric two-letter signal model" in err["error"]
    # the symmetric file model gives the bernoulli:1/6 verdict error 17/81
    path.write_text("2\n2/3 1/3\n1/3 2/3\n")
    code, rec = run_json(capsys, ["bayes", "--scenario", "senate:8,5", "--signal", f"file:{path}"])
    assert code == 0 and rec["verdict_error"] == "17/81"


@pytest.mark.parametrize("argv, message", [
    (["bayes", "--scenario", "jury:3"], "unknown scenario 'jury:3'"),
    (["bayes", "--signal", "bernoulli:1/6"], "bayes needs --graph unless --scenario is given"),
    (["bayes", "--graph", "cycle:3", "--signal", "gaussian:1"],
     "exact forward induction needs a finite signal model"),
    (["bayes", "--graph", "cycle:3", "--signal", "weird:1"], "unknown signal spec 'weird:1'"),
    (["bayes", "--scenario", "senate:3"], "bad scenario spec 'senate:3': expected senate:<n>,<k>"),
    (["bayes", "--scenario", "chain-tie:x"], "bad scenario spec 'chain-tie:x': expected chain-tie:<n>"),
])
def test_bayes_input_errors_are_json(capsys, argv, message):
    code, err = _error_record(capsys, argv)
    assert code == 2
    assert err["command"] == "bayes"
    assert err["error"].startswith(message)


@pytest.mark.parametrize("argv", [
    ["voter-strong", "--graph", "cycle:5"],
    ["cascade", "--signal", "bernoulli:1/6", "--mode", "mc"],
    ["cascade", "--signal", "gaussian:1"],
])
def test_zero_trials_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--trials", "0"])
    assert exc.value.code == 2
    assert "argument --trials: must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["voter", "--graph", "cycle:5"],
    ["voter-strong", "--graph", "cycle:5"],
    ["degroot", "--graph", "cycle:5", "--mode", "mc"],
    ["majority", "--graph", "cycle:5", "--mode", "mc"],
    ["cascade", "--signal", "gaussian:1"],
], ids=["voter", "voter-strong", "degroot", "majority", "cascade"])
def test_negative_seed_is_refused_by_name(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--trials", "10", "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, value", [
    (["cascade", "--signal", "bernoulli:1/6"], "-3"),
    (["cascade", "--signal", "bernoulli:1/6", "--mode", "mc", "--trials", "3"], "0"),
    (["cascade", "--signal", "gaussian:1"], "-2"),
])
def test_cascade_without_agents_is_refused(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--n", value])
    assert exc.value.code == 2
    assert f"argument --n: must be at least 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["voter", "--graph", "cycle:5", "--delta", "3/4"],
    ["voter", "--graph", "cycle:5", "--delta", "-1"],
    ["voter-strong", "--graph", "cycle:5", "--delta", "2"],
])
def test_voter_samplers_refuse_delta_outside_the_half_interval(capsys, argv):
    code, err = _error_record(capsys, argv + ["--trials", "5"])
    assert code == 2
    assert err == {"command": argv[0], "error": f"delta must lie in [0, 1/2], got {argv[-1]}"}


def test_voter_samplers_take_the_ends_of_the_half_interval(capsys):
    # delta = 1/2: every signal equals S, so every trial starts at consensus S
    code, rec = run_json(capsys, ["voter-strong", "--graph", "cycle:5", "--delta", "1/2", "--trials", "20"])
    assert code == 0 and rec["mean_steps"] == 0
    code, rec = run_json(capsys, ["voter", "--graph", "cycle:5", "--delta", "0", "--trials", "20"])
    assert code == 0 and rec["trials"] == 20


def test_degroot_takes_delta_on_the_closed_half_interval(capsys):
    code, err = _error_record(capsys, ["degroot", "--graph", "cycle:6", "--delta", "3/4"])
    assert code == 2 and err == {"command": "degroot", "error": "delta must lie in [0, 1/2], got 3/4"}
    code, rec = run_json(capsys, ["degroot", "--graph", "cycle:6", "--delta", "0"])
    assert code == 0 and (rec["p_w"], rec["tie_mass"]) == ("11/32", "5/16")
    code, rec = run_json(capsys, ["degroot", "--graph", "cycle:6", "--delta", "1/2"])
    assert code == 0 and (rec["p_w"], rec["tie_mass"]) == ("1", "0")
    code, rec = run_json(capsys, ["degroot", "--graph", "cycle:6", "--delta", "1/2", "--mode", "mc", "--trials", "20"])
    assert code == 0 and rec["p_w"] == 1.0


@pytest.mark.parametrize("argv, delta", [
    (["majority", "--graph", "cycle:5", "--delta", "3/4"], "3/4"),
    (["majority", "--graph", "cycle:5", "--delta=-1/4"], "-1/4"),
    (["majority", "--graph", "cycle:5", "--delta", "3/4", "--mode", "mc", "--trials", "10"], "3/4"),
])
def test_majority_refuses_delta_outside_the_half_interval(capsys, argv, delta):
    # once these printed a negative error probability, 53/512 and 0.0
    code, err = _error_record(capsys, argv)
    assert code == 2
    assert err == {"command": "majority", "error": f"delta must lie in [0, 1/2], got {delta}"}
    with pytest.raises(ValueError, match=r"delta must lie in \[0, 1/2\]"):
        majority.retention_error(generate("cycle", 5), Fraction(delta), mode="monte_carlo", trials=10,
                                 rng=trial_rng(0, 0))


def test_majority_takes_the_ends_of_the_half_interval(capsys):
    # delta = 1/2: every signal equals S, so the MAP estimate never errs; delta = 0: it errs half the time
    for mode in (["--mode", "exact"], ["--mode", "mc", "--trials", "50"]):
        code, rec = run_json(capsys, ["majority", "--graph", "cycle:5", "--delta", "1/2"] + mode)
        assert code == 0 and Fraction(rec["iota"]) == 0
    code, rec = run_json(capsys, ["majority", "--graph", "cycle:5", "--delta", "0"])
    assert code == 0 and Fraction(rec["iota"]) == Fraction(1, 2)


def test_voter_strong_writes_delta_as_a_fraction(capsys):
    # like voter and degroot, so records of one delta compare equal across subcommands
    for flag in ("0.1", "1/10"):
        code, rec = run_json(capsys, ["voter-strong", "--graph", "cycle:5", "--delta", flag, "--trials", "20"])
        assert code == 0 and rec["delta"] == "1/10"
    code, rec = run_json(capsys, ["voter", "--graph", "cycle:5", "--delta", "0.1", "--trials", "20"])
    assert rec["delta"] == "1/10"


def _run_cli(argv, preexec_fn=None, stdout=subprocess.PIPE, **env):
    env = dict({k: v for k, v in os.environ.items() if k != "OPDYN_LOG"}, **env, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", "import sys; from opdyn import cli; code = cli.main(sys.argv[1:]); "
                           "print('logging' in sys.modules, file=sys.stderr); sys.exit(code)"] + argv,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120, check=False,
                          preexec_fn=preexec_fn)


# the children's address-space cap: with one BLAS thread the runs below fit
# in about 250 MB; a whole 20000 x 2001 float64 draw would add 305 MiB, and
# the cascade walk over all 6 million trials at once peaks near 500 MB
AS_CAP = 384 << 20


@pytest.mark.parametrize("argv", [
    ["majority", "--graph", "cycle:2001", "--mode", "mc", "--trials", "20000", "--delta", "3/10"],
    # every trial starts at consensus, so the run is little more than the signal draw
    ["voter-strong", "--graph", "cycle:2001", "--trials", "20000", "--delta", "1/2"],
    ["cascade", "--signal", "bernoulli:1/6", "--mode", "mc", "--n", "4", "--trials", "6000000"],
], ids=["majority", "voter-strong", "cascade"])
def test_large_sampling_runs_fit_a_capped_address_space(argv):
    resource = pytest.importorskip("resource")

    def cap():      # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (AS_CAP, AS_CAP))
    # OpenBLAS reserves address space per thread, so one thread keeps the cap machine-independent
    proc = _run_cli(argv, preexec_fn=cap, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr[-500:]
    assert json.loads(proc.stdout)["trials"] == int(argv[argv.index("--trials") + 1])


def test_a_reader_that_closes_stdout_early_ends_the_run_quietly():
    # as in `opdyn cascade ... | head -c 300`: the reading end is closed before the record is written
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_cli(["cascade", "--signal", "bernoulli:1/6", "--mode", "mc", "--n", "200", "--trials", "20000"],
                        stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == "False\n"        # no traceback, no "Exception ignored" from the final flush


def test_opdyn_log_debug_sends_the_records_to_stderr():
    argv = ["voter", "--graph", "cycle:5", "--trials", "300", "--seed", "4"]
    proc = _run_cli(argv, OPDYN_LOG="debug")
    assert proc.returncode == 0
    out = voter.mc_consensus(generate("cycle", 5), Fraction(1, 10), 300, seed=4)
    lines = proc.stderr.splitlines()
    assert lines[0].startswith(f"opdyn DEBUG: voter MC: n=5 trials=300 max_D=3 stage_rows=10 "
                               f"rounds={out['times'].max()} trial_rounds={out['times'].sum()} words=")
    assert lines[-1] == "True" and json.loads(proc.stdout)["trials"] == 300
    # unset, nothing imports logging and stderr stays empty
    proc = _run_cli(argv)
    assert proc.returncode == 0 and proc.stderr == "False\n"
    assert json.loads(proc.stdout)["mean_absorption_time"] == float(out["times"].mean())


def test_opdyn_log_refuses_other_values():
    proc = _run_cli(["voter", "--graph", "cycle:5", "--trials", "30"], OPDYN_LOG="verbose")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        json.dumps({"command": "voter", "error": "OPDYN_LOG must be debug or unset, got 'verbose'"}), "False"]


def test_cap_ends_as_json_with_exit_code_3(capsys):
    # a one-round horizon is too short for the chain to settle
    code, err = _error_record(capsys, ["bayes", "--scenario", "chain-tie:6", "--horizon", "1"])
    assert code == 3
    assert err == {"command": "bayes", "error": "chain run did not stabilize within the horizon"}


def test_voter_strong_refuses_a_disconnected_graph(tmp_path, capsys):
    # two 4-node paths that settle on different opinions never reach one consensus
    path = tmp_path / "split.txt"
    pairs = ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7))
    path.write_text("n 8 undirected\n" + "".join(f"{i} {j} 1\n{j} {i} 1\n" for i, j in pairs))
    code, err = _error_record(capsys, ["voter-strong", "--graph", str(path), "--trials", "5"])
    assert code == 2
    assert err == {"command": "voter-strong",
                   "error": "strong voter needs a connected network: two components never reach one consensus"}


@pytest.mark.parametrize("mode", ["mc", "exact"])
def test_voter_refuses_a_network_that_need_not_absorb(tmp_path, capsys, mode):
    # two agents that copy each other and have no self-loops can swap their actions forever
    path = tmp_path / "swap.txt"
    path.write_text("n 2 directed\n0 1 1\n1 0 1\n")
    code, err = _error_record(capsys, ["voter", "--graph", str(path), "--mode", mode])
    assert code == 2
    assert err == {"command": "voter", "error": "network fails stochastic validation: "
                                                "node 0 has no self-loop; node 1 has no self-loop"}


def test_voter_exact_refuses_delta(capsys):
    # the Monte Carlo flags are refused too, even at their defaults
    for flag, value in (("--delta", "1/5"), ("--trials", "5"), ("--seed", "3"), ("--seed", "0")):
        code, err = _error_record(capsys, ["voter", "--graph", "cycle:3", "--mode", "exact", flag, value])
        assert code == 2
        assert err["error"].startswith(f"{flag} applies to --mode mc only")


@pytest.mark.parametrize("error", [TimeoutError, RuntimeError, ArithmeticError])
def test_stopped_runs_end_as_json(monkeypatch, capsys, error):
    def stop(*_args, **_kwargs):
        raise error("stopped")
    monkeypatch.setattr(voter, "strong_voter_trials", stop)
    code, err = _error_record(capsys, ["voter-strong", "--graph", "cycle:5", "--trials", "3"])
    assert code == 3
    assert err == {"command": "voter-strong", "error": "stopped"}


@pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError, NotImplementedError, RecursionError])
def test_bugs_keep_their_traceback(monkeypatch, capsys, error):
    def bug(*_args, **_kwargs):
        raise error("bug")
    monkeypatch.setattr(voter, "strong_voter_trials", bug)
    with pytest.raises(error, match="bug"):
        cli.main(["voter-strong", "--graph", "cycle:5", "--trials", "3"])
    assert capsys.readouterr().err == ""


def test_gaussian_cascade_record(capsys):
    code, rec = run_json(capsys, ["cascade", "--signal", "gaussian:1", "--n", "5",
                                  "--trials", "400", "--seed", "3"])
    assert code == 0
    # unbounded signals never start a cascade, so the record carries no onset histogram
    assert "cascade_onset_histogram" not in rec
    assert rec["p_correct"] == list(cascade.gaussian_run(GaussianLLR(1.0), 5, 400, seed=3))


def test_gaussian_cascade_underflow_leaves_stderr_empty():
    # sigma2 = 1/100 underflows the action probabilities, so infinite public ratios appear
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "opdyn.cli", "cascade", "--signal", "gaussian:1/100",
                           "--trials", "500", "--n", "40"],
                          capture_output=True, text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert len(json.loads(proc.stdout)["p_correct"]) == 40


@pytest.mark.parametrize("argv, flag, value", [
    (["voter", "--graph", "cycle:5"], "--delta", "1/0"),
    (["voter-strong", "--graph", "cycle:5"], "--delta", "1/0"),
    (["degroot", "--graph", "cycle:5"], "--delta", "1/0"),
    (["majority", "--graph", "cycle:5"], "--delta", "1/0"),
    (["majority", "--graph", "cycle:5"], "--delta", "x"),
    (["degroot", "--graph", "cycle:3"], "--cheater", "0=1/0"),
    (["degroot", "--graph", "cycle:3"], "--cheater", "0"),
    (["degroot", "--graph", "cycle:3"], "--cheater", "a=1"),
    (["degroot", "--graph", "cycle:3"], "--delta", "1e-100000"),
    (["degroot", "--graph", "cycle:3"], "--cheater", "0=1e-100000"),
], ids=["voter", "voter-strong", "degroot", "majority", "majority-word", "cheater-value", "cheater-no-value",
        "cheater-agent", "delta-digits", "cheater-digits"])
def test_bad_rationals_are_refused_by_flag(capsys, argv, flag, value):
    # 1/0 once ended in a ZeroDivisionError traceback, and 1e-100000 in Python's int limit, naming no flag
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected " in err
    if value.endswith("1e-100000"):
        assert "the rational '1e-100000' needs more than 4300 digits" in err


def test_bad_signal_specs_are_named(tmp_path, capsys):
    junk = tmp_path / "junk.txt"
    junk.write_text("myhost\n")
    missing = tmp_path / "missing.txt"
    long = tmp_path / "long.txt"
    long.write_text("2\n1/2 1/2\n1e-100000 1\n")
    digits = "the rational '1e-100000' needs more than 4300 digits"
    uneven = tmp_path / "uneven.txt"        # 4 rationals in all, but in rows of 3 and 1
    uneven.write_text("2\n1/2 1/2 1/3\n2/3\n")
    short = tmp_path / "short.txt"
    short.write_text("# a comment\n2\n\n1/2 1/2\n1/3\n")
    extra = tmp_path / "extra.txt"
    extra.write_text("2\n1/2 1/2\n1/3 2/3\n1/2 1/2\n")
    empty_alphabet = tmp_path / "empty_alphabet.txt"
    empty_alphabet.write_text("0\n1\n1\n")
    for argv, spec, reason in (
            (["cascade"], "bernoulli:1/0", "Fraction(1, 0)"),
            (["cascade"], "gaussian:1/0", "Fraction(1, 0)"),
            (["cascade"], "bernoulli:1e-100000", digits),
            (["cascade"], "gaussian:1e-100000", digits),
            (["cascade"], f"file:{long}", f"line 3: {digits}"),
            (["cascade"], f"file:{uneven}", "line 2: expected 2 rationals, got 3"),
            (["cascade"], f"file:{short}", "line 5: expected 2 rationals, got 1"),
            (["cascade"], f"file:{extra}", "line 4: expected 2 lines of 2 rationals after the size, got 3"),
            (["cascade"], f"file:{empty_alphabet}", "line 1: an alphabet needs at least 1 letter, got 0"),
            (["cascade"], f"file:{missing}", "No such file"),
            (["bayes", "--graph", "cycle:3"], f"file:{missing}", "No such file"),
            (["cascade"], f"file:{junk}", "line 1: invalid literal for int()")):
        code, err = _error_record(capsys, argv + ["--signal", spec])
        assert code == 2 and err["command"] == argv[0]
        assert err["error"].startswith(f"bad signal spec {spec!r}: ") and reason in err["error"]


def test_bayes_horizon_must_be_positive(capsys):
    # --horizon 0 once ran the default horizon without a word
    with pytest.raises(SystemExit) as exc:
        cli.main(["bayes", "--graph", "cycle:3", "--horizon", "0"])
    assert exc.value.code == 2
    assert "argument --horizon: must be at least 1, got 0" in capsys.readouterr().err


def test_cheater_outside_the_network_is_named(capsys):
    # once reported as a singular system
    code, err = _error_record(capsys, ["degroot", "--graph", "cycle:3", "--cheater", "9=1"])
    assert code == 2
    assert err == {"command": "degroot", "error": "cheater 9 is not an agent: the network has agents 0 .. 2"}
    code, rec = run_json(capsys, ["degroot", "--graph", "cycle:3", "--cheater", "0=1/2", "--cheater", "2=0"])
    assert code == 0 and rec["limits_exact"] == {"0": "1/2", "1": "1/4", "2": "0"}


@pytest.mark.parametrize("weights, faults", [
    ("0 0 1/2\n0 1 1/4\n1 0 1/2\n1 1 1/2\n2 2 1\n", "graph is not strongly connected; row 0 sums to 3/4, not 1"),
    ("0 0 1/2\n0 1 1/2\n1 0 1/2\n1 1 1/2\n2 0 1/2\n2 2 1/2\n", "graph is not strongly connected"),
], ids=["short row, agent 2 unreached", "stochastic, agent 2 unreached"])
def test_cheater_limits_validate_the_network(tmp_path, capsys, weights, faults):
    # once limits 0 and 0 for the first file, and a bare "singular system" for the second
    path = tmp_path / "g.txt"
    path.write_text("n 3 directed\n" + weights)
    code, err = _error_record(capsys, ["degroot", "--graph", str(path), "--cheater", "2=1"])
    assert code == 2
    assert err == {"command": "degroot", "error": f"network fails stochastic validation: {faults}"}


def test_cheater_limits_refuse_more_agents_than_the_exact_cap(capsys):
    # the cap of the dense stationary solve; far above it, numpy once failed to allocate the dense system
    n = network.EXACT_SOLVE_MAX_N + 1
    start = time.perf_counter()
    code, err = _error_record(capsys, ["degroot", "--graph", f"cycle:{n}", "--cheater", "0=1"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err == {"command": "degroot",
                   "error": f"exact cheater limits are solved only for n <= {network.EXACT_SOLVE_MAX_N} (n={n})"}


def test_exact_p_w_refuses_more_agents_than_the_exact_cap_before_it_solves(capsys):
    # once the refusal came after 3 s of power iteration on chain:400
    start = time.perf_counter()
    code, err = _error_record(capsys, ["degroot", "--graph", "chain:400"])
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert err == {"command": "degroot", "error": "exact p_w needs an exact stationary distribution, which is "
                                                  f"solved only for n <= {network.EXACT_SOLVE_MAX_N} (n=400)"}


@pytest.mark.parametrize("spec, message", [
    ("random_regular:20:4:-1", "random_regular needs an integer seed >= 0, got -1"),
    # a simple 16-regular pairing on 40 agents has probability about e^-64; the budget once took 2.2 s to run out
    ("random_regular:40:16:1", "the pairing sampler drew 10000 pairings without a connected simple 16-regular "
                               "graph on 40 nodes and gave up; such graphs may exist"),
])
def test_random_regular_refusals_name_the_spec(capsys, spec, message):
    start = time.perf_counter()
    code, err = _error_record(capsys, ["degroot", "--graph", spec])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err == {"command": "degroot", "error": f"bad graph spec {spec!r}: {message}"}


@pytest.mark.parametrize("spec, message", [
    ("cycle:7:junk", "expected kind:n, or random_regular:n:d[:seed]"),
    ("grid:9:2", "expected kind:n, or random_regular:n:d[:seed]"),
    ("random_regular:20:4:1:extra", "expected random_regular:n:d[:seed]"),
    ("random_regular:20", "expected random_regular:n:d[:seed]"),
])
def test_graph_specs_refuse_extra_fields(capsys, spec, message):
    # the extra fields were once dropped without a word, and a missing d ended in "list index out of range"
    code, err = _error_record(capsys, ["degroot", "--graph", spec])
    assert code == 2
    assert err == {"command": "degroot", "error": f"bad graph spec {spec!r}: {message}"}


def test_undirected_is_read_off_the_edges(tmp_path, capsys):
    # the directed circulant i -> i, i + 1, i + 2 (mod 5) once ran majority to iota = 181/3125 under an
    # `undirected` header, though 10 of its 32 starts still cycle with period 5 after 60 rounds
    circ5 = tmp_path / "circ5.txt"
    arcs = "".join(f"{i} {(i + k) % 5} 1/3\n" for i in range(5) for k in range(3))
    circ5.write_text("n 5 undirected\n" + arcs)
    for command in ("majority", "voter-strong"):
        code, err = _error_record(capsys, [command, "--graph", str(circ5)])
        assert code == 2
        assert err == {"command": command, "error": f"bad graph spec {str(circ5)!r}: line 3: the header says "
                                                    f"undirected, but edge (0,1) has no reverse (1,0)"}
    # the same edges under `directed`: read, then refused by the dynamics that need a symmetric edge set
    circ5.write_text("n 5 directed\n" + arcs)
    for command in ("majority", "voter-strong"):
        code, err = _error_record(capsys, [command, "--graph", str(circ5)])
        assert code == 2
        assert err == {"command": command, "error": "the network is not undirected: edge (0,1) has no reverse (1,0)"}
    # a symmetric file is undirected whatever its header: the complete graph on 3 agents, self-loops included
    triangle = tmp_path / "triangle.txt"
    triangle.write_text("n 3 directed\n" + "".join(f"{i} {j} 1/3\n" for i in range(3) for j in range(3)))
    code, rec = run_json(capsys, ["majority", "--graph", str(triangle)])
    assert code == 0 and rec["iota"] == str(majority.retention_error(generate("complete", 3), Fraction(3, 10)))
    # an `undirected` header is checked as the file is read, whatever runs on it
    lopsided = tmp_path / "lopsided.txt"
    lopsided.write_text("n 2 undirected\n0 0 1/2\n0 1 1/2\n1 1 1\n")
    code, err = _error_record(capsys, ["degroot", "--graph", str(lopsided)])
    assert code == 2
    assert err == {"command": "degroot", "error": f"bad graph spec {str(lopsided)!r}: line 3: the header says "
                                                  f"undirected, but edge (0,1) has no reverse (1,0)"}


# -- fuzzing the front door ---------------------------------------------------

JUNK_RATIONALS = ["-1/5", "1/0", "x", "nan", "inf", "1e-100000", ""]


def _mostly(valid, junk):
    """valid nine draws in ten, else junk."""
    return st.integers(0, 9).flatmap(lambda k: valid if k else junk)


RATIONALS = _mostly(st.sampled_from(["0", "1", "1/10", "1/6", "0.3", "1/2", "2.5e-1", "3/5", "0.125"]),
                    st.sampled_from(JUNK_RATIONALS))
SMALL_INTS = _mostly(st.integers(1, 6).map(str), st.sampled_from(["0", "-1", "x"]))


@st.composite
def _graph_files(draw, folder):
    """A graph file of at most 6 agents: lazy rows with each weight 1/d spelled as p/q or, where it ends, as a
    decimal; now and then a junk weight, an agent out of range, a malformed line or a header count of 0."""
    n = draw(st.integers(1, 6))
    arcs = {(i, i) for i in range(n)} | {(i, (i + 1) % n) for i in range(n)}
    arcs |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    lines = [f"n {draw(_mostly(st.just(n), st.just(0)))} {draw(st.sampled_from(['directed', 'undirected']))}"]
    for i in range(n):
        out = sorted(j for a, j in arcs if a == i)
        d = len(out)
        spellings = [f"1/{d}"] + ([str(1 / d)] if 10 ** 6 % d == 0 else [])
        for j in out:
            w = draw(_mostly(st.sampled_from(spellings), st.sampled_from(JUNK_RATIONALS + [repr(1 / d)])))
            lines.append(f"{i if draw(st.integers(0, 30)) else i + n} {j} {w}")
    if not draw(st.integers(0, 9)):
        lines.append(draw(st.sampled_from(["0 1", "a b c", "0 0 1 1", "# note"])))
    path = os.path.join(folder, f"g{draw(st.integers(0, 10 ** 9))}.txt")
    Path(path).write_text("\n".join(lines) + "\n")
    return path


@st.composite
def _signal_files(draw, folder):
    """A signal file of 2 or 3 letters, mostly two measures that each sum to 1."""
    k = draw(st.integers(2, 3))
    rows = [draw(_mostly(st.sampled_from([("1/3", "2/3"), ("0.5", "0.5"), ("3/4", "1/4"), ("1/2", "1/3", "1/6"),
                                          ("0.25", "0.25", "0.5")]).filter(lambda r: len(r) == k),
                         st.lists(RATIONALS, min_size=k, max_size=k))) for _ in range(2)]
    path = os.path.join(folder, f"s{draw(st.integers(0, 10 ** 9))}.txt")
    Path(path).write_text(f"{k}\n" + "\n".join(" ".join(row) for row in rows) + "\n")
    return path


def _flag_values(dest, folder):
    """The strategy for the value of the flag with this dest; a flag the fuzz does not know fails the test."""
    return {
        "graph": _mostly(st.one_of(
            st.tuples(st.sampled_from(["chain", "cycle", "star", "complete"]), st.integers(1, 6)).map(
                lambda a: f"{a[0]}:{a[1]}"),
            st.sampled_from(["grid:4", "random_regular:6:3:1", "random_regular:4:2"]), _graph_files(folder)),
            st.sampled_from(["cycle:0", "grid:5", "cycle:x", "tree:3", "missing.txt"])),
        "signal": _mostly(st.one_of(RATIONALS.map(lambda r: "bernoulli:" + r), RATIONALS.map(lambda r: "gaussian:" + r),
                                    _signal_files(folder).map(lambda p: "file:" + p)),
                          st.sampled_from(["weird:1", "file:missing.txt", "bernoulli"])),
        "delta": RATIONALS,
        "cheater": st.tuples(SMALL_INTS, RATIONALS).map("=".join),
        "scenario": _mostly(st.one_of(st.tuples(SMALL_INTS, SMALL_INTS).map(lambda a: f"senate:{a[0]},{a[1]}"),
                                      SMALL_INTS.map(lambda n: f"chain-tie:{n}")), st.just("nope:1")),
        "trials": _mostly(st.integers(1, 200).map(str), st.sampled_from(["0", "-1", "x"])),
        "seed": SMALL_INTS, "n": SMALL_INTS, "horizon": SMALL_INTS,
    }[dest]


@st.composite
def _argvs(draw, folder):
    """argv for one subcommand, built from the parser's own flags; --out and accept, which runs the gate, stay out.

    Each optional flag comes one time in three. Every size stays small: a path that samples always gets --trials,
    at most 200, and cascade always gets --n."""
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    command = draw(st.sampled_from(sorted(set(commands) - {"accept"})))
    argv = [command]
    for action in commands[command]._actions:
        if not action.option_strings or action.dest in ("help", "out"):
            continue
        flag = action.option_strings[0]
        mode = argv[argv.index("--mode") + 1] if "--mode" in argv else commands[command].get_default("mode")
        samples = mode == "mc" and "--cheater" not in argv
        if action.required or action.dest == "n" or (action.dest == "trials" and samples):
            times = 1
        else:
            times = draw(st.integers(0, 2)) == 0
        for _ in range(times):
            if action.nargs == 0:
                argv.append(flag)
            elif action.choices:
                argv += [flag, draw(st.sampled_from(list(action.choices)))]
            else:
                argv += [flag, draw(_flag_values(action.dest, folder))]
    return argv


@pytest.fixture(scope="module")
def fuzz_folder(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_front_door_never_ends_in_a_traceback(fuzz_folder, data):
    argv = data.draw(_argvs(fuzz_folder))
    # argparse refuses with its usage on stderr; every other exit is 0 with one JSON record on stdout, or
    # 2 (bad input) or 3 (a stopped run) with one JSON line on stderr
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and out.getvalue() == "" and "error: argument" in err.getvalue(), argv
            return
    assert code in (0, 2, 3), argv
    if code:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1 and json.loads(lines[0])["command"] == argv[0], argv
    else:
        assert json.loads(out.getvalue()) and err.getvalue() == "", argv
