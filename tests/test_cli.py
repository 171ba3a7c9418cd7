import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from opdyn import cascade, cli, majority, voter
from opdyn.network import generate, write_network
from opdyn.signals import GaussianLLR, bernoulli_delta, trial_rng, write_signal_model
from oracles import scalar_j_functional, scalar_lyapunov, scalar_step


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
    code, rec = run_json(capsys, ["voter", "--graph", "chain:3", "--exact"])
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
    # the flags nothing read are gone
    for argv in (["voter", "--graph", "cycle:3", "--horizon", "5"],
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
    for _ in range(len(net.undirected_edge_list()) + 2):
        traj.append(scalar_step(net, traj[-1]))
    series = [{"t": t,
               "L": scalar_lyapunov(net, traj[t], traj[t + 1]),
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


def test_float_weights_rejected_by_exact_oracles(tmp_path, capsys):
    path = tmp_path / "decimal.txt"
    path.write_text("n 2 directed\n0 0 1/2\n0 1 1/2\n1 0 0.25\n1 1 0.75\n")
    for argv in (["voter", "--graph", str(path), "--exact"], ["degroot", "--graph", str(path)]):
        code, err = _error_record(capsys, argv)
        assert code == 2
        assert "edge (1,0) has the float weight 0.25" in err["error"]


def test_bad_graph_spec_is_a_json_error(capsys):
    code, err = _error_record(capsys, ["degroot", "--graph", "cycle:x"])
    assert code == 2
    assert err["command"] == "degroot"
    assert err["error"].startswith("bad graph spec 'cycle:x'")


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


def test_cap_ends_as_json_with_exit_code_3(tmp_path, capsys):
    # two agents that copy each other and have no self-loops swap their actions forever
    path = tmp_path / "swap.txt"
    path.write_text("n 2 directed\n0 1 1\n1 0 1\n")
    code, err = _error_record(capsys, ["voter", "--graph", str(path), "--trials", "5"])
    assert code == 3
    assert err == {"command": "voter", "error": "3 trials unabsorbed after 800 rounds"}


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
