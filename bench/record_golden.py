"""Record the golden values the benchmark checks its outputs against.

    python3 bench/record_golden.py

Writes bench/golden.json (exact values of the benchmark's own instances) and
bench/golden_gate.jsonl (the 16 registry records of `opdyn accept`, without
their runtime). Run it only when a change of an exact value is intended and
stated; otherwise the golden files stay as recorded.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from opdyn import bayes, cascade, degroot, harness, majority, network, signals  # noqa: E402


def majority_vote_error(net, delta):
    """Exact error of the majority-of-limit-actions guess, the estimator of retention's MC mode."""
    n = net.n
    p = Fraction(1, 2) + Fraction(delta)
    q = 1 - p
    votes = majority.signals_to_vote_table(net)
    plus = (majority.all_spin_configs(n) == 1).sum(axis=1)
    err = Fraction(0)
    for k, vote in zip(plus, votes):
        k = int(k)
        if vote != 1:
            err += p ** k * q ** (n - k)       # S = +1: a +1 signal matches S
        if vote != -1:
            err += q ** k * p ** (n - k)       # S = -1
    return err / 2


def main():
    c_degroot = network.generate("cycle", W.DEGROOT_N)
    pw = degroot.learning_probability(c_degroot, W.DEGROOT_DELTA)
    iota = majority.retention_error(network.generate("cycle", W.RETENTION_N), W.RETENTION_DELTA)
    casc = cascade.run_exact(signals.bernoulli_delta(W.CASCADE_DELTA), W.CASCADE_N)
    space = bayes.build_profile_space(signals.bernoulli_delta(W.BAYES_DELTA), W.BAYES_N)
    res = bayes.run_exact(network.generate("cycle", W.BAYES_N), space,
                          horizon=space.m * W.BAYES_N + 1, utility="discrete")
    mc_pw = degroot.learning_probability(network.generate("cycle", W.MC_DEGROOT_N), W.MC_DELTA)
    vote_err = majority_vote_error(network.generate("cycle", W.RETENTION_N), W.RETENTION_DELTA)
    golden = {
        "degroot_p_w": str(pw.p),
        "degroot_tie_mass": str(pw.tie_mass),
        "retention_iota": str(iota),
        "cascade_digest": W.cascade_digest(casc),
        "cascade_limit_wrong": str(casc.limit_wrong),
        "bayes_rounds": res.rounds,
        "bayes_action_digest": W.bayes_action_digest(res),
        "mc_degroot_p_w": str(mc_pw.p),
        "mc_degroot_tie_mass": str(mc_pw.tie_mass),
        "retention_vote_error": str(vote_err),
    }
    with open(W.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(W.GOLDEN_GATE, "w", encoding="utf-8") as fh:
        for _name, rec in harness.run_registry():
            body = W.record_body(rec)
            fh.write(json.dumps(body, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
