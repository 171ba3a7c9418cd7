"""Workloads of the opdyn benchmark: inputs from a seed, timed jobs, output checks.

A workload is a list of jobs. A job prepares its arguments for one pass (not
timed), calls opdyn's public functions on them (timed) and checks what they
returned (not timed). opdyn functions are always reached through their module
(``network.generate``), never imported by name, so the traced run sees every
call the workload makes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from opdyn import bayes, cascade, cli, degroot, majority, network, signals, voter

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
GOLDEN_GATE = HERE / "golden_gate.jsonl"

# Instance sizes. record_golden.py records the golden values of exactly these
# instances, so changing a size means recording the golden values again.
STATIONARY = ("random_regular", 64, 4)      # kind, n, d; topology from the seed
DEGROOT_N, DEGROOT_DELTA = 14, Fraction(1, 10)
VOTER_ABSORPTION_N = 8
RETENTION_N, RETENTION_DELTA = 15, Fraction(3, 10)
BAYES_N, BAYES_DELTA = 10, Fraction(1, 6)
CASCADE_N, CASCADE_DELTA = 200, Fraction(1, 6)

MC_DELTA = Fraction(1, 10)
MC_WIDE = (20, 30000)        # cycle n, trials: wide batches
MC_TAIL = (50, 3000)         # cycle n, trials: long tail of rounds, few trials active
STRONG_N, STRONG_TRIALS = 9, 3000     # grid
GAUSSIAN_N, GAUSSIAN_TRIALS = 50, 30000
MC_RETENTION_TRIALS = 30000
MC_DEGROOT_N, MC_DEGROOT_TRIALS = 16, 30000

WILSON_Z = 1.959963984540054   # two-sided 95%
WILSON_WIDTHS = 3              # an estimate may sit this many half-widths from its exact value


@dataclass
class Job:
    """One timed call sequence and the check of its outputs.

    ``items`` names the results that can fail separately; most jobs have one,
    the acceptance gate has one per registry experiment.
    """

    name: str
    run: Callable            # run(args) -> result; the only timed part
    check: Callable          # check(args, result, notes) -> [(item, message)]
    prepare: Callable = lambda pass_index: None
    items: tuple = ()

    def __post_init__(self):
        self.items = self.items or (self.name,)


@dataclass
class Workload:
    name: str
    jobs: list
    notes: dict = field(default_factory=dict)   # per-layer facts the checks found


# -- shared helpers ----------------------------------------------------------

def closed_form_alpha(net):
    """Stationary distribution of a lazy-uniform undirected network: |N(i)| / sum_j |N(j)|."""
    sizes = [len(net.out_neighbors(i)) for i in range(net.n)]
    total = sum(sizes)
    return [Fraction(s, total) for s in sizes]


def wilson_half_width(successes, trials):
    """Half the width of the Wilson 95% interval, clamped to [0, 1] like the registry's."""
    z = WILSON_Z
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (min(1.0, center + half) - max(0.0, center - half)) / 2


def near_exact(label, estimate, trials, exact):
    """[] if estimate lies within WILSON_WIDTHS Wilson half-widths of exact, else one message."""
    half = wilson_half_width(int(round(estimate * trials)), trials)
    if abs(estimate - float(exact)) <= WILSON_WIDTHS * half:
        return []
    return [f"{label}: estimate {estimate} is more than {WILSON_WIDTHS} half-widths "
            f"({half:.5f}) from {float(exact)}"]


def digest(values):
    """Short stable hash of a sequence of exact numbers."""
    text = ",".join(str(Fraction(v)) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cascade_digest(out):
    return digest([*out.p_correct, *out.p_cascaded_by, *out.p_wrong_cascade, out.limit_wrong])


def bayes_action_digest(res):
    return digest([a for round_actions in res.actions for agent in round_actions for a in agent])


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def load_golden_gate():
    """Registry records without runtime, keyed by experiment name."""
    with open(GOLDEN_GATE, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {rec["config"]["name"]: rec for rec in records}


def pass_rng(seed, pass_index, job_index):
    return np.random.default_rng(np.random.SeedSequence([seed, pass_index, job_index]))


def pass_seed(seed, pass_index, job_index):
    return int(np.random.SeedSequence([seed, pass_index, job_index]).generate_state(1)[0])


def _failures(name, messages):
    return [(name, m) for m in messages]


# -- exact-oracles -----------------------------------------------------------

def cascade_job(model, golden):
    """cascade.run_exact against the golden series; also the self-test's target."""
    def check(_args, out, _notes):
        msgs = []
        if cascade_digest(out) != golden["cascade_digest"]:
            msgs.append("exact cascade series differs from the golden digest")
        if str(Fraction(out.limit_wrong)) != golden["cascade_limit_wrong"]:
            msgs.append(f"limit_wrong {out.limit_wrong} != {golden['cascade_limit_wrong']}")
        return _failures("cascade.run_exact", msgs)
    return Job("cascade.run_exact", run=lambda _a: cascade.run_exact(model, CASCADE_N), check=check)


def exact_oracles(seed, golden):
    kind, n_st, d_st = STATIONARY
    rr = network.generate(kind, n_st, d=d_st, seed=seed)
    c_degroot = network.generate("cycle", DEGROOT_N)
    c_voter = network.generate("cycle", VOTER_ABSORPTION_N)
    c_retention = network.generate("cycle", RETENTION_N)
    c_bayes = network.generate("cycle", BAYES_N)
    bayes_model = signals.bernoulli_delta(BAYES_DELTA)
    cascade_model = signals.bernoulli_delta(CASCADE_DELTA)

    def check_stationary(_a, sd, _notes):
        alpha = list(sd.alpha)
        if not all(isinstance(a, Fraction) for a in alpha):
            return _failures("network.stationary_distribution", ["stationary distribution is not exact"])
        if alpha != closed_form_alpha(rr):
            return _failures("network.stationary_distribution", ["alpha differs from |N(i)| / sum_j |N(j)|"])
        return []

    def check_degroot(_a, est, _notes):
        msgs = []
        if not est.exact:
            msgs.append("p_w is not exact")
        if str(Fraction(est.p)) != golden["degroot_p_w"]:
            msgs.append(f"p_w {est.p} != golden {golden['degroot_p_w']}")
        if str(Fraction(est.tie_mass)) != golden["degroot_tie_mass"]:
            msgs.append(f"tie mass {est.tie_mass} != golden {golden['degroot_tie_mass']}")
        bound = degroot.hoeffding_success_bound(closed_form_alpha(c_degroot), DEGROOT_DELTA)
        if not float(est.p) >= bound:
            msgs.append(f"p_w {float(est.p)} below the Hoeffding bound {bound}")
        return _failures("degroot.learning_probability", msgs)

    def check_voter(_a, h, _notes):
        n = c_voter.n
        alpha = closed_form_alpha(c_voter)
        if len(h) != 1 << n:
            return _failures("voter.absorption_probabilities", [f"{len(h)} states, want {1 << n}"])
        bad = [s for s in range(1 << n)
               if h[s] != sum(a for i, a in enumerate(alpha) if (s >> i) & 1)]
        if bad:
            return _failures("voter.absorption_probabilities",
                             [f"h[s] != sum alpha_i b_i at {len(bad)} states, first {bad[0]}"])
        return []

    def check_retention(_a, iota, _notes):
        if str(Fraction(iota)) != golden["retention_iota"]:
            return _failures("majority.retention_error",
                             [f"iota {iota} != golden {golden['retention_iota']}"])
        return []

    def run_bayes(_a):
        # the path of `opdyn bayes --graph cycle:10 --signal bernoulli:1/6`
        space = bayes.build_profile_space(bayes_model, BAYES_N)
        res = bayes.run_exact(c_bayes, space, horizon=space.m * BAYES_N + 1, utility="discrete")
        agree = bayes.agreement_check(res)
        stats = bayes.fixation_stats(res) if res.stabilized else None
        return res, agree, stats

    def check_bayes(_a, out, _notes):
        res, agree, stats = out
        msgs = []
        if (res.rounds, res.stabilized) != (golden["bayes_rounds"], True):
            msgs.append(f"rounds/stabilized {res.rounds}/{res.stabilized}, "
                        f"want {golden['bayes_rounds']}/True")
        if bayes_action_digest(res) != golden["bayes_action_digest"]:
            msgs.append("action table differs from the golden digest")
        if not agree["agree"]:
            msgs.append("limit utilities disagree")
        if stats is None or not stats["bound_ok"]:
            msgs.append("fixation bound M*n not certified")
        return _failures("bayes.run_exact", msgs)

    jobs = [
        Job("network.stationary_distribution",
            run=lambda _a: network.stationary_distribution(rr), check=check_stationary),
        Job("degroot.learning_probability",
            run=lambda _a: degroot.learning_probability(c_degroot, DEGROOT_DELTA),
            check=check_degroot),
        Job("voter.absorption_probabilities",
            run=lambda _a: voter.absorption_probabilities(c_voter), check=check_voter),
        Job("majority.retention_error",
            run=lambda _a: majority.retention_error(c_retention, RETENTION_DELTA),
            check=check_retention),
        Job("bayes.run_exact", run=run_bayes, check=check_bayes),
        cascade_job(cascade_model, golden),
    ]
    return Workload("exact-oracles", jobs)


# -- monte-carlo -------------------------------------------------------------

def monte_carlo(seed, golden):
    c_wide = network.generate("cycle", MC_WIDE[0])
    c_tail = network.generate("cycle", MC_TAIL[0])
    grid = network.generate("grid", STRONG_N)
    c_retention = network.generate("cycle", RETENTION_N)
    c_degroot = network.generate("cycle", MC_DEGROOT_N)
    gaussian = signals.GaussianLLR(sigma2=1.0)
    plateau = Fraction(load_golden_gate()["cascade-bounded"]["exact"]["plateau"])
    target = Fraction(1, 2) + MC_DELTA   # P(consensus = S) on a cycle: sum_i alpha_i P(psi_i = S)

    def consensus_job(index, net, trials):
        label = f"voter.mc_consensus.cycle{net.n}"

        def check(_seed, out, _notes):
            if out["trials"] != trials or len(out["times"]) != trials:
                return _failures(label, ["wrong trial count"])
            return _failures(label, near_exact(label, out["matches"] / trials, trials, target))
        return Job(label, prepare=lambda p: pass_seed(seed, p, index),
                   run=lambda s: voter.mc_consensus(net, MC_DELTA, trials, seed=s), check=check)

    def prepare_strong(p):
        # the per-trial draws of `opdyn voter-strong`: S, then psi_i = S w.p. 1/2 + delta
        cases = []
        children = np.random.SeedSequence([seed, p, 2]).spawn(STRONG_TRIALS)
        for child in children:
            rng = np.random.default_rng(child)
            s = int(rng.integers(0, 2))
            bits = rng.random(STRONG_N) < 0.5 + float(MC_DELTA)
            cases.append((tuple(int(b) if s else 1 - int(b) for b in bits), rng))
        return cases

    def check_strong(cases, outs, _notes):
        # grid:9 has odd n, so every signal vector has a strict majority
        if len(outs) != len(cases):
            return _failures("voter.run_strong_voter", [f"{len(outs)} results for {len(cases)} trials"])
        lost = sum(1 for (sig, _rng), (value, _t) in zip(cases, outs)
                   if value != (1 if 2 * sum(sig) > STRONG_N else 0))
        if lost:
            return _failures("voter.run_strong_voter", [f"strict majority lost in {lost} trials"])
        return []

    def check_gaussian(_seed, p_correct, _notes):
        p = np.asarray(p_correct, dtype=float)
        if p.shape != (GAUSSIAN_N,) or not np.all((p >= 0) & (p <= 1)):
            return _failures("cascade.gaussian_run", ["accuracies are not probabilities"])
        last = float(p[-1])
        half = wilson_half_width(int(round(last * GAUSSIAN_TRIALS)), GAUSSIAN_TRIALS)
        if not last - WILSON_WIDTHS * half > plateau:
            return _failures("cascade.gaussian_run",
                             [f"last accuracy {last} does not beat the bounded plateau {float(plateau)}"])
        return []

    def check_retention(_rng, err, _notes):
        return _failures("majority.retention_error.mc", near_exact(
            "majority vote error", err, MC_RETENTION_TRIALS, Fraction(golden["retention_vote_error"])))

    def check_degroot(_rng, est, _notes):
        msgs = near_exact("p_w", est.p, MC_DEGROOT_TRIALS, Fraction(golden["mc_degroot_p_w"]))
        msgs += near_exact("tie mass", est.tie_mass, MC_DEGROOT_TRIALS,
                           Fraction(golden["mc_degroot_tie_mass"]))
        return _failures("degroot.learning_probability.mc", msgs)

    jobs = [
        consensus_job(0, c_wide, MC_WIDE[1]),
        consensus_job(1, c_tail, MC_TAIL[1]),
        Job("voter.run_strong_voter", prepare=prepare_strong,
            run=lambda cases: [voter.run_strong_voter(grid, sig, rng) for sig, rng in cases],
            check=check_strong),
        Job("cascade.gaussian_run", prepare=lambda p: pass_seed(seed, p, 3),
            run=lambda s: cascade.gaussian_run(gaussian, GAUSSIAN_N, GAUSSIAN_TRIALS, seed=s),
            check=check_gaussian),
        Job("majority.retention_error.mc", prepare=lambda p: pass_rng(seed, p, 4),
            run=lambda rng: majority.retention_error(c_retention, RETENTION_DELTA, mode="monte_carlo",
                                                     trials=MC_RETENTION_TRIALS, rng=rng),
            check=check_retention),
        Job("degroot.learning_probability.mc", prepare=lambda p: pass_rng(seed, p, 5),
            run=lambda rng: degroot.learning_probability(c_degroot, MC_DELTA, mode="monte_carlo",
                                                         trials=MC_DEGROOT_TRIALS, rng=rng),
            check=check_degroot),
    ]
    return Workload("monte-carlo", jobs)


# -- accept-gate -------------------------------------------------------------

def diff_gate(records, golden_gate):
    """Failures of the registry records against the golden ones, and the estimate drift.

    A record fails if it is missing, if one of its assertions failed, or if its
    `exact` or `assertions` map differs from the golden record. Changed
    `estimates` only count towards the drift.
    """
    failures = []
    drift = 0
    for name, want in golden_gate.items():
        got = records.get(name)
        if got is None:
            failures.append((name, "no record"))
            continue
        failed = sorted(k for k, ok in got["assertions"].items() if not ok)
        if failed:
            failures.append((name, f"failed assertions {failed}"))
        if got["exact"] != want["exact"]:
            keys = sorted(k for k in set(got["exact"]) | set(want["exact"])
                          if got["exact"].get(k) != want["exact"].get(k))
            failures.append((name, f"exact values differ: {keys}"))
        if got["assertions"] != want["assertions"]:
            failures.append((name, "assertion set differs from the golden record"))
        estimates = set(got["estimates"]) | set(want["estimates"])
        drift += sum(got["estimates"].get(k) != want["estimates"].get(k) for k in estimates)
    return failures, drift


def _plain(obj):
    """JSON encoder fallback: numpy scalars become Python numbers and bools."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def record_body(rec):
    """A ResultRecord as the JSON-compatible dict the golden gate file holds (no runtime)."""
    body = {"config": dataclasses.asdict(rec.config), "estimates": rec.estimates,
            "exact": rec.exact, "intervals": rec.intervals, "assertions": rec.assertions}
    return json.loads(json.dumps(body, sort_keys=True, default=_plain))


def accept_gate():
    """`opdyn accept` in-process with stdout captured; the registry fixes its own seeds.

    The records are taken from the `run_experiment` calls the CLI makes rather
    than from `accept --out`, whose JSON encoding fails on numpy booleans.
    """
    golden_gate = load_golden_gate()

    def run(_args):
        records = []
        inner = cli.run_experiment

        def recording(config):
            rec = inner(config)
            records.append(rec)
            return rec

        buf = io.StringIO()
        cli.run_experiment = recording
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(["accept"])
        finally:
            cli.run_experiment = inner
        return code, buf.getvalue(), records

    def check(_args, out, notes):
        code, text, records = out
        by_name = {rec.config.name: record_body(rec) for rec in records}
        failures, drift = diff_gate(by_name, golden_gate)
        printed = {line.split()[1] for line in text.splitlines() if line.startswith("PASS ")}
        failures += [(name, "no PASS line") for name in golden_gate if name not in printed]
        if code != 0:
            failures.append((next(iter(golden_gate)), f"accept exited with {code}"))
        notes["gate_records"] = by_name
        notes["harness.estimate_drift"] = drift
        for rec in records:
            notes[f"harness.experiment_s.{rec.config.name}"] = rec.runtime
        return failures

    return Workload("accept-gate", [Job("cli.main.accept", run=run, check=check,
                                        items=tuple(golden_gate))])


MAKERS = {
    "exact-oracles": lambda seed: exact_oracles(seed, load_golden()),
    "monte-carlo": lambda seed: monte_carlo(seed, load_golden()),
    "accept-gate": lambda _seed: accept_gate(),
}


def build(name, seed):
    """The workload's jobs, with every input built from the seed."""
    if name not in MAKERS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(MAKERS)}")
    return MAKERS[name](seed)
