"""The opdyn benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload exact-oracles --seed 1 --seconds 25 --trace 0

Workloads: exact-oracles, monte-carlo, accept-gate (see bench/README.md).
With --trace 0 the run repeats whole passes over the workload's jobs for about
--seconds and reports run_s, setup_s, peak_rss_mb and passed_frac. With
--trace 1 it makes a warm-up pass, a traced pass and an untraced pass,
measures the exact frontier and reports the per-layer metrics. Every output
is checked. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A traced run writes its spans to .bench_out/
in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("exact-oracles", "monte-carlo", "accept-gate")
SETUP_SAMPLES = 7        # fresh-process set-ups per run: this process and six children


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up time and exit (used for setup_s)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def set_up(workload, seed):
    """Import opdyn from this checkout and build the workload's inputs."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import opdyn
    if Path(opdyn.__file__).resolve().parent != SRC / "opdyn":
        raise SystemExit(f"error: imported opdyn from {opdyn.__file__}, not from {SRC}")
    import workloads
    built = workloads.build(workload, seed)
    return built, perf_counter() - start


def setup_probes(args, count):
    """Set-up times of `count` fresh child processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Ledger:
    """Runs jobs and counts attempted and failed results."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def run(self, job, pass_index, notes, tracer=None):
        """Prepare, time and check one job; returns its timed seconds."""
        args = job.prepare(pass_index)
        failures = None
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = perf_counter()
            try:
                result = job.run(args)
            except Exception as exc:     # a cap, a timeout or a failed certification fails the job
                failures = [(item, f"raised {type(exc).__name__}: {exc}") for item in job.items]
            elapsed = perf_counter() - start
        if failures is None:
            try:
                failures = job.check(args, result, notes)
            except Exception as exc:     # output of the wrong shape
                failures = [(job.items[0], f"check raised {type(exc).__name__}: {exc}")]
        self.attempted += len(job.items)
        self.failed += min(len({item for item, _ in failures}), len(job.items))
        self.messages += [f"{job.name}: {item}: {msg}" for item, msg in failures]
        return elapsed


def timed_passes(workload, seconds, ledger):
    """Whole passes until `seconds` are spent; each job's median timed seconds."""
    times = {job.name: [] for job in workload.jobs}
    start = perf_counter()
    passes = 0
    while True:
        for job in workload.jobs:
            times[job.name].append(ledger.run(job, passes, workload.notes))
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes / 2 >= seconds:   # start no pass that would end well past it
            break
    medians = {name: statistics.median(t) for name, t in times.items()}
    return medians, passes


def end_to_end(args, workload, own_setup_s, ledger):
    setup_samples = [own_setup_s] + setup_probes(args, SETUP_SAMPLES - 1)
    job_s, passes = timed_passes(workload, args.seconds, ledger)
    metrics = {
        "run_s": (sum(job_s.values()), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "passed_frac": (1 - ledger.failed / ledger.attempted, "frac"),
    }
    return metrics, {"passes": passes, "job_s": job_s, "setup_samples": setup_samples}


def per_layer(args, workload, ledger):
    import frontier
    import tracing
    import workloads

    # the first pass warms the heap and caches; the traced pass and the untraced
    # pass it is compared with both come after it and repeat its inputs
    for job in workload.jobs:
        ledger.run(job, 0, {})
    tracer = tracing.Tracer()
    origin = perf_counter()
    traced = sum(ledger.run(job, 0, {}, tracer) for job in workload.jobs)
    untraced = sum(ledger.run(job, 0, workload.notes) for job in workload.jobs)
    metrics = tracer.layer_metrics()
    # registry runtimes and drift come from the untraced pass
    for name in workloads.load_golden_gate():
        key = f"harness.experiment_s.{name}"
        metrics[key] = (workload.notes.get(key, 0.0), "s")
    metrics["harness.estimate_drift"] = (workload.notes.get("harness.estimate_drift", 0), "count")
    metrics["trace.run_s"] = (traced, "s")
    metrics["trace.untraced_run_s"] = (untraced, "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "frac")
    metrics["trace.attributed_frac"] = (tracer.attributed_s() / traced, "frac")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    frontier_metrics, reasons = frontier.measure(args.seed)
    metrics.update(frontier_metrics)
    return metrics, {"frontier": reasons, **tracer.dump(origin)}


def self_test(workload):
    """Plant corrupted exact values and count how many the checks fail: (planted, caught)."""
    import workloads
    from opdyn import signals

    golden = workloads.load_golden()
    golden["cascade_limit_wrong"] = str(Fraction(golden["cascade_limit_wrong"]) + Fraction(1, 10 ** 9))
    ledger = Ledger()
    ledger.run(workloads.cascade_job(signals.bernoulli_delta(workloads.CASCADE_DELTA), golden), 0, {})
    planted, caught = 1, ledger.failed
    records = workload.notes.get("gate_records")
    if records:
        gate = workloads.load_golden_gate()
        name = next(n for n, rec in gate.items() if rec["exact"])
        key = sorted(gate[name]["exact"])[0]
        gate[name]["exact"][key] = str(Fraction(gate[name]["exact"][key]) + Fraction(1, 10 ** 9))
        clean, _drift = workloads.diff_gate(records, workloads.load_golden_gate())
        corrupted, _drift = workloads.diff_gate(records, gate)
        planted += 1
        caught += any(item == name for item, _msg in set(corrupted) - set(clean))
    return planted, caught


def git_commit():
    """The checked-out commit, or None outside a git checkout or without git."""
    if not (ROOT / ".git").exists():     # do not report the commit of an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines():
    """`wc -l src/opdyn/*.py`."""
    return sum(p.read_bytes().count(b"\n") for p in (SRC / "opdyn").glob("*.py"))


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "opdyn" / "__init__.py").is_file():
        print(f"error: no opdyn package at {SRC / 'opdyn'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.pop("OPDYN_WORKERS", None)
    workload, own_setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0
    import numpy

    ledger = Ledger()
    if args.trace:
        metrics, detail = per_layer(args, workload, ledger)
    else:
        metrics, detail = end_to_end(args, workload, own_setup_s, ledger)
    planted, caught = self_test(workload)
    if args.trace:
        metrics["selftest.corrupt_caught"] = (caught, "count")
        metrics["code.src_lines"] = (src_lines(), "lines")
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "cores": os.cpu_count(), "commit": git_commit(), "src_lines": src_lines(),
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "metrics": {k: v for k, (v, _u) in metrics.items()},
                       "failures": ledger.messages, **detail}, fh)
        detail = {"frontier": detail["frontier"], "trace_file": str(path.relative_to(ROOT))}
    for msg in ledger.messages:
        print(f"FAILED {msg}", file=sys.stderr)
    if caught < planted:
        print(f"FAILED self-test: {planted - caught} of {planted} corrupted values went unnoticed",
              file=sys.stderr)
    declared = declared_metrics(args.trace)
    emitted = {name: unit for name, (_v, unit) in metrics.items()}
    if emitted != declared:
        print(f"error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(emitted.items()) ^ set(declared.items()))}", file=sys.stderr)
        return 3
    print(json.dumps({"env": env, **detail}))
    print(json.dumps({
        "correct": ledger.failed == 0 and caught == planted,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
