"""Spans around opdyn's public functions, for the benchmark's traced run.

Every public function defined in a layer module is wrapped, and the wrapper is
bound in every opdyn namespace that holds the function, so a call is charged
to the layer that defines the function whichever module makes it: a stationary
solve inside `degroot.learning_probability` counts for `network`. A span's
self time is its duration minus the durations of its direct child spans. The
spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

PACKAGE = "opdyn"
LAYERS = ("network", "signals", "degroot", "voter", "majority", "bayes", "cascade", "harness", "cli")

# functions whose own self time is reported, besides every layer's total
SELF_TIMES = (
    "network.stationary_distribution", "network.generate", "network.validate",
    "degroot.learning_probability", "degroot.convergence_round",
    "voter.absorption_probabilities", "voter.mc_consensus", "voter.run_strong_voter",
    "majority.retention_error", "majority.step", "majority.lyapunov", "majority.j_functional",
    "majority.influence",
    "bayes.run_exact", "bayes.build_profile_space",
    "cascade.run_exact", "cascade.gaussian_run",
    "harness.run_experiment",
    "cli.main",
)
CALLS = ("network.stationary_distribution", "bayes.run_exact")
# groups of functions reported as one self time
GROUPS = {
    "bayes.checks": ("bayes.fixation_stats", "bayes.agreement_check", "bayes.full_information_check",
                     "bayes.martingale_residuals", "bayes.refinement_violations",
                     "bayes.locality_check", "bayes.expected_utility"),
}
COUNTS = (
    "degroot.enum_vectors", "degroot.mc_trials",
    "voter.absorption_states", "voter.mc_trials", "voter.mc_trial_rounds", "voter.mc_rounds_max",
    "voter.strong_edge_updates",
    "majority.retention_configs",
    "bayes.atom_agent_rounds",
    "cascade.gaussian_agent_trials",
)


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _count_learning(tr, args, kwargs, est):
    if est.exact:
        tr.add("degroot.enum_vectors", 2 ** _arg(args, kwargs, 0, "net").n)
    else:
        tr.add("degroot.mc_trials", est.trials)


def _count_mc_consensus(tr, _args, _kwargs, out):
    tr.add("voter.mc_trials", out["trials"])
    tr.add("voter.mc_trial_rounds", int(out["times"].sum()))
    tr.peak("voter.mc_rounds_max", int(out["times"].max()))


def _count_retention(tr, args, kwargs, _err):
    if _arg(args, kwargs, 2, "mode", "exact") == "exact":
        tr.add("majority.retention_configs", 2 ** _arg(args, kwargs, 0, "net").n)
    else:
        tr.add("majority.retention_configs", _arg(args, kwargs, 3, "trials", 10000))


def _count_gaussian(tr, args, kwargs, _p):
    tr.add("cascade.gaussian_agent_trials",
           _arg(args, kwargs, 1, "n") * _arg(args, kwargs, 2, "trials"))


# counts taken from a call's arguments or its result
COUNTERS = {
    "degroot.learning_probability": _count_learning,
    "voter.absorption_probabilities": lambda tr, a, k, h: tr.add("voter.absorption_states", len(h)),
    "voter.mc_consensus": _count_mc_consensus,
    "voter.run_strong_voter": lambda tr, a, k, out: tr.add("voter.strong_edge_updates", out[1]),
    "majority.retention_error": _count_retention,
    "bayes.run_exact": lambda tr, a, k, res: tr.add(
        "bayes.atom_agent_rounds", len(res.space.entries) * res.net.n * res.rounds),
    "cascade.gaussian_run": _count_gaussian,
}


class Tracer:
    """Records spans (name, start, end, parent) while installed."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self._open = []          # [span index, seconds spent in direct children]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._patches = self._plan()

    def _plan(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, COUNTERS.get(name))
        patches = []
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    patches.append((mod, attr, obj, wrappers[id(obj)]))
        return patches

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._open
        self_s, calls = self.self_s, self.calls

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append([index, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _index, children = stack.pop()
                duration = end - start
                self_s[name] += duration - children
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        return traced

    def add(self, key, value):
        self.counts[key] += value

    def peak(self, key, value):
        self.counts[key] = max(self.counts[key], value)

    @contextmanager
    def installed(self):
        for mod, attr, _orig, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, orig, _wrapper in self._patches:
                setattr(mod, attr, orig)

    def layer_metrics(self):
        """Per-layer self times, call counts and work counts, as name -> (value, unit)."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (sum((v for k, v in self.self_s.items()
                                           if k.startswith(layer + ".")), 0.0), "s")
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
        for name, members in GROUPS.items():
            out[f"{name}.self_s"] = (sum(self.self_s.get(m, 0.0) for m in members), "s")
        for name in CALLS:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
        for name in COUNTS:
            out[name] = (self.counts.get(name, 0), "count")
        return out

    def attributed_s(self):
        return sum(self.self_s.values())

    def dump(self, origin):
        """Spans as JSON-ready data, times in seconds from origin."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[n], round(a - origin, 7), round(b - origin, 7), p]
                          for n, a, b, p in self.spans]}
