"""Command-line front door: one subcommand per dynamic plus `accept`.

Graphs come from a file (see network.read_network) or a shorthand like
``cycle:7`` / ``random_regular:20:4:seed``. Signal models come from
``bernoulli:<delta>``, ``gaussian:<sigma2>`` or ``file:<path>``. Every
subcommand emits a single JSON record to stdout or ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import bayes, cascade, degroot, majority, voter
from .harness import experiment_names, registry, run_experiment
from .harness_util import wilson_interval
from .network import generate, read_network, stationary_distribution, validate
from .signals import FiniteModel, GaussianLLR, bernoulli_delta, read_signal_model, trial_rng


def _load_graph(spec):
    try:
        if ":" in spec:
            parts = spec.split(":")
            kind = parts[0]
            n = int(parts[1])
            if kind == "random_regular":
                d = int(parts[2])
                seed = int(parts[3]) if len(parts) > 3 else 0
                return generate(kind, n, d=d, seed=seed)
            return generate(kind, n)
        return read_network(spec)
    except (ValueError, IndexError, OSError) as exc:
        raise ValueError(f"bad graph spec {spec!r}: {exc}") from exc


def _load_signal(spec):
    kind, _, rest = spec.partition(":")
    if kind == "bernoulli":
        return bernoulli_delta(Fraction(rest))
    if kind == "gaussian":
        return GaussianLLR(sigma2=float(Fraction(rest)))
    if kind == "file":
        return read_signal_model(rest)
    raise ValueError(f"unknown signal spec {spec!r} (bernoulli:<d> | gaussian:<s2> | file:<path>)")


def _emit(record, out):
    text = json.dumps(record, indent=2, sort_keys=True, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_cheaters(specs):
    out = {}
    for item in specs or []:
        i, _, v = item.partition("=")
        out[int(i)] = Fraction(v)
    return out


def _cmd_degroot(args):
    net = _load_graph(args.graph)
    cheaters = _parse_cheaters(args.cheater)
    if cheaters:
        exact = degroot.cheater_limit_exact(net, set(cheaters))
        limits = {i: str(cheaters[i]) if i in cheaters
                  else str(sum(Fraction(v) * exact[i][c] for c, v in cheaters.items()))
                  for i in range(net.n)}
        _emit({"experiment": "degroot-cheaters", "graph": args.graph,
               "cheaters": {str(i): str(v) for i, v in cheaters.items()},
               "limits_exact": limits}, args.out)
        return 0
    delta = Fraction(args.delta)
    if args.mode == "exact":
        est = degroot.learning_probability(net, delta, mode="exact_enumeration")
        _emit({"experiment": "degroot-learning", "graph": args.graph,
               "delta": str(delta), "mode": "exact",
               "p_w": str(est.p), "tie_mass": str(est.tie_mass)}, args.out)
    else:
        rng = trial_rng(args.seed, 0)
        est = degroot.learning_probability(net, delta, mode="monte_carlo",
                                           trials=args.trials, rng=rng)
        _emit({"experiment": "degroot-learning", "graph": args.graph,
               "delta": str(delta), "mode": "mc", "trials": args.trials,
               "seed": args.seed, "p_w": est.p,
               "wilson95": est.ci}, args.out)
    return 0


def _cmd_voter(args):
    net = _load_graph(args.graph)
    delta = Fraction(args.delta)
    if args.exact or args.mode == "exact":
        h = voter.absorption_probabilities(net)
        alpha = stationary_distribution(net).alpha
        table = {format(s, f"0{net.n}b")[::-1]: str(p) for s, p in sorted(h.items())}
        _emit({"experiment": "voter-absorption", "graph": args.graph, "mode": "exact",
               "alpha": [str(a) for a in alpha],
               "p_consensus_one_by_state": table}, args.out)
        return 0
    out = voter.mc_consensus(net, delta, args.trials, seed=args.seed)
    lo, hi = wilson_interval(out["matches"], out["trials"])
    _emit({"experiment": "voter-consensus", "graph": args.graph, "mode": "mc",
           "delta": str(delta), "trials": args.trials, "seed": args.seed,
           "p_match_signal_state": out["matches"] / out["trials"],
           "wilson95": [lo, hi],
           "mean_absorption_time": float(out["times"].mean())}, args.out)
    return 0


def _cmd_voter_strong(args):
    net = _load_graph(args.graph)
    delta = float(Fraction(args.delta))
    rng = trial_rng(args.seed, 0)
    s = rng.integers(0, 2, size=args.trials)[:, None]
    match = rng.random((args.trials, net.n)) < 0.5 + delta
    signals = match == (s == 1)                 # the signal is s where it matches
    values, steps = voter.strong_voter_trials(net, signals, rng)
    k = signals.sum(axis=1)
    strict = 2 * k != net.n
    won = values[strict] == (2 * k[strict] > net.n)
    _emit({"experiment": "voter-strong", "graph": args.graph, "delta": args.delta,
           "trials": args.trials, "seed": args.seed,
           "p_consensus_one": float(values.mean()),
           "p_majority_wins_given_strict": float(won.mean()) if strict.any() else None,
           "mean_steps": float(steps.mean())}, args.out)
    return 0


def _cmd_majority(args):
    net = _load_graph(args.graph)
    delta = Fraction(args.delta)
    record = {"experiment": "majority-retention", "graph": args.graph,
              "delta": str(delta), "mode": args.mode}
    if args.mode == "exact":
        record["iota"] = str(majority.retention_error(net, delta, mode="exact"))
    else:
        rng = trial_rng(args.seed, 0)
        record["iota"] = majority.retention_error(net, delta, mode="monte_carlo",
                                                 trials=args.trials, rng=rng)
        record["trials"] = args.trials
        record["seed"] = args.seed
    if args.emit_lyapunov:
        rng = trial_rng(args.seed, 1)
        config = [int(v) for v in (rng.integers(0, 2, size=net.n) * 2 - 1)]
        traj = majority.trajectory(net, [config], len(net.undirected_edge_list()) + 2)
        lyap = majority.lyapunov_series(net, traj)[:, 0].tolist()
        j = majority.j_series(net, traj)[:, 0].tolist()
        record["initial_config"] = config
        # L is written as a JSON string and J as a number, the record's published form
        record["lyapunov_series"] = [{"t": t, "L": str(lyap[t]), "J": j[t - 1]}
                                     for t in range(1, len(traj) - 1)]
    _emit(record, args.out)
    return 0


def _scenario_delta(model):
    """delta = P(signal = S) - 1/2 of a two-letter model; the scenarios take no other kind.

    The model must be symmetric (mu0 = reversed mu1) with letter 1 the likelier under S = 1.
    """
    if not (isinstance(model, FiniteModel) and len(model.alphabet) == 2
            and model.mu0 == model.mu1[::-1] and model.mu1[1] > Fraction(1, 2)):
        raise ValueError("--scenario needs a symmetric two-letter signal model "
                         "(mu0 = reversed mu1, mu1[1] > 1/2)")
    return model.mu1[1] - Fraction(1, 2)


def _cmd_bayes(args):
    model = _load_signal(args.signal) if args.signal else bernoulli_delta(Fraction(1, 6))
    if args.scenario:
        delta = _scenario_delta(model)
        kind, _, rest = args.scenario.partition(":")
        if kind == "senate":
            try:
                n, k = (int(x) for x in rest.split(","))
            except ValueError:
                raise ValueError(f"bad scenario spec {args.scenario!r}: expected senate:<n>,<k>") from None
            out = bayes.senate_scenario(n, k, delta)
            _emit({"experiment": "bayes-senate", "n": n, "k": k, "delta": str(delta),
                   "verdict_error": str(out["verdict_error"]),
                   "all_follow_verdict": out["all_follow_verdict"]}, args.out)
            return 0
        if kind == "chain-tie":
            try:
                n = int(rest)
            except ValueError:
                raise ValueError(f"bad scenario spec {args.scenario!r}: expected chain-tie:<n>") from None
            out = bayes.chain_tie_to_self(n, delta, horizon=args.horizon or None)
            _emit({"experiment": "bayes-chain-tie", "n": n, "delta": str(delta),
                   "sticks_to_own_signal": out["claim_ok"],
                   "p_some_wrong": str(out["p_some_wrong"]),
                   "p_adjacent_wrong": str(out["p_adjacent_wrong"]),
                   "rounds": out["rounds"]}, args.out)
            return 0
        raise ValueError(f"unknown scenario {args.scenario!r} (senate:<n>,<k> | chain-tie:<n>)")
    if not args.graph:
        raise ValueError("bayes needs --graph unless --scenario is given")
    if isinstance(model, GaussianLLR):
        raise ValueError("exact forward induction needs a finite signal model")
    net = _load_graph(args.graph)
    space = bayes.build_profile_space(model, net.n)
    tie = {"one": "choose_one", "own": "own_signal"}[args.tie]
    horizon = args.horizon or space.m * net.n + 1
    res = bayes.run_exact(net, space, horizon=horizon, utility=args.utility, tie_rule=tie)
    record = {"experiment": "bayes-exact", "graph": args.graph, "signal": args.signal,
              "utility": args.utility, "tie": args.tie, "rounds": res.rounds,
              "stabilized": res.stabilized,
              "agreement": bayes.agreement_check(res)["agree"]}
    if res.stabilized:
        stats = bayes.fixation_stats(res)
        record["fixation_bound_ok"] = stats["bound_ok"]
        record["max_fixation_round"] = max(stats["fixation"])
    if args.utility == "continuous":
        record["full_information"] = bayes.full_information_check(res)["full_learning"]
    _emit(record, args.out)
    return 0


def _cmd_cascade(args):
    model = _load_signal(args.signal)
    if isinstance(model, GaussianLLR):
        p_correct = cascade.gaussian_run(model, args.n, args.trials, seed=args.seed)
        _emit({"experiment": "cascade-gaussian", "signal": args.signal, "n": args.n,
               "trials": args.trials, "seed": args.seed,
               "p_correct": [float(p) for p in p_correct]}, args.out)
        return 0
    if args.mode == "exact":
        out = cascade.run_exact(model, args.n)
        onset = [float(b - a) for a, b in
                 zip([0] + out.p_cascaded_by[:-1], out.p_cascaded_by)]
        record = {"experiment": "cascade-exact", "signal": args.signal, "n": args.n,
                  "p_correct": [str(p) for p in out.p_correct],
                  "p_cascaded_by": [str(p) for p in out.p_cascaded_by],
                  "cascade_onset_histogram": onset,
                  "p_wrong_cascade_limit": str(out.limit_wrong)}
        try:
            record["plateau"] = str(cascade.limit_accuracy(model))
        except RuntimeError as exc:      # too many non-cascade public ratios to solve
            record["plateau"] = None
            record["plateau_error"] = str(exc)
        _emit(record, args.out)
        return 0
    correct, cascaded = cascade.run_sampled(model, args.n, args.trials, seed=args.seed)
    onset = [float(b - a) for a, b in zip(np.concatenate([[0.0], cascaded[:-1]]), cascaded)]
    _emit({"experiment": "cascade-mc", "signal": args.signal, "n": args.n,
           "trials": args.trials, "seed": args.seed,
           "p_correct": [float(p) for p in correct],
           "cascade_onset_histogram": onset}, args.out)
    return 0


def _cmd_accept(args):
    names = [args.only] if args.only else experiment_names()
    workers = int(os.environ.get("OPDYN_WORKERS", "1"))
    records = {}
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = {name: pool.submit(run_experiment, registry(name)) for name in names}
        records = {name: fut.result() for name, fut in futs.items()}
    else:
        for name in names:
            records[name] = run_experiment(registry(name))
    failed = 0
    for name in names:
        rec = records[name]
        status = "PASS" if rec.passed else "FAIL"
        print(f"{status} {name} ({rec.runtime:.1f}s)")
        if not rec.passed:
            failed += 1
            for key, ok in sorted(rec.assertions.items()):
                if not ok:
                    print(f"     failed assertion: {key}")
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(rec.to_json() + "\n")
    return 1 if failed else 0


def _positive_int(text):
    """argparse type of every --trials: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p, trials_default=10000):
    p.add_argument("--trials", type=_positive_int, default=trials_default, help="Monte Carlo trial count")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--out", help="write the JSON record here instead of stdout")


def build_parser():
    ap = argparse.ArgumentParser(prog="opdyn",
                                 description="Opinion-exchange dynamics: simulators and exact oracles.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degroot", help="repeated weighted averaging")
    p.add_argument("--graph", required=True, help="graph file or shorthand kind:n[:d[:seed]]")
    p.add_argument("--delta", default="1/10", help="signal quality P(signal=S) - 1/2")
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--cheater", action="append", metavar="i=v",
                   help="pin agent i to value v (repeatable); reports exact limits")
    _add_common(p)
    p.set_defaults(fn=_cmd_degroot)

    p = sub.add_parser("voter", help="neighbor-copying dynamics")
    p.add_argument("--graph", required=True)
    p.add_argument("--delta", default="1/10")
    p.add_argument("--mode", choices=["exact", "mc"], default="mc")
    p.add_argument("--exact", action="store_true", help="force the exact absorption solve")
    _add_common(p)
    p.set_defaults(fn=_cmd_voter)

    p = sub.add_parser("voter-strong", help="two-bit strong/weak voter variant")
    p.add_argument("--graph", required=True)
    p.add_argument("--delta", default="1/10")
    _add_common(p)
    p.set_defaults(fn=_cmd_voter_strong)

    p = sub.add_parser("majority", help="iterated closed-neighborhood majority")
    p.add_argument("--graph", required=True)
    p.add_argument("--delta", default="3/10")
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--emit-lyapunov", action="store_true",
                   help="include an L/J trajectory from a seeded random start")
    _add_common(p)
    p.set_defaults(fn=_cmd_majority)

    p = sub.add_parser("bayes", help="exact rational Bayesian agents")
    p.add_argument("--graph")
    p.add_argument("--signal", help="bernoulli:<d> | file:<path>")
    p.add_argument("--utility", choices=["discrete", "continuous"], default="discrete")
    p.add_argument("--tie", choices=["one", "own"], default="one",
                   help="indifference rule: always 1, or repeat the own signal")
    p.add_argument("--horizon", type=int, default=0)
    p.add_argument("--scenario", help="senate:<n>,<k> | chain-tie:<n>")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bayes)

    p = sub.add_parser("cascade", help="one-shot sequential decisions")
    p.add_argument("--signal", required=True)
    p.add_argument("--n", type=int, default=16, help="number of agents in the sequence")
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    _add_common(p)
    p.set_defaults(fn=_cmd_cascade)

    p = sub.add_parser("accept", help="run the named-experiment registry")
    p.add_argument("--only", choices=experiment_names(), help="run a single experiment")
    p.add_argument("--out", help="append one JSON record per experiment here")
    p.set_defaults(fn=_cmd_accept)
    return ap


def _fail(command, exc, code):
    print(json.dumps({"command": command, "error": str(exc)}), file=sys.stderr)
    return code


def main(argv=None):
    """Run one subcommand; errors end as one JSON line {command, error} on stderr.

    A ValueError (bad input) exits with code 2, like argparse's own refusals.
    A cap or certificate that stopped the run (TimeoutError, RuntimeError,
    ArithmeticError) exits with code 3. Their subclasses that signal a bug
    rather than a stopped run keep their traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ZeroDivisionError, OverflowError, FloatingPointError, NotImplementedError, RecursionError):
        raise
    except ValueError as exc:
        return _fail(args.command, exc, 2)
    except (TimeoutError, RuntimeError, ArithmeticError) as exc:
        return _fail(args.command, exc, 3)


if __name__ == "__main__":
    sys.exit(main())
