"""Named experiments, configs, result records, and the acceptance registry.

Every claim the package makes is exercised by a named experiment. Each one
builds its own networks and signal models, runs the relevant dynamics (exact
where feasible, seeded Monte Carlo otherwise), and returns a ResultRecord
whose `assertions` map says exactly which invariants held. The CLI `accept`
subcommand and the acceptance tests run them one by one through
`run_experiment`; `run_registry` runs the whole registry in one generator,
for the benchmark's golden-record script (bench/record_golden.py).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from fractions import Fraction

import numpy as np

from . import bayes, cascade, degroot, majority, voter
from .harness_util import int_dtype, scaled, wilson_interval
from .network import Network, _symmetric_pairs, from_pairs, generate, stationary_distribution
from .signals import (FiniteModel, bernoulli_cube, bernoulli_delta, cube, GaussianLLR, xor_pair, three_bit_epsilon,
                      map_accuracy_three_bits, trial_rng)

SCHEMA_VERSION = 2


@dataclass
class ExperimentConfig:
    name: str
    trials: int = 0
    seed: int = 0
    schema_version: int = SCHEMA_VERSION


@dataclass
class ResultRecord:
    config: ExperimentConfig
    estimates: dict = field(default_factory=dict)   # float point estimates
    exact: dict = field(default_factory=dict)       # name -> "p/q" strings
    intervals: dict = field(default_factory=dict)   # name -> (low, high) Wilson 95%
    assertions: dict = field(default_factory=dict)  # name -> bool
    runtime: float = 0.0

    @property
    def passed(self):
        return all(self.assertions.values())

    def to_json(self):
        body = {
            "schema_version": SCHEMA_VERSION,
            "config": asdict(self.config),
            "estimates": self.estimates,
            "exact": self.exact,
            "intervals": self.intervals,
            "assertions": self.assertions,
            "runtime": self.runtime,
        }
        return json.dumps(body, sort_keys=True)


def _frac(x):
    return str(Fraction(x))


# -- individual experiments --------------------------------------------------

def _exp_degroot_limit(cfg):
    """Iterates-to-limit agreement on a batch of random regular networks."""
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for k in range(20):
        n = 2 * int(rng.integers(4, 26))  # even n, so any degree is feasible
        d = int(rng.choice([3, 4, 5]))
        net = generate("random_regular", n, d=d, seed=cfg.seed * 1000 + k)
        psi = rng.random(n)
        alpha = stationary_distribution(net).as_floats()
        lim = float(alpha @ psi)
        t_star = degroot.convergence_round(net, tv_threshold=1e-9)
        P = net.weight_matrix()
        x = psi.copy()
        for _ in range(t_star):
            x = P @ x
        worst = max(worst, float(np.max(np.abs(x - lim))))
    return ({"worst_error": worst, "rounds_checked": t_star}, {}, {},
            {"limit_within_1e-8": worst <= 1e-8})


def _exp_degroot_monotone(cfg):
    """Exact learning probability: monotone in signal quality, -> 1/2 at 0+."""
    net = generate("star", 9)
    deltas = [Fraction(k, 100) for k in range(5, 50, 5)]
    ps = [degroot.learning_probability(net, d, mode="exact").p for d in deltas]
    monotone = all(a <= b for a, b in zip(ps, ps[1:]))
    cyc = generate("cycle", 9)
    ps_c = [degroot.learning_probability(cyc, d, mode="exact").p for d in deltas]
    monotone = monotone and all(a <= b for a, b in zip(ps_c, ps_c[1:]))
    p_small = degroot.learning_probability(net, Fraction(1, 100), mode="exact").p
    near_half = abs(p_small - Fraction(1, 2)) <= Fraction(2, 100)
    exact = {f"p_w({d})": _frac(p) for d, p in zip(deltas, ps)}
    exact["p_w(1/100)"] = _frac(p_small)
    return ({}, exact, {}, {"monotone_in_delta": monotone, "limit_half_at_zero": near_half})


def _exp_voter_identity(cfg):
    """Exact absorption probability == stationary-weighted signal mass, all nets/signals.

    The audit of the proof that absorption_probabilities rests on, the exact
    stationary solve: absorption_equals_alpha_mass holds iff on every net its
    table is alpha . s and voter._certify_table, the state-by-state integer
    certificate (harmonic, 0 and 1 at the unanimity states), accepts it.
    """
    ok = True
    for kind in ("chain", "cycle", "star"):
        for n in range(3, 9):
            net = generate(kind, n)
            alpha = stationary_distribution(net).alpha
            h = voter.absorption_probabilities(net)
            table = [h[s] for s in range(1 << n)]
            H, T = scaled(table)
            try:
                voter._certify_table(net, T, H)
            except ArithmeticError:
                ok = False
            target = (cube(n, 2) @ np.array(alpha, dtype=object)).tolist()      # alpha . s for every state s
            ok = ok and table == target
    return ({}, {}, {}, {"absorption_equals_alpha_mass": ok})


def _exp_voter_absorption(cfg):
    """Monte Carlo consensus-correctness and absorption-time bounds."""
    estimates, intervals, assertions = {}, {}, {}
    trials = cfg.trials or 100000
    net20 = generate("cycle", 20)
    for delta in (Fraction(1, 10), Fraction(3, 10)):
        out = voter.mc_consensus(net20, delta, trials, seed=cfg.seed + int(delta * 100))
        p_hat = out["matches"] / out["trials"]
        lo, hi = wilson_interval(out["matches"], out["trials"])
        half = (hi - lo) / 2
        target = 0.5 + float(delta)
        key = f"p_match_delta_{delta}"
        estimates[key] = p_hat
        intervals[key] = (lo, hi)
        assertions[f"consensus_matches_signal_delta_{delta}"] = abs(p_hat - target) <= 3 * half
    for n in (8, 16):
        net = generate("cycle", n)
        d = max(len(net.out_neighbors(i)) for i in range(n))
        out = voter.mc_consensus(net, Fraction(0), 10000, seed=cfg.seed + n)
        mean_t = float(out["times"].mean())
        estimates[f"mean_absorption_time_n{n}"] = mean_t
        assertions[f"mean_time_bound_n{n}"] = mean_t <= 2 * d * n * n
    return (estimates, {}, intervals, assertions)


def _exp_strong_voter(cfg):
    """Strict-majority determinism and the tie coin-flip for the two-bit variant.

    Each case runs its trials in lockstep on one generator, trial_rng(seed, case).
    """
    trials = cfg.trials or 10000
    estimates, intervals, assertions = {}, {}, {}
    cases = {
        "cycle7": (0, generate("cycle", 7), (1, 1, 1, 1, 0, 0, 0)),
        "grid9": (1, generate("grid", 9), (1, 1, 1, 1, 1, 0, 0, 0, 0)),
        "tie": (6, generate("cycle", 6), (1, 0, 1, 0, 1, 0)),
    }
    wins = {}
    for label, (case_key, net, signals) in cases.items():
        values, _steps = voter.strong_voter_trials(net, np.tile(signals, (trials, 1)),
                                                   trial_rng(cfg.seed, case_key))
        wins[label] = int(values.sum())
    for label in ("cycle7", "grid9"):
        estimates[f"p_majority_{label}"] = wins[label] / trials
        assertions[f"majority_always_wins_{label}"] = wins[label] == trials
    lo, hi = wilson_interval(wins["tie"], trials)
    half = (hi - lo) / 2
    estimates["p_ones_tie"] = wins["tie"] / trials
    intervals["p_ones_tie"] = (lo, hi)
    assertions["tie_is_fair"] = abs(wins["tie"] / trials - 0.5) <= 3 * half
    return (estimates, {}, intervals, assertions)


def _majority_test_nets():
    return ([generate("cycle", n) for n in range(4, 9)]
            + [generate("complete", 5), generate("complete", 7), generate("random_regular", 8, d=4, seed=7)])


def _period2_checks(traj, lyap, j, edge_count):
    """The majority-period2 assertions on one network's trajectories.

    traj is (|E| + 3) x rows x n, lyap its L series and j its J series, as
    majority.trajectory, lyapunov_series and j_series return them.
    """
    return {"period_two_by_edge_count": bool((traj[edge_count + 2] == traj[edge_count]).all()
                                             and (traj[edge_count + 1] == traj[edge_count - 1]).all()),
            "lyapunov_decrement_identity": bool((np.diff(lyap, axis=0) == -j).all()),
            "dissipation_nonnegative": bool((j >= 0).all())}


def _exp_majority_period2(cfg):
    """Exhaustive period/Lyapunov audit over every initial configuration."""
    checks = []
    for net in _majority_test_nets():
        edge_count = len(net.cached(_symmetric_pairs))
        traj = majority.trajectory(net, majority.all_spin_configs(net.n), edge_count + 2)
        checks.append(_period2_checks(traj, majority.lyapunov_series(net, traj),
                                      majority.j_series(net, traj), edge_count))
    return ({}, {}, {}, {key: all(c[key] for c in checks) for key in checks[0]})


def _exp_majority_russo(cfg):
    """Influence sums vs the quality-derivative, closed form and via dynamics."""
    assertions = {}
    exact = {}
    three_bit = np.where(majority.all_spin_configs(3).sum(axis=1) > 0, 1, -1)
    # the summed influences of three-bit majority are 6 q (1 - q), q = 1/2 + d
    assertions["three_bit_closed_form"] = all(
        sum(majority.influence(three_bit, i, d) for i in range(3)) == 6 * (Fraction(1, 2) + d) * (Fraction(1, 2) - d)
        for d in (Fraction(k, 25) for k in range(10)))
    table = majority.signals_to_vote_table(generate("cycle", 7))
    res = majority.russo_residual(table, Fraction(1, 10), h=Fraction(1, 10000))
    exact["cycle7_residual"] = _frac(res)
    assertions["cycle7_central_difference"] = res <= Fraction(1, 1000000)
    return ({}, exact, {}, assertions)


def _exp_three_bit_map(cfg):
    """MAP-beats-one-bit margin over a grid of qualities and skews."""
    ok = True
    for p_num in range(11, 20):
        p = Fraction(p_num, 20)
        eps = three_bit_epsilon(p)
        room = min(p, 1 - p)
        skews = [Fraction(0), room / 3, -room / 3, 2 * room / 3, 9 * room / 10]
        for d1 in skews:
            for d2 in skews:
                for d3 in skews:
                    acc, _rule = map_accuracy_three_bits(p, d1, d2, d3)
                    if acc < p + eps:
                        ok = False
    return ({}, {}, {}, {"map_margin_everywhere": ok})


_CONNECTED_GRAPHS = {
    "edge2": (2, [(0, 1)]),
    "path3": (3, [(0, 1), (1, 2)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "path4": (4, [(0, 1), (1, 2), (2, 3)]),
    "star4": (4, [(0, 1), (0, 2), (0, 3)]),
    "cycle4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "paw": (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "diamond": (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
    "k4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
}


def _exp_bayes_fixation(cfg):
    """Fixation-round and change-count bounds on every small connected graph."""
    model = bernoulli_delta(Fraction(1, 6))
    ok = True
    stab = True
    for _label, (n, pairs) in _CONNECTED_GRAPHS.items():
        net = from_pairs(n, pairs)
        space = bayes.build_profile_space(model, n)
        for utility in ("discrete", "continuous"):
            res = bayes.run_exact(net, space, horizon=space.m * n + 1, utility=utility)
            if not res.stabilized:
                stab = False
                continue
            stats = bayes.fixation_stats(res)
            if not stats["bound_ok"]:
                ok = False
    return ({}, {}, {}, {"all_runs_stabilized": stab, "fixation_bounds": ok})


def _bayes_test_nets():
    return [(kind, generate(kind, n)) for n in range(3, 6) for kind in ("chain", "cycle")]


def _exp_bayes_agreement(cfg):
    """Continuous: common limit belief == pooled posterior. Discrete: equal utilities."""
    model = bernoulli_delta(Fraction(1, 6))
    rich = FiniteModel(alphabet=(0, 1, 2),
                       mu0=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
                       mu1=(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
    agree_ok = full_ok = util_ok = stab_ok = True
    for kind, net in _bayes_test_nets():
        models = [model] if net.n > 3 else [model, rich]
        for mdl in models:
            space = bayes.build_profile_space(mdl, net.n)
            cont = bayes.run_exact(net, space, horizon=space.m * net.n + 1, utility="continuous")
            disc = bayes.run_exact(net, space, horizon=space.m * net.n + 1, utility="discrete")
            if not (cont.stabilized and disc.stabilized):
                stab_ok = False
                continue
            if not bayes.agreement_check(cont)["agree"]:
                agree_ok = False
            if not bayes.full_information_check(cont)["full_learning"]:
                full_ok = False
            if not bayes.agreement_check(disc)["agree"]:
                util_ok = False
    return ({}, {}, {}, {"stabilized": stab_ok, "beliefs_agree": agree_ok,
                         "full_information": full_ok, "equal_utilities": util_ok})


def _exp_bayes_xor(cfg):
    """Perfectly complementary pair: beliefs pinned at 1/2 in every round."""
    net = generate("chain", 2)
    space = bayes.build_profile_space(xor_pair(), 2)
    res = bayes.run_exact(net, space, horizon=10, utility="continuous")
    half = Fraction(1, 2)
    stuck = all(b == half
                for t in range(res.rounds)
                for i in range(2)
                for b in res.beliefs[t][i])
    # yet the pooled signals determine S outright
    separated = all(space.full_posterior(prof) in (0, 1)
                    for (_s, prof, _w) in space.entries)
    return ({}, {}, {}, {"beliefs_stuck_at_half": stuck,
                         "pooled_signals_reveal_s": separated})


def _senate_joint_space(n, k, delta):
    """Each agent's observable as one composite letter (own signal, verdict), with id 2 signal + verdict.

    Profile p is row p of signals.cube(n, 2), its verdict the majority of its
    first k signals. With `ones` signals equal to 1 it weighs hits[ones] with
    S = 1 and hits[n - ones] with S = 0 (signals.bernoulli_cube), S = 0 first.
    """
    bits = cube(n, 2)
    verdict = bits[:, :k].sum(axis=1) >= (k + 1) // 2
    ones = bits.sum(axis=1)
    hits, den = bernoulli_cube(delta, n)
    hits = np.array(hits, dtype=int_dtype(4 * den))
    atoms = bayes.Atoms(np.repeat(np.array([0, 1], dtype=np.int8), len(bits)), np.tile(np.arange(len(bits)), 2),
                        np.concatenate((hits[n - ones], hits[ones])), 2 * den, (2 * bits + verdict[:, None]).T,
                        [(0, 0), (0, 1), (1, 0), (1, 1)])
    return bayes.ProfileSpace(n=n, atoms=atoms)


def _exp_senate(cfg):
    """A small signal-pooling committee swamps everyone's private signal."""
    delta = Fraction(1, 6)
    k = 5
    out10 = bayes.senate_scenario(10, k, delta)
    out20 = bayes.senate_scenario(20, k, delta)
    assertions = {
        "error_independent_of_n": out10["verdict_error"] == out20["verdict_error"],
        "everyone_follows_verdict": out10["all_follow_verdict"] and out20["all_follow_verdict"],
    }
    # engine cross-check at n=10: isolated agents fed (signal, verdict) letters
    n = 10
    space = _senate_joint_space(n, k, delta)
    net = Network(n=n, edges=tuple((i, i, Fraction(1)) for i in range(n)))
    res = bayes.run_exact(net, space, horizon=2, utility="discrete")
    # each atom's last actions against the verdict halves of its letters, whose ids are 2 signal + verdict
    verdicts = space.atoms.sig[:, space.atoms.profile_of] % 2
    assertions["engine_agrees_n10"] = bool((np.array(res.actions[res.rounds - 1]) == verdicts).all())
    exact = {"verdict_error": _frac(out10["verdict_error"])}
    return ({}, exact, {}, assertions)


def _exp_chain_tie(cfg):
    """Own-signal tie-breaking freezes a chain; wrong clusters persist."""
    delta = Fraction(1, 6)
    claim_ok = bound_ok = True
    exact = {}
    for n in (4, 6, 8):
        out = bayes.chain_tie_to_self(n, delta)
        claim_ok = claim_ok and out["claim_ok"]
        exact[f"p_some_wrong_n{n}"] = _frac(out["p_some_wrong"])
        exact[f"p_adjacent_wrong_n{n}"] = _frac(out["p_adjacent_wrong"])
        if not (out["p_some_wrong"] >= out["p_adjacent_wrong"] > Fraction(5, 100)):
            bound_ok = False
    return ({}, exact, {}, {"sticks_to_own_signal": claim_ok,
                            "wrong_fixation_above_5pct": bound_ok})


def _exp_cascade_bounded(cfg):
    """Bounded signals: cascades absorb, accuracy plateaus strictly below 1."""
    model = bernoulli_delta(Fraction(1, 6))  # p = 2/3
    n = 16
    out = cascade.run_exact(model, n)
    plateau = cascade.limit_accuracy(model)
    onset = next(i for i, m in enumerate(out.p_cascaded_by) if m > 0)
    uncascaded_tail = 1 - out.p_cascaded_by[-1]
    # past onset the accuracy can only move within the still-uncascaded mass
    pinned = all(abs(out.p_correct[i + 1] - out.p_correct[i]) <= 1 - out.p_cascaded_by[i]
                 for i in range(onset, n - 1))
    assertions = {
        "cascade_mass_monotone": all(a <= b for a, b in zip(out.p_cascaded_by, out.p_cascaded_by[1:])),
        "accuracy_pinned_after_onset": pinned,
        "terminal_accuracy_near_plateau": abs(out.p_correct[-1] - plateau) <= uncascaded_tail,
        "plateau_below_one": plateau < 1,
    }
    exact = {"plateau": _frac(plateau), "p_correct_last": _frac(out.p_correct[-1]),
             "uncascaded_tail": _frac(uncascaded_tail)}
    return ({}, exact, {}, assertions)


def _exp_cascade_unbounded(cfg):
    """Unbounded Gaussian ratios: late accuracy beats the bounded plateau."""
    trials = cfg.trials or 100000
    n = 50
    model = GaussianLLR(sigma2=1)
    p_correct = cascade.gaussian_run(model, n, trials, seed=cfg.seed)
    plateau = float(cascade.limit_accuracy(bernoulli_delta(Fraction(1, 6))))
    successes = int(round(p_correct[-1] * trials))
    lo, hi = wilson_interval(successes, trials)
    half = (hi - lo) / 2
    assertions = {"beats_bounded_plateau": bool(p_correct[-1] - 3 * half > plateau)}
    return ({"p_correct_last": float(p_correct[-1]), "bounded_plateau": plateau},
            {}, {"p_correct_last": (lo, hi)}, assertions)


def _map_rule_checks(rule):
    """(odd, monotone) for a MAP rule {+-1 profile: +-1 guess}, on whole arrays.

    Odd: a profile whose negation is also a key gets the negated guess.
    Monotone: no +1-profile lies coordinatewise below a -1-profile.
    """
    profs = np.array(list(rule), dtype=np.int8)
    guess = np.array(list(rule.values()))
    negated = (profs[:, None, :] == -profs[None, :, :]).all(axis=2)
    odd = not (negated & (guess[:, None] != -guess[None, :])).any()
    below = profs[guess > 0][:, None, :] <= profs[guess < 0][None, :, :]
    return odd, not below.all(axis=2).any()


def _exp_retention_cycle(cfg):
    """Bigger odd cycles retain more: exact MAP error non-increasing in n."""
    delta = Fraction(3, 10)
    errors = []
    for n in range(5, 16, 2):
        errors.append((n, majority.retention_error(generate("cycle", n), delta, mode="exact")))
    monotone = all(a[1] >= b[1] for a, b in zip(errors, errors[1:]))
    checks = [_map_rule_checks(majority.map_rule(generate("cycle", n), delta))
              for n in range(4, 13)]
    odd_ok = all(odd for odd, _mono in checks)
    mono_ok = all(mono for _odd, mono in checks)
    exact = {f"iota_n{n}": _frac(e) for n, e in errors}
    return ({}, exact, {}, {"error_non_increasing": monotone,
                            "map_odd": odd_ok, "map_monotone": mono_ok})


_RUNNERS = {
    "degroot-limit": _exp_degroot_limit,
    "degroot-monotone": _exp_degroot_monotone,
    "voter-identity": _exp_voter_identity,
    "voter-absorption": _exp_voter_absorption,
    "strong-voter-majority": _exp_strong_voter,
    "majority-period2": _exp_majority_period2,
    "majority-russo": _exp_majority_russo,
    "retention-cycle": _exp_retention_cycle,
    "bayes-fixation": _exp_bayes_fixation,
    "bayes-agreement": _exp_bayes_agreement,
    "bayes-xor": _exp_bayes_xor,
    "senate": _exp_senate,
    "chain-tie": _exp_chain_tie,
    "cascade-bounded": _exp_cascade_bounded,
    "cascade-unbounded": _exp_cascade_unbounded,
    "three-bit-map": _exp_three_bit_map,
}

_DEFAULTS = {
    "voter-absorption": {"trials": 100000, "seed": 20240601},
    "strong-voter-majority": {"trials": 10000, "seed": 20240602},
    "cascade-unbounded": {"trials": 100000, "seed": 20240603},
    "degroot-limit": {"seed": 20240604},
}


def registry(name) -> ExperimentConfig:
    """The canonical config for a named experiment (the acceptance suite's)."""
    if name not in _RUNNERS:
        known = ", ".join(sorted(_RUNNERS))
        raise KeyError(f"unknown experiment {name!r}; known: {known}")
    return ExperimentConfig(name=name, **_DEFAULTS.get(name, {}))


def experiment_names():
    return sorted(_RUNNERS)


def run_experiment(config: ExperimentConfig) -> ResultRecord:
    if config.name not in _RUNNERS:
        raise KeyError(f"unknown experiment {config.name!r}")
    start = time.perf_counter()
    estimates, exact, intervals, assertions = _RUNNERS[config.name](config)
    return ResultRecord(config=config, estimates=estimates, exact=exact,
                        intervals=intervals, assertions=assertions,
                        runtime=time.perf_counter() - start)


def run_registry(only=None):
    """Run (a subset of) the registry; yields (name, ResultRecord)."""
    names = [only] if only else experiment_names()
    for name in names:
        yield name, run_experiment(registry(name))
