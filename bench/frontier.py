"""The exact frontier: the largest n each exact oracle finishes within a fixed budget.

Each oracle is called on growing instances. Every call gets BUDGET_S seconds
of wall time, enforced with SIGALRM so no thread is started. The sweep stops
at the first call that runs over the budget, or that the oracle refuses (a
cap such as EXACT_ENUM_MAX_N raises, or the stationary solve falls back to
floats above EXACT_SOLVE_MAX_N), or at the end of the size list.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

from opdyn import bayes, degroot, majority, network, signals, voter

BUDGET_S = 1.0


class BudgetExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so no `except Exception` in opdyn swallows it."""


def _on_alarm(_signum, _frame):
    raise BudgetExceeded


def _within_budget(call):
    """call() under the budget; raises BudgetExceeded if it runs over."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        result = call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if perf_counter() - start > BUDGET_S:      # the alarm landed where it could not raise
        raise BudgetExceeded
    return result


def oracles(seed):
    """name -> (sizes swept, call(n)); the stationary topology comes from the seed."""
    def stationary(n):
        sd = network.stationary_distribution(network.generate("random_regular", n, d=4, seed=seed))
        if not sd.exact:
            raise ValueError("stationary solve fell back to floating point (EXACT_SOLVE_MAX_N)")

    def bayes_cycle(n):
        space = bayes.build_profile_space(signals.bernoulli_delta(Fraction(1, 6)), n)
        bayes.run_exact(network.generate("cycle", n), space, horizon=space.m * n + 1,
                        utility="discrete")

    return {
        "stationary": (range(8, 401, 8), stationary),
        "degroot_p_w": (range(2, 65), lambda n: degroot.learning_probability(
            network.generate("cycle", n), Fraction(1, 10))),
        "voter_absorption": (range(3, 25), lambda n: voter.absorption_probabilities(
            network.generate("cycle", n))),
        "majority_retention": (range(3, 41), lambda n: majority.retention_error(
            network.generate("cycle", n), Fraction(3, 10))),
        "bayes_cycle": (range(3, 25), bayes_cycle),
    }


def sweep(sizes, call):
    """(largest n finished, stop reason) for one oracle."""
    best = 0
    for n in sizes:
        try:
            _within_budget(lambda: call(n))
        except BudgetExceeded:
            return best, f"budget: n={n} ran over {BUDGET_S} s"
        except Exception as exc:    # any refusal is a cap; its message says which
            return best, f"cap: n={n} refused: {type(exc).__name__}: {exc}"
        best = n
    return best, "sweep_end"


def measure(seed):
    """Metrics frontier.<oracle>_n and frontier.<oracle>_capped, plus the stop reasons."""
    metrics, reasons = {}, {}
    for name, (sizes, call) in oracles(seed).items():
        n, reason = sweep(sizes, call)
        metrics[f"frontier.{name}_n"] = (n, "agents")
        metrics[f"frontier.{name}_capped"] = (int(reason.startswith("cap")), "flag")
        reasons[name] = reason
    return metrics, reasons
