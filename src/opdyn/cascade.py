"""Sequential decisions with public actions: herding and information cascades.

Agents act once, in order. Agent i sees all earlier actions and its own
private signal, and plays 1 iff the posterior likelihood ratio
L_i = Lx_i * P_i of S=0 against S=1 is <= 1 (ties go to 1), where Lx_i is
the public ratio carried by the action history and P_i the private signal's
ratio. An outside observer tracks Lx exactly; a cascade has started once
the next agent's decision no longer depends on its signal.

Finite signal models run in exact rational arithmetic, merging observer
states that share the same public ratio. Gaussian signals (unbounded
ratios) run as vectorized Monte Carlo in the log domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import erf, exp, log, sqrt

import numpy as np

from .harness_util import debug
from .network import solve_exact
from .signals import FiniteModel, GaussianLLR, sample_world, trial_rng

ONE = Fraction(1)


def private_ratio(model: FiniteModel, k) -> Fraction:
    """P(psi = x | S=0) / P(psi = x | S=1) for alphabet index k."""
    return model.mu0[k] / model.mu1[k]


def agent_decision(public_ratio, priv_ratio):
    """Action given the public and private likelihood ratios (tie -> 1)."""
    return 1 if public_ratio * priv_ratio <= 1 else 0


def action_distribution(model: FiniteModel, public_ratio):
    """P(A=1 | S=s, public ratio), exact, for s = 0 and 1."""
    p1 = [Fraction(0), Fraction(0)]
    for k in range(len(model.alphabet)):
        if agent_decision(public_ratio, private_ratio(model, k)) == 1:
            p1[0] += model.mu0[k]
            p1[1] += model.mu1[k]
    return p1[0], p1[1]


def observer_update(model: FiniteModel, public_ratio, action):
    """Bayes update of the public ratio after seeing one action."""
    a0, a1 = action_distribution(model, public_ratio)
    if action == 1:
        if a1 == 0:
            raise ZeroDivisionError("impossible action under S=1")
        return public_ratio * a0 / a1
    if a1 == 1:
        raise ZeroDivisionError("impossible action under S=0")
    return public_ratio * (1 - a0) / (1 - a1)


def observer_action(public_ratio):
    """The outside observer's best guess of S from the public ratio alone.

    Equals the most recent agent's action: that action is a function of the
    history the observer has already seen plus a signal whose effect the
    observer integrates out, and the Bayes update moves the ratio to the
    side the action indicated (ties to 1).
    """
    return 1 if public_ratio <= 1 else 0


def in_cascade(model: FiniteModel, public_ratio):
    """True iff the next decision is the same for every signal in the support."""
    decisions = {agent_decision(public_ratio, private_ratio(model, k))
                 for k in range(len(model.alphabet))}
    return len(decisions) == 1


@dataclass
class CascadeExact:
    """Exact per-position summary of the sequential model."""

    p_correct: list        # P(A_i = S) per position, Fraction
    p_cascaded_by: list    # P(a cascade is active when agent i moves)
    p_wrong_cascade: list  # P(cascade active and its action != S) per position
    limit_wrong: Fraction  # wrong-cascade mass at the end of the sequence


def run_exact(model: FiniteModel, n) -> CascadeExact:
    """Exact forward pass, merging observer states by their public ratio.

    State: public ratio -> (weight | S=0, weight | S=1), with prior 1/2 each.
    """
    states = {ONE: (Fraction(1, 2), Fraction(1, 2))}
    p_correct, p_cascaded, p_wrong = [], [], []
    for _i in range(n):
        casc = Fraction(0)
        wrong = Fraction(0)
        correct = Fraction(0)
        nxt = {}
        for lx, (w0, w1) in states.items():
            if in_cascade(model, lx):
                casc += w0 + w1
                a = agent_decision(lx, private_ratio(model, 0))
                wrong += w0 if a == 1 else w1
            a0, a1 = action_distribution(model, lx)
            correct += w1 * a1 + w0 * (1 - a0)
            for action, m0, m1 in ((1, a0, a1), (0, 1 - a0, 1 - a1)):
                if m0 == 0 and m1 == 0:
                    continue
                if m0 == 0 or m1 == 0:
                    # one-sided action probabilities would make an action
                    # reveal S outright; impossible with a common support
                    raise AssertionError("signal support must not separate states")
                new_lx = lx * m0 / m1
                if observer_action(new_lx) != action:
                    raise AssertionError("observer must copy the last action")
                c0, c1 = nxt.get(new_lx, (Fraction(0), Fraction(0)))
                nxt[new_lx] = (c0 + w0 * m0, c1 + w1 * m1)
        p_correct.append(correct)
        p_cascaded.append(casc)
        p_wrong.append(wrong)
        states = nxt
    # terminal wrong-cascade mass
    limit_wrong = Fraction(0)
    for lx, (w0, w1) in states.items():
        if in_cascade(model, lx):
            a = agent_decision(lx, private_ratio(model, 0))
            limit_wrong += w0 if a == 1 else w1
    return CascadeExact(p_correct=p_correct, p_cascaded_by=p_cascaded,
                        p_wrong_cascade=p_wrong, limit_wrong=limit_wrong)


def limit_accuracy(model: FiniteModel) -> Fraction:
    """lim_i P(A_i = S): exact absorption analysis of the public-ratio chain.

    Explores the reachable public-ratio states; cascade states are absorbing
    (their update multiplies by 1). Solves the finite linear system for the
    probability, from each transient state and true S, of eventually joining
    a cascade whose forced action equals S. Raises if the transient state
    space does not stay finite and small.

    The system (I - Q) h = r over the transient states is nonsingular: an
    action that depends on the signal moves the public ratio by a factor
    bounded away from 1 in a fixed direction, so from every transient state a
    long enough run of equal actions reaches a cascade. Absorption is then
    certain, Q^t -> 0, and 1 is not an eigenvalue of Q.
    """
    states = []          # transient (non-cascade) ratios
    index = {}
    frontier = [Fraction(1)]
    absorb = {}          # cascade ratio -> forced action
    while frontier:
        lx = frontier.pop()
        if lx in index or lx in absorb:
            continue
        if in_cascade(model, lx):
            absorb[lx] = agent_decision(lx, private_ratio(model, 0))
            continue
        index[lx] = len(states)
        states.append(lx)
        if len(states) > 64:
            raise RuntimeError("public-ratio chain did not stay small")
        a0, a1 = action_distribution(model, lx)
        for m0, m1 in ((a0, a1), (1 - a0, 1 - a1)):
            if m0 > 0 and m1 > 0:
                frontier.append(lx * m0 / m1)
    m = len(states)
    # h_s[state] = P(end in a cascade with action == s | S = s, at state)
    total = Fraction(0)
    for s in (0, 1):
        A = [[Fraction(1 if r == c else 0) for c in range(m)] for r in range(m)]
        b = [Fraction(0)] * m
        for lx in states:
            r = index[lx]
            a0, a1 = action_distribution(model, lx)
            for m0, m1 in ((a0, a1), (1 - a0, 1 - a1)):
                prob = m1 if s == 1 else m0
                if prob == 0:
                    continue
                nxt = lx * m0 / m1
                if nxt in absorb:
                    if absorb[nxt] == s:
                        b[r] += prob
                else:
                    A[r][index[nxt]] -= prob
        h = solve_exact(A, b)
        total += Fraction(1, 2) * h[index[Fraction(1)]]
    return total


def run_sampled(model: FiniteModel, n, trials, seed):
    """Seeded Monte Carlo counterpart of run_exact (sanity cross-check)."""
    correct = np.zeros(n, dtype=np.int64)
    cascaded = np.zeros(n, dtype=np.int64)
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        world = sample_world(model, n, rng)
        lx = ONE
        for i in range(n):
            if in_cascade(model, lx):
                cascaded[i] += 1
            a = agent_decision(lx, private_ratio(model, model.index(world.signals[i])))
            if a == world.s:
                correct[i] += 1
            lx = observer_update(model, lx, a)
            if observer_action(lx) != a:
                raise AssertionError("observer must copy the last action")
    return correct / trials, cascaded / trials


# -- Gaussian (unbounded ratios) --------------------------------------------

def gaussian_run(model: GaussianLLR, n, trials, seed):
    """Vectorized sequential run with N(+-1, sigma^2) signals, log domain.

    Private log-ratio of S=0 vs S=1 for observation y is -2y/sigma^2. The
    action is a threshold rule in y, so the observer's update only needs
    Phi at the moving threshold. Returns per-position P(A_i = S).

    The public log-ratio is a function of the action history, so the trials
    share few distinct values: vals holds those in use and state[t] indexes
    trial t's. Phi and the logs are evaluated once per (value, action) that a
    trial reached, each child value is vals + update exactly as a per-trial
    update would compute it, and np.unique merges equal children (NaNs into
    one, whose trials all act 0), so the output is bit-identical to updating
    every trial's ratio itself. The DEBUG record counts infinite or NaN children.
    """
    if trials < 1:
        raise ValueError("gaussian_run needs at least one trial")
    sigma2 = float(model.sigma2)
    sigma = sqrt(sigma2)
    base = trial_rng(seed, 0)
    s = base.integers(0, 2, size=trials)
    mean = np.where(s == 1, 1.0, -1.0)
    vals = np.zeros(1)
    state = np.zeros(trials, dtype=np.intp)
    p_correct = np.zeros(n)
    states_max = thresholds = nonfinite = 0
    for i in range(n):
        y = mean * 1.0 + trial_rng(seed, 1, agent=i).normal(0.0, sigma, size=trials)
        m = len(vals)
        states_max = max(states_max, m)
        thresholds += m
        # action 1 iff log Lx - 2y/sigma^2 <= 0, i.e. y >= sigma^2 log Lx / 2
        thresh = sigma2 * vals / 2.0
        act = y >= thresh[state]
        p_correct[i] = np.mean(act == s)
        # child of (state, act) is act * m + state; update only the children some trial reached
        key = act * m + state
        used = np.flatnonzero(np.bincount(key, minlength=2 * m))
        one, at = used >= m, used % m
        # observer: P(A=1 | S=s') = 1 - Phi((thresh - m(s'))/sigma)
        pa1_s1 = 1.0 - _ndtr((thresh[at] - 1.0) / sigma)
        pa1_s0 = 1.0 - _ndtr((thresh[at] + 1.0) / sigma)
        children = vals[at]
        with np.errstate(divide="ignore"):
            children[one] += np.log(pa1_s0[one]) - np.log(pa1_s1[one])
            children[~one] += np.log1p(-pa1_s0[~one]) - np.log1p(-pa1_s1[~one])
        nonfinite += int((~np.isfinite(children)).sum())
        vals, inverse = np.unique(children, return_inverse=True)
        child = np.empty(2 * m, dtype=np.intp)
        child[used] = inverse
        state = child[key]
    debug("gaussian cascade: n=%d trials=%d states_max=%d nonfinite_children=%d "
          "thresholds=%d of n*trials=%d", n, trials, states_max, nonfinite, thresholds, n * trials)
    return p_correct


def _ndtr(z):
    z = np.asarray(z, dtype=float)
    return 0.5 * (1.0 + np.vectorize(erf)(z / sqrt(2.0)))
