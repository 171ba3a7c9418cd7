"""Sequential decisions with public actions: herding and information cascades.

Agents act once, in order. Agent i sees all earlier actions and its own
private signal, and plays 1 iff the posterior likelihood ratio
L_i = Lx_i * P_i of S=0 against S=1 is <= 1 (ties go to 1), where Lx_i is
the public ratio carried by the action history and P_i the private signal's
ratio. An outside observer tracks Lx exactly; a cascade has started once
the next agent's decision no longer depends on its signal.

A finite signal model is one Markov chain over public ratios (_Chain):
each distinct ratio is numbered and analysed once, and the exact series,
the limiting accuracy and the seeded per-trial runs all walk it. Gaussian
signals (unbounded ratios) run as vectorized Monte Carlo in the
log domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import erf, sqrt

import numpy as np

from .harness_util import debug, int_dtype, scaled
from .network import _solve_integer
from .signals import FiniteModel, GaussianLLR, sample_world, trial_rng

def private_ratio(model: FiniteModel, k) -> Fraction:
    """P(psi = x | S=0) / P(psi = x | S=1) for alphabet index k."""
    return model.mu0[k] / model.mu1[k]


def agent_decision(public_ratio, priv_ratio):
    """Action given the public and private likelihood ratios (tie -> 1)."""
    return 1 if public_ratio * priv_ratio <= 1 else 0


def observer_action(public_ratio):
    """The outside observer's best guess of S from the public ratio alone.

    Equals the most recent agent's action: that action is a function of the
    history the observer has already seen plus a signal whose effect the
    observer integrates out, and the Bayes update moves the ratio to the
    side the action indicated (ties to 1).
    """
    return 1 if public_ratio <= 1 else 0


class _Chain:
    """The public-ratio chain of a finite model, each ratio numbered when first reached.

    Row k is [public ratio, forced action or None, a0 D, a1 D, action per
    letter, children or None], where a_s = P(A=1 | S=s, ratio) and D is the
    lcm of the denominators of mu0 and mu1, so a0 D and a1 D are integers.
    A ratio is in a cascade (forced action set) once every letter gives the
    same action. Row 0 is the prior ratio 1. Children are found on demand.
    """

    def __init__(self, model: FiniteModel):
        self.priv = [private_ratio(model, j) for j in range(len(model.alphabet))]
        self.D, counts = scaled((*model.mu0, *model.mu1))
        self.mu0D, self.mu1D = counts[:len(model.mu0)], counts[len(model.mu0):]
        self.ids = {}
        self.rows = []
        self.number(Fraction(1))

    def number(self, lx):
        """The row of public ratio lx, appended when lx is first reached."""
        k = self.ids.get(lx)
        if k is None:
            k = self.ids[lx] = len(self.rows)
            acts = tuple(agent_decision(lx, p) for p in self.priv)
            forced = acts[0] if len(set(acts)) == 1 else None
            A0 = sum(m for a, m in zip(acts, self.mu0D) if a)
            A1 = sum(m for a, m in zip(acts, self.mu1D) if a)
            self.rows.append([lx, forced, A0, A1, acts, None])
        return k

    def children(self, k):
        """action -> (child number, m0 D, m1 D) for each action that can follow row k.

        The child's ratio is the observer's Bayes update lx * m0 / m1.
        """
        row = self.rows[k]
        if row[5] is None:
            lx, _forced, A0, A1, _acts, _kids = row
            D = self.D
            kids = {}
            for action, m0, m1 in ((1, A0, A1), (0, D - A0, D - A1)):
                if m0 == 0 and m1 == 0:
                    continue
                if m0 == 0 or m1 == 0:
                    # one-sided action probabilities would make an action
                    # reveal S outright; impossible with a common support
                    raise AssertionError("signal support must not separate states")
                new_lx = lx * Fraction(m0, m1)
                if observer_action(new_lx) != action:
                    raise AssertionError("observer must copy the last action")
                kids[action] = (self.number(new_lx), m0, m1)
            row[5] = kids
        return row[5]

    def child(self, k, action):
        """The row the observer moves to after seeing action at row k."""
        return self.children(k)[action][0]


@dataclass
class CascadeExact:
    """Exact per-position summary of the sequential model."""

    p_correct: list        # P(A_i = S) per position, Fraction
    p_cascaded_by: list    # P(a cascade is active when agent i moves)
    p_wrong_cascade: list  # P(cascade active and its action != S) per position
    limit_wrong: Fraction  # wrong-cascade mass at the end of the sequence


def run_exact(model: FiniteModel, n) -> CascadeExact:
    """Exact forward pass over the public-ratio chain.

    State: chain row -> (weight | S=0, weight | S=1), with prior 1/2 each.
    The weights at position i are integers over 2 D^i, and Fractions are
    built only for the outputs.
    """
    chain = _Chain(model)
    rows, D = chain.rows, chain.D

    def wrong_mass(states):
        return sum(w0 if rows[k][1] == 1 else w1
                   for k, (w0, w1) in states.items() if rows[k][1] is not None)

    states = {0: (1, 1)}
    p_correct, p_cascaded, p_wrong = [], [], []
    den = 2
    for _i in range(n):
        casc = correct = 0
        nxt = {}
        for k, (w0, w1) in states.items():
            _lx, forced, A0, A1, _acts, kids = rows[k]
            if forced is not None:
                casc += w0 + w1
            correct += w1 * A1 + w0 * (D - A0)
            for c, m0, m1 in (kids if kids is not None else chain.children(k)).values():
                c0, c1 = nxt.get(c, (0, 0))
                nxt[c] = (c0 + w0 * m0, c1 + w1 * m1)
        p_correct.append(Fraction(correct, den * D))
        p_cascaded.append(Fraction(casc, den))
        p_wrong.append(Fraction(wrong_mass(states), den))
        states = nxt
        den *= D
    return CascadeExact(p_correct=p_correct, p_cascaded_by=p_cascaded,
                        p_wrong_cascade=p_wrong, limit_wrong=Fraction(wrong_mass(states), den))


def limit_accuracy(model: FiniteModel) -> Fraction:
    """lim_i P(A_i = S): exact absorption analysis of the public-ratio chain.

    Explores the rows reachable from ratio 1 in numbering order; cascade rows
    are absorbing (their update multiplies by 1). Solves the finite linear
    system for the probability, from each transient row and true S, of
    eventually joining a cascade whose forced action equals S. Raises if the
    transient rows do not stay finite and small.

    The system (I - Q) h = r over the transient rows is nonsingular: an
    action that depends on the signal moves the public ratio by a factor
    bounded away from 1 in a fixed direction, so from every transient row a
    long enough run of equal actions reaches a cascade. Absorption is then
    certain, Q^t -> 0, and 1 is not an eigenvalue of Q. The system is built
    multiplied by D, [D I - Q_s | r_s] in the chain's integer masses, and
    network._solve_integer solves it.
    """
    chain = _Chain(model)
    rows, D = chain.rows, chain.D
    if rows[0][1] is not None:      # uninformative signals (mu0 = mu1): every agent plays the prior's action
        return Fraction(1, 2)
    index = {}           # transient row -> unknown; row 0 is unknown 0
    k = 0
    while k < len(rows):
        if rows[k][1] is None:
            index[k] = len(index)
            if len(index) > 64:
                raise RuntimeError("public-ratio chain did not stay small")
            chain.children(k)
        k += 1
    m = len(index)
    # h_s[row] = P(end in a cascade with action == s | S = s, at row)
    total = Fraction(0)
    for s in (0, 1):
        M = np.zeros((m, m + 1), dtype=int_dtype(D))
        M[np.arange(m), np.arange(m)] = D
        for k, r in index.items():
            for c, m0, m1 in rows[k][5].values():
                prob = m1 if s == 1 else m0
                if c in index:
                    M[r, index[c]] -= prob
                elif rows[c][1] == s:
                    M[r, m] += prob
        Q, N, branch = _solve_integer(M)
        debug("exact solve n=%d: %s", m, branch)
        total += Fraction(N[0], 2 * Q)
    return total


def run_sampled(model: FiniteModel, n, trials, seed):
    """Seeded Monte Carlo counterpart of run_exact (sanity cross-check).

    Each trial draws its world with sample_world on trial_rng(seed, trial)
    and walks the chain by table lookup: the row's action for the signal,
    then the child row.
    """
    chain = _Chain(model)
    rows = chain.rows
    correct = [0] * n
    cascaded = [0] * n
    for trial in range(trials):
        world = sample_world(model, n, trial_rng(seed, trial))
        k = 0
        for i in range(n):
            _lx, forced, _A0, _A1, acts, _kids = rows[k]
            if forced is not None:
                cascaded[i] += 1
            a = acts[model.index(world.signals[i])]
            if a == world.s:
                correct[i] += 1
            k = chain.child(k, a)
    return np.array(correct, dtype=np.int64) / trials, np.array(cascaded, dtype=np.int64) / trials


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
