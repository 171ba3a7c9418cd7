"""World-state/private-signal probability models and distribution utilities.

The world is a hidden fair bit S; conditioned on S the agents' private
signals are i.i.d. from one of two mutually absolutely continuous measures.
We support finite alphabets with exact rational probabilities (the backbone
of every brute-force oracle), the symmetric two-point Bernoulli family, a
Gaussian family with unbounded private beliefs, and explicit finite joint
tables for counterexamples such as the XOR pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _check_dist(mu, name):
    if any(p <= 0 for p in mu):
        raise ValueError(f"{name} must be strictly positive everywhere (mutual absolute continuity)")
    if sum(mu) != 1:
        raise ValueError(f"{name} must sum to 1 exactly, got {sum(mu)}")


@dataclass(frozen=True)
class FiniteModel:
    """Signal model over a finite alphabet with exact rational measures."""

    alphabet: tuple
    mu0: tuple
    mu1: tuple

    def __post_init__(self):
        mu0 = tuple(Fraction(p) for p in self.mu0)
        mu1 = tuple(Fraction(p) for p in self.mu1)
        if not (len(self.alphabet) == len(mu0) == len(mu1)):
            raise ValueError("alphabet and measures must have equal length")
        _check_dist(mu0, "mu0")
        _check_dist(mu1, "mu1")
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "mu1", mu1)

    def index(self, x):
        try:
            return self.alphabet.index(x)
        except ValueError:
            raise ValueError(f"signal {x!r} outside alphabet") from None

    def prob(self, x, s):
        k = self.index(x)
        return self.mu1[k] if s == 1 else self.mu0[k]

    def sample(self, s, rng, size=None):
        mu = self.mu1 if s == 1 else self.mu0
        p = np.array([float(q) for q in mu])
        idx = rng.choice(len(self.alphabet), size=size, p=p)
        if size is None:
            return self.alphabet[int(idx)]
        return [self.alphabet[int(k)] for k in np.atleast_1d(idx)]


def bernoulli_delta(delta) -> FiniteModel:
    """Two-point model: P(signal = S) = 1/2 + delta, alphabet {0, 1}."""
    delta = Fraction(delta)
    if not 0 < delta < Fraction(1, 2):
        raise ValueError("delta must lie in (0, 1/2)")
    h = Fraction(1, 2)
    return FiniteModel(alphabet=(0, 1), mu0=(h + delta, h - delta), mu1=(h - delta, h + delta))


@dataclass(frozen=True)
class GaussianLLR:
    """signal = (2S - 1) + noise, noise ~ N(0, sigma2). Unbounded private beliefs."""

    sigma2: float = 1.0

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")

    def llr(self, x):
        """log P(x | S=1) / P(x | S=0) = 2x / sigma2."""
        return 2.0 * x / self.sigma2

    def sample(self, s, rng, size=None):
        mean = 1.0 if s == 1 else -1.0
        return rng.normal(mean, math.sqrt(self.sigma2), size=size)


@dataclass(frozen=True)
class JointTable:
    """Explicit finite joint distribution over (S, signal profile).

    entries: tuples (s, profile, weight) with positive rational weights
    summing to 1. Used for non-product counterexamples (XOR).
    """

    n: int
    entries: tuple

    def __post_init__(self):
        entries = tuple((int(s), tuple(prof), Fraction(w)) for (s, prof, w) in self.entries)
        if any(w <= 0 for (_s, _p, w) in entries):
            raise ValueError("joint weights must be positive")
        if sum(w for (_s, _p, w) in entries) != 1:
            raise ValueError("joint weights must sum to 1 exactly")
        if any(len(p) != self.n for (_s, p, _w) in entries):
            raise ValueError("profile length mismatch")
        object.__setattr__(self, "entries", entries)


def xor_pair() -> JointTable:
    """Two fair independent bits with S = psi1 + psi2 mod 2.

    All four signal profiles have weight 1/4 and determine S exactly, yet
    each signal alone (and each pair of neighbors' beliefs) says nothing.
    """
    q = Fraction(1, 4)
    entries = []
    for a in (0, 1):
        for b in (0, 1):
            entries.append(((a + b) % 2, (a, b), q))
    return JointTable(n=2, entries=tuple(entries))


@dataclass(frozen=True)
class WorldSample:
    s: int
    signals: tuple


def sample_world(model, n, rng) -> WorldSample:
    """Draw (S, signal profile): S fair, signals conditionally i.i.d.

    For a JointTable, draws an entry by its weight (profile length must be n).
    """
    if isinstance(model, JointTable):
        if model.n != n:
            raise ValueError(f"joint table is over {model.n} agents, asked for {n}")
        w = np.array([float(wt) for (_s, _p, wt) in model.entries])
        k = int(rng.choice(len(model.entries), p=w))
        s, prof, _ = model.entries[k]
        return WorldSample(s=s, signals=prof)
    s = int(rng.integers(0, 2))
    sig = model.sample(s, rng, size=n)
    return WorldSample(s=s, signals=tuple(sig))


def trial_rng(seed, trial, agent=None):
    """Counter-based reproducible stream keyed by (seed, trial[, agent])."""
    key = (trial,) if agent is None else (trial, agent)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# -- beliefs -----------------------------------------------------------------

def private_belief(model, x):
    """P(S=1 | signal = x) under the uniform prior.

    Exact Fraction for finite models: mu1(x) / (mu0(x) + mu1(x)).
    """
    if isinstance(model, FiniteModel):
        p0, p1 = model.prob(x, 0), model.prob(x, 1)
        return p1 / (p0 + p1)
    if isinstance(model, GaussianLLR):
        return 1.0 / (1.0 + math.exp(-model.llr(x)))
    raise TypeError(f"no private beliefs for {type(model).__name__}")


def belief_support(model):
    """('bounded', lo, hi) with exact alphabet extremes, or ('unbounded',)."""
    if isinstance(model, FiniteModel):
        beliefs = [private_belief(model, x) for x in model.alphabet]
        return ("bounded", min(beliefs), max(beliefs))
    if isinstance(model, GaussianLLR):
        return ("unbounded",)
    raise TypeError(f"no belief support for {type(model).__name__}")


# -- distances ---------------------------------------------------------------

def tv_distance(p, q):
    """Total variation distance between two finite distributions (dict or seq)."""
    if isinstance(p, dict) or isinstance(q, dict):
        keys = set(p) | set(q)
        diff = sum(abs(p.get(k, 0) - q.get(k, 0)) for k in keys)
    else:
        if len(p) != len(q):
            raise ValueError("supports must match")
        diff = sum(abs(a - b) for a, b in zip(p, q))
    return diff / 2


def delta_independence(joint: dict, tol=None):
    """Distance of a finite joint distribution from the product of its marginals.

    joint maps outcome tuples to weights summing to 1. Returns (within, excess)
    where excess = dTV(joint, product) and within = (excess <= tol) when a
    tolerance is given, else None.
    """
    total = sum(joint.values())
    if total != 1 and abs(float(total) - 1.0) > 1e-12:
        raise ValueError(f"joint weights sum to {total}, not 1")
    ks = next(iter(joint))
    k = len(ks)
    marginals = [{} for _ in range(k)]
    for outcome, w in joint.items():
        for i, x in enumerate(outcome):
            marginals[i][x] = marginals[i].get(x, 0) + w
    product = {}
    for outcome in joint:
        w = 1
        for i, x in enumerate(outcome):
            w = w * marginals[i][x]
        product[outcome] = w
    # product may put mass outside joint's support
    support = set(joint)
    for combo in itertools.product(*[sorted(m, key=repr) for m in marginals]):
        if combo not in support:
            w = 1
            for i, x in enumerate(combo):
                w = w * marginals[i][x]
            product[combo] = w
    excess = tv_distance(joint, product)
    within = None if tol is None else (excess <= tol)
    return within, excess


# -- file format -------------------------------------------------------------

def read_signal_model(path) -> FiniteModel:
    """Text format: first line the alphabet size k, then two lines of k
    rationals (the measures given S=0 and S=1). Alphabet is 0..k-1."""
    with open(path) as fh:
        toks = fh.read().split()
    if not toks:
        raise ValueError(f"{path}: empty signal model file")
    k = int(toks[0])
    if len(toks) != 1 + 2 * k:
        raise ValueError(f"{path}: expected {2 * k} rationals after the size, got {len(toks) - 1}")
    vals = [Fraction(t) for t in toks[1:]]
    return FiniteModel(alphabet=tuple(range(k)), mu0=tuple(vals[:k]), mu1=tuple(vals[k:]))


def write_signal_model(model: FiniteModel, path):
    with open(path, "w") as fh:
        fh.write(f"{len(model.alphabet)}\n")
        fh.write(" ".join(str(q) for q in model.mu0) + "\n")
        fh.write(" ".join(str(q) for q in model.mu1) + "\n")


# -- three-bit MAP accuracy --------------------------------------------------

def three_bit_epsilon(p):
    """Explicit three-bit MAP advantage (1/100)(2p-1)(3p^2 - 2p^3 - p)."""
    p = Fraction(p)
    return Fraction(1, 100) * (2 * p - 1) * (3 * p * p - 2 * p ** 3 - p)


def map_accuracy_three_bits(p, d1=0, d2=0, d3=0):
    """Exact accuracy of the MAP estimate of S from three conditional bits.

    Bit i has P(X_i=1 | S=1) = p + d_i and P(X_i=0 | S=0) = p - d_i, the
    bits conditionally independent, S fair. Enumerates the 8 outcomes under
    both states; returns (accuracy, rule) with rule mapping each outcome
    triple to the MAP guess.

    Works on integer numerators over D, the lcm of the denominators: each
    bit probability is an integer over D, so each outcome's weight under a
    state is an integer over 2 D^3, and only the accuracy becomes a Fraction.
    """
    p = Fraction(p)
    ds = [Fraction(d) for d in (d1, d2, d3)]
    den = math.lcm(p.denominator, *(d.denominator for d in ds))
    P = p.numerator * (den // p.denominator)
    dn = [d.numerator * (den // d.denominator) for d in ds]
    if not den < 2 * P < 2 * den:
        raise ValueError("need 1/2 < p < 1")
    if not all(0 < q < den for d in dn for q in (P + d, P - d)):
        raise ValueError("degenerate parameters: a conditional probability leaves (0,1)")
    rule = {}
    acc = 0
    for x in itertools.product((0, 1), repeat=3):
        w1 = w0 = 1
        for xi, d in zip(x, dn):
            w1 *= P + d if xi == 1 else den - P - d
            w0 *= P - d if xi == 0 else den - P + d
        # ties broken toward 1; tie outcomes contribute equally either way
        rule[x] = 1 if w1 >= w0 else 0
        acc += max(w0, w1)
    return Fraction(acc, 2 * den ** 3), rule
