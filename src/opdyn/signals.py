"""World-state/private-signal probability models and distribution utilities.

The world is a hidden fair bit S; conditioned on S the agents' private
signals are i.i.d. from one of two mutually absolutely continuous measures.
We support finite alphabets with exact rational probabilities (the backbone
of every brute-force oracle), the symmetric two-point Bernoulli family,
whose Monte Carlo samplers all draw from bernoulli_blocks, a Gaussian
family with unbounded private beliefs, and explicit finite joint tables for
counterexamples such as the XOR pair.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .harness_util import read_rational, scaled

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
        twice = [x for x, k in Counter(self.alphabet).items() if k > 1]
        if twice:
            raise ValueError(f"letter {twice[0]!r} appears more than once in the alphabet")
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


_MC_BLOCK = 1 << 16     # entries in a block of signal draws


def bernoulli_blocks(rng, trials, n, delta, unit=1):
    """(s, blocks) of the signal stream: s = rng.integers(0, 2, trials), then blocks yields (lo, match).

    match = rng.random((rows, n)) < 1/2 + delta, and agent i's signal in trial lo + r is s[lo + r] iff
    match[r, i]. rows, a multiple of unit, holds about _MC_BLOCK entries; Generator.random fills row-major,
    so every block size repeats the one whole draw random((trials, n)). Use the blocks up before rng draws again.
    """
    s = rng.integers(0, 2, size=trials)
    rows = unit * max(1, _MC_BLOCK // (unit * n))
    return s, ((lo, rng.random((min(rows, trials - lo), n)) < 0.5 + float(delta)) for lo in range(0, trials, rows))


def check_delta(delta):
    """delta as a Fraction; ValueError unless 0 <= delta <= 1/2, where 1/2 + delta is a probability.

    delta = 0 draws fair signals and delta = 1/2 signals that all equal S.
    """
    delta = Fraction(delta)
    if not 0 <= delta <= Fraction(1, 2):
        raise ValueError(f"delta must lie in [0, 1/2], got {delta}")
    return delta


def cube(n, a):
    """All a^n profiles of n agents over the letters 0 .. a - 1: the one enumerator of the signal cube.

    An (a^n, n) int64 array whose row s holds the base-a digits of s, agent j
    on digit j, so agent 0 varies fastest. np.indices fills it by copies, ten
    times faster than dividing the digits out of np.arange(a^n); the result
    is a transposed view, and cube(n, a).T[::-1] is C-contiguous.
    """
    return np.indices((a,) * n, dtype=np.int64).reshape(n, a ** n)[::-1].T


def bernoulli_cube(delta, n):
    """Integer weights of n i.i.d. bits that each equal S w.p. 1/2 + delta, by count.

    With 1/2 + delta = a/b, a bit vector with k bits equal to S has
    probability w[k] / den, where w[k] = a^k (b - a)^(n - k) and den = b^n.
    Any rational delta is taken, 0 and negative values included.
    """
    hit = Fraction(1, 2) + Fraction(delta)
    a, b = hit.numerator, hit.denominator
    return [a ** k * (b - a) ** (n - k) for k in range(n + 1)], b ** n


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
    vals = [read_rational(t) for t in toks[1:]]
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
    den, (P, *dn) = scaled([p, *ds])
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
