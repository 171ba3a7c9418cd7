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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from .harness_util import content_lines, read_rational, scaled

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


def check_trials(trials):
    """trials as an int; ValueError unless it is an integer of at least 1. The one trial check of every sampler."""
    if not isinstance(trials, Integral) or trials < 1:
        raise ValueError(f"a sampler needs at least one trial, got trials={trials!r}")
    return int(trials)


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


def trial_rng(seed, trial, agent=None):
    """Counter-based reproducible stream keyed by (seed, trial[, agent])."""
    key = (trial,) if agent is None else (trial, agent)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# -- file format -------------------------------------------------------------

def read_signal_model(path) -> FiniteModel:
    """Signal file: the alphabet size k, then the measures given S=0 and S=1, each a line of k rationals.

    The alphabet is 0..k-1. Every measure is read exactly, by
    harness_util.read_rational. Blank and `#` lines are skipped
    (harness_util.content_lines). A malformed line, a wrong count of
    rationals on a line or of measure lines raises ValueError naming the line.
    """
    lines = [(no, ln.split()) for no, ln in content_lines(path)]
    if not lines:
        raise ValueError(f"{path}: empty signal model file")
    (no, head), rows = lines[0], lines[1:]
    try:
        if len(head) != 1:
            raise ValueError(f"expected the alphabet size, got {' '.join(head)!r}")
        k = int(head[0])
        if k < 1:
            raise ValueError(f"an alphabet needs at least 1 letter, got {k}")
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from None
    if len(rows) != 2:
        no = lines[min(len(lines), 4) - 1][0]      # the first line past the two measures, else the last line
        raise ValueError(f"line {no}: expected 2 lines of {k} rationals after the size, got {len(rows)}")
    measures = []
    for no, toks in rows:
        try:
            if len(toks) != k:
                raise ValueError(f"expected {k} rationals, got {len(toks)}")
            measures.append(tuple(read_rational(t) for t in toks))
        except ValueError as exc:
            raise ValueError(f"line {no}: {exc}") from None
    return FiniteModel(alphabet=tuple(range(k)), mu0=measures[0], mu1=measures[1])


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
