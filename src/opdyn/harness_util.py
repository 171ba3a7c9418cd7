"""Small helpers shared by the dynamics modules and the harness: rationals read from text, scaled integers,
statistics, debug records."""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from statistics import NormalDist

import numpy as np

# Python's default limit on the digits of int(str); a rational literal may need no more
LITERAL_MAX_DIGITS = 4300


def read_rational(text):
    """The exact rational that text spells in Fraction's syntax, such as 3, -1/4, 0.25 or 2.5e-1.

    The one reader of rationals from files and the command line. Raises
    ValueError on any other text, nan and inf among them, and on a zero
    denominator. A literal of more than LITERAL_MAX_DIGITS characters, or
    whose exponent takes its numerator or denominator past that many digits,
    is refused from the text, before any integer is built: Fraction builds
    10^k for an exponent k itself, so Fraction("1e-10000000") alone takes
    seconds.
    """
    mantissa, _, exp = text.lower().partition("e")
    exp = exp.replace("_", "").lstrip("+-")
    if len(text) > LITERAL_MAX_DIGITS or len(mantissa) + (int(exp) if exp.isdecimal() else 0) > LITERAL_MAX_DIGITS:
        shown = text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"
        raise ValueError(f"the rational {shown!r} needs more than {LITERAL_MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator: {exc}") from None


def content_lines(path):
    """(line number from 1, stripped text) of each line of a text file that is neither blank nor a `#` comment."""
    with open(path, encoding="utf-8") as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1)]
    return [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]


def scaled(values):
    """(D, ints): D the lcm of the denominators of the rationals `values`, ints[k] = values[k] * D.

    values are Fractions or ints; ints holds Python integers. The one place
    where the exact kernels put rationals over a common denominator.
    """
    values = list(values)
    D = math.lcm(*(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


def unscaled(D, ints):
    """The inverse of scaled: [Fraction(x, D) for x in ints], one Fraction per distinct value.

    ints is a sequence of Python integers; equal values share one Fraction.
    """
    value = {x: Fraction(x, D) for x in set(ints)}
    return list(map(value.__getitem__, ints))


def int_dtype(bound):
    """The dtype for integers that, partial sums included, never exceed bound in absolute value.

    np.int64 below 2^63, else object: Python integers, which never overflow.
    """
    return np.int64 if bound < 2 ** 63 else object


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z = NormalDist().inv_cdf(0.975)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def debug(msg, *args):
    """Emit a DEBUG record on the "opdyn" logger, if logging is imported.

    opdyn never imports logging itself unless OPDYN_LOG asks for records (see
    cli.main), so start-up does not pay for it. Where nothing imported
    logging, no handler can listen, and the record is dropped.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("opdyn").debug(msg, *args)
