"""Small numeric helpers: exact rational conversion and deterministic formatting.

The toolkit does its curve arithmetic (breakpoints, piecewise-linear
evaluation) in :class:`fractions.Fraction` so that equality tests and
tolerance-zero checks are meaningful.  Interval geometry stays as integer
numerators over ``2^scale`` from construction to count.  Floats are
accepted at the API boundary and converted exactly; they re-enter only in
reports and CSV output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, float, str, Fraction]


def as_fraction(x: Rational) -> Fraction:
    """Convert ``x`` to an exact Fraction.

    Strings accept both "3/4" and decimal forms ("0.75").  Floats convert
    via their exact binary value, so ``as_fraction(0.1)`` is the IEEE double
    nearest 1/10, not 1/10 itself; pass a string or Fraction when the exact
    rational matters.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("boolean is not a number here")
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def fmt_number(x) -> str:
    """Deterministic, exact text form of a number for the line formats.

    Fractions with a terminating decimal expansion print as decimals
    ("0.15625"); other rationals print as "num/den" so parsing the text
    back reproduces the value exactly.  Floats use the shortest
    round-trip repr.  All forms are stable across runs and platforms.
    """
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        den = x.denominator
        twos = 0
        while den % 2 == 0:
            den //= 2
            twos += 1
        fives = 0
        while den % 5 == 0:
            den //= 5
            fives += 1
        if den == 1:
            shift = max(twos, fives)
            scaled = x.numerator * 10**shift // x.denominator
            sign = "-" if scaled < 0 else ""
            digits = str(abs(scaled)).rjust(shift + 1, "0")
            whole, frac = digits[:-shift], digits[-shift:]
            return f"{sign}{whole}.{frac}" if shift else f"{sign}{whole}"
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def fmt_decimal(x) -> str:
    """Plain decimal text for CSV numeric columns (never "num/den")."""
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        s = fmt_number(x)
        return s if "/" not in s else repr(float(x))
    return repr(float(x))
