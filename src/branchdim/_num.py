"""Small numeric helpers shared by every layer.

Exact rational conversion and deterministic formatting, plus the one
implementation of each algorithm the layers share: the integer form of a
piecewise-linear curve (``PiecewiseLinear``, behind ``Spectrum`` and
``LipschitzProfile``), the maximal non-decreasing Lipschitz minorant of a
sequence (``lipschitz_minorant``), the merge of sorted integer ranges
(``merge_ranges``) and the integer numerator of a rational over a common
denominator (``scaled``).

Curves evaluate exactly, from integers into one :class:`fractions.Fraction`,
so equality tests and tolerance-zero checks are meaningful.  Interval
geometry stays as integer numerators over ``2^scale`` from construction to
count.  Floats are accepted at the API boundary and converted exactly; they
re-enter only in reports and CSV output.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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


class PiecewiseLinear:
    """Mixin: the integer form of a curve affine between ascending knots x_i.

    ``_derive_form`` sets attributes, not fields: ``B`` (lcm of the knot
    denominators), ``starts[i] = B*x_i`` per piece, ``L`` (lcm of the
    denominators of ``bound`` and of each piece's intercept a_i and slope
    s_i) and ``pieces[i] = (L*a_i, L*s_i)``.  One knot is one flat piece.
    """

    def _derive_form(self, xs, ys, bound) -> None:
        ss = [Fraction(y1 - y0, x1 - x0)
              for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])] or [Fraction(0)]
        ps = [(y - s * x, s) for x, y, s in zip(xs, ys, ss)]
        B = math.lcm(*(x.denominator for x in xs))
        L = math.lcm(bound.denominator, *(x.denominator for p in ps for x in p))
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "starts", tuple(scaled(x, B) for x in xs[:len(ps)]))
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "pieces", tuple((scaled(a, L), scaled(s, L)) for a, s in ps))

    def piece(self, p: int, q: int) -> int:
        """Index of the piece holding p/q (q > 0): the last start <= floor(B*p/q)."""
        return bisect_right(self.starts, self.B * p // q) - 1

    def lifted(self, u, v) -> Fraction:
        """u*g(v/u) = (a*u + s*v)/L, v/u in the knot range, from its piece; 0 at u = 0."""
        un, ud, vn, vd = u.numerator, u.denominator, v.numerator, v.denominator
        a, s = self.pieces[self.piece(vn * ud, vd * un) if un else 0]
        return Fraction(a * un * vd + s * vn * ud, self.L * ud * vd)

    def piece_slopes(self) -> tuple[Fraction, ...]:
        """Exact slope of each affine piece, left to right."""
        return tuple(Fraction(s, self.L) for _, s in self.pieces)


def lipschitz_minorant(values, step) -> list:
    """Largest non-decreasing sequence below ``values`` rising by at most ``step``.

    The forward pass ``p[k] = min(values[k], p[k-1] + step)`` enforces the
    ceiling coming from the left; the suffix-minimum pass then pulls each
    entry down to the smallest later one.  Together they give the
    pointwise-maximal feasible sequence.  Ints stay ints, Fractions stay
    Fractions.
    """
    out = list(values[:1])
    for x in values[1:]:
        out.append(min(x, out[-1] + step))
    for k in range(len(out) - 2, -1, -1):
        out[k] = min(out[k], out[k + 1])
    return out


def scaled(x, den: int) -> int:
    """``x * den`` as an int, for a rational ``x`` whose denominator divides ``den``."""
    return x.numerator * (den // x.denominator)


def merge_ranges(ranges) -> list[tuple[int, int]]:
    """Ranges ``(lo, hi)`` sorted by ``lo``, touching or overlapping ones merged."""
    out: list[tuple[int, int]] = []
    for lo, hi in ranges:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


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
