"""Two-scale branching functions on the truncated half-plane 0 <= v <= u.

A branching function ``f(u, v)`` measures, in bits, how much a set branches
between the dyadic scales ``2^-v`` (outer) and ``2^-u`` (inner).  The class
of interest consists of functions that vanish on the diagonal, are
superadditive under splitting the scale range at any intermediate ``w``,
and are alpha-Lipschitz in ``u``.  This module provides the evaluable
variants used by the rest of the toolkit:

* ``lift``              -- ``f(u, v) = u * phi(v / u)`` from a spectrum,
* ``RegularizedBranch`` -- the output of ``regularize``, the minimum over
  base heights of differences of integer Lipschitz minorants,
* ``GridBranch``        -- explicit integer-grid samples, handy for
  perturbation experiments,

plus the operations on them: Lipschitz regularization, the normalized
scale limit and property checks.

Values are exact Fractions, so tolerance-zero property checks are
meaningful.  The triple scan behind ``regularize`` and ``check_branch``
compares integers over a common denominator, and ``regularize`` keeps and
evaluates its minorants as those integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ParameterError
from ._num import PiecewiseLinear, Rational, as_fraction, lipschitz_minorant, scaled
from .spectra import Spectrum, _chain_holds

__all__ = [
    "BranchFn",
    "LiftBranch",
    "RegularizedBranch",
    "GridBranch",
    "LipschitzProfile",
    "EtaBound",
    "BranchReport",
    "PreconditionReport",
    "lift",
    "regularize",
    "lambda_limit",
    "check_branch",
]


@dataclass(frozen=True)
class LipschitzProfile(PiecewiseLinear):
    """Piecewise-linear one-variable profile g with a slope bound.

    Knots ascend; values are non-negative and non-decreasing with exact
    slope at most ``alpha`` between consecutive knots.  When the domain
    starts at 0 the profile must vanish there.  ``at`` reads the integer
    form (``PiecewiseLinear``), clamped to the end values outside the knots.
    """

    knots: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    alpha: Fraction

    def __post_init__(self):
        ks, vs = self.knots, self.values
        if len(ks) != len(vs) or not ks:
            raise ParameterError("profile needs matching non-empty knots/values")
        if any(a >= b for a, b in zip(ks, ks[1:])):
            raise ParameterError("profile knots must be strictly ascending")
        if any(v < 0 for v in vs):
            raise ParameterError("profile values must be non-negative")
        if ks[0] == 0 and vs[0] != 0:
            raise ParameterError("profile must vanish at 0")
        if self.alpha < 0:
            raise ParameterError("alpha must be non-negative")
        self._derive_form(ks, vs, self.alpha)
        top = scaled(self.alpha, self.L)
        for k0, k1, (_, s) in zip(ks, ks[1:], self.pieces):
            if s < 0:
                raise ParameterError("profile must be non-decreasing")
            if s > top:
                raise ParameterError(
                    f"profile slope exceeds alpha={self.alpha} on [{k0}, {k1}]"
                )

    def at(self, u: Rational) -> Fraction:
        return self.lifted(1, min(max(as_fraction(u), self.knots[0]), self.knots[-1]))

    def max_slope(self) -> Fraction:
        return max(self.piece_slopes())


class EtaBound:
    """A non-negative error allowance eta(u), constant or piecewise-linear.

    ``validate(u_max)`` enforces the configured sublinearity gate
    ``eta(u_max) / u_max <= threshold``; desk-scale data cannot witness a
    true limit, so the gate is a knob rather than a theorem.
    """

    def __init__(self, profile: LipschitzProfile | None = None,
                 constant: Rational | None = None,
                 threshold: Rational = 1):
        if (profile is None) == (constant is None):
            raise ParameterError("provide exactly one of profile/constant")
        self._profile = profile
        self._constant = None if constant is None else as_fraction(constant)
        if self._constant is not None and self._constant < 0:
            raise ParameterError("eta must be non-negative")
        self.threshold = as_fraction(threshold)
        if self.threshold < 0:
            raise ParameterError(f"threshold must be non-negative, got {self.threshold}")

    @classmethod
    def const(cls, c: Rational, threshold: Rational = 1) -> "EtaBound":
        return cls(constant=c, threshold=threshold)

    @property
    def constant(self) -> Fraction | None:
        """The constant value, or None when backed by a profile."""
        return self._constant

    def at(self, u: Rational) -> Fraction:
        if self._constant is not None:
            return self._constant
        return self._profile.at(u)

    def validate(self, u_max: Rational) -> None:
        top = as_fraction(u_max)
        if top <= 0:
            raise ParameterError("u_max must be positive")
        if self.at(top) / top > self.threshold:
            raise ParameterError(
                f"eta({top}) / {top} exceeds the sublinearity threshold "
                f"{self.threshold}"
            )

    def __repr__(self):
        if self._constant is not None:
            return f"EtaBound.const({self._constant})"
        return f"EtaBound(profile over {self._profile.knots[0]}..{self._profile.knots[-1]})"


class BranchFn:
    """Base class: evaluable on 0 <= v <= u <= u_max.

    ``certified`` records whether the diagonal/superadditive/Lipschitz
    properties are guaranteed by construction; deliberately broken inputs
    keep evaluating with ``certified=False`` so negative tests can run.
    """

    def __init__(self, u_max: Rational, certified: bool):
        self.u_max = as_fraction(u_max)
        if self.u_max <= 0:
            raise ParameterError("u_max must be positive")
        self.certified = bool(certified)

    def _domain(self, u: Rational, v: Rational) -> tuple[Fraction, Fraction]:
        uu, vv = as_fraction(u), as_fraction(v)
        if not (0 <= vv <= uu <= self.u_max):
            raise DomainError(
                f"(u, v) = ({u}, {v}) outside 0 <= v <= u <= {self.u_max}"
            )
        return uu, vv

    def value(self, u: Rational, v: Rational):
        raise NotImplementedError


class LiftBranch(BranchFn):
    """``f(u, v) = u * phi(v / u)``, the canonical lift of a spectrum."""

    def __init__(self, spec: Spectrum, u_max: Rational, certified: bool):
        super().__init__(u_max, certified)
        self.spec = spec

    def value(self, u: Rational, v: Rational) -> Fraction:
        return self.spec.lifted(*self._domain(u, v))


class RegularizedBranch(BranchFn):
    """The output of ``regularize``: differences of integer minorants.

    ``minorants[z][k]`` is ``den * m_z(z + k)`` for the minorant ``m_z`` of
    the slice at base height z, on the integers z..int(u_max).  The value
    at (u, v) is the minimum of ``m_z(u) - m_z(v)`` over the integers
    z <= v, with each ``m_z`` affine between its integer knots and
    constant past the last one.  Integer points read a table of that
    minimum built once here; elsewhere each ``m_z`` is read in integers.
    """

    def __init__(self, u_max: Rational, precondition: "PreconditionReport",
                 minorants: list[list[int]], den: int):
        super().__init__(u_max, precondition.passed)
        self.precondition = precondition
        self.minorants = minorants
        self.den = den
        self._values = [[Fraction(min(m[u - z] - m[v - z]
                                      for z, m in enumerate(minorants[:v + 1])), den)
                         for v in range(u + 1)] for u in range(len(minorants))]

    def value(self, u: Rational, v: Rational) -> Fraction:
        table = self._values
        if type(u) is int and type(v) is int and 0 <= v <= u < len(table):
            return table[u][v]
        uu, vv = self._domain(u, v)
        pu, qu, pv, qv = uu.numerator, uu.denominator, vv.numerator, vv.denominator
        return Fraction(min(_scaled_at(m, z, pu, qu) * qv - _scaled_at(m, z, pv, qv) * qu
                            for z, m in enumerate(self.minorants[:pv // qv + 1])),
                        self.den * qu * qv)


def _scaled_at(m: list[int], z: int, p: int, q: int) -> int:
    """q * m(p/q) for p/q >= z, m affine on its knots z, z+1, ... and constant past them."""
    k, r = divmod(p - z * q, q)
    if k >= len(m) - 1:
        return m[-1] * q
    return m[k] * (q - r) + m[k + 1] * r


class GridBranch(BranchFn):
    """Explicit samples on the integer grid, never certified.

    Used for perturbation experiments.  Keys must be integer points
    0 <= v <= u <= u_max, and every such point needs a sample; values are
    exact Fractions.  ``u`` must be an integer; a fractional ``v`` rounds
    up to the next integer, the same pessimistic convention the
    lower-spectrum estimator uses, so windowed limits work on grid-backed
    functions too.
    """

    def __init__(self, samples: dict[tuple[int, int], Rational], u_max: int):
        super().__init__(u_max, False)
        top = int(u_max)
        self.samples = {}
        for (u, v), x in samples.items():
            if u != int(u) or v != int(v):
                raise ParameterError(f"grid sample key ({u}, {v}) is not an integer point")
            if not 0 <= v <= u <= top:
                raise ParameterError(
                    f"grid sample key ({u}, {v}) outside 0 <= v <= u <= {top}")
            self.samples[int(u), int(v)] = as_fraction(x)
        for u in range(top + 1):
            for v in range(u + 1):
                if (u, v) not in self.samples:
                    raise ParameterError(f"grid sample missing at ({u}, {v})")

    @classmethod
    def from_function(cls, fn, u_max: int) -> "GridBranch":
        samples = {
            (u, v): fn(u, v) for u in range(int(u_max) + 1) for v in range(u + 1)
        }
        return cls(samples, u_max)

    def value(self, u: Rational, v: Rational) -> Fraction:
        uu, vv = self._domain(u, v)
        if uu.denominator != 1:
            raise DomainError("grid branch functions need integer u")
        v_int = min(int(math.ceil(vv)), int(uu))
        return self.samples[(int(uu), v_int)]


def lift(spec: Spectrum, u_max: Rational, cert_grid: int = 64) -> LiftBranch:
    """Lift a spectrum to the two-scale domain.

    The lift is certified when the spectrum passes the superadditivity and
    weak-Lipschitz checks (one exact scan of the paper's chain); otherwise
    it is still constructed, flagged uncertified, because the negative
    tests need broken examples to probe the checkers.
    """
    return LiftBranch(spec, u_max, certified=_chain_holds(spec, cert_grid))


def _scan_triples(f: BranchFn, alpha: Rational, eta: EtaBound | None = None):
    """Sample ``f`` once on the integer grid v <= u and scan every triple.

    Returns ``(ints, L, step, (worst_s, wit_s), (worst_l, wit_l))``: ``L``
    is the lcm of the denominators of every sample, of ``alpha`` and of
    every ``eta(u)``, ``ints[u][v]`` is ``L * f(u, v)`` and ``step`` is
    ``L * alpha``; ``worst_s`` is the largest superadditivity margin
    ``f(u,w) + f(w,v) - f(u,v)`` and ``worst_l`` the largest Lipschitz
    margin ``f(u,v) - f(w,v) - alpha*(u-w) - eta(u)`` over v <= w <= u,
    each with the first triple (u, w, v) in scan order that reaches it.
    ``eta`` defaults to zero; a negative ``alpha``, then an ``eta``
    failing its gate, raise ``ParameterError`` first.  The scan compares
    the margins times ``L``, exact integers, so its comparisons and
    witnesses are those of the Fraction margins, returned as Fractions.
    """
    a = as_fraction(alpha)
    if a < 0:
        raise ParameterError("alpha must be non-negative")
    if eta is not None:
        eta.validate(f.u_max)
    top = int(f.u_max)
    rows = [[f.value(u, v) for v in range(u + 1)] for u in range(top + 1)]
    etas = [0 if eta is None else eta.at(u) for u in range(top + 1)]
    den = math.lcm(a.denominator, *(e.denominator for e in etas),
                   *(x.denominator for row in rows for x in row))
    ints = [[scaled(x, den) for x in row] for row in rows]
    step = scaled(a, den)
    worst_s = worst_l = wit_s = wit_l = None
    for u, (f_u, eta_u) in enumerate(zip(ints, [scaled(e, den) for e in etas])):
        for w in range(u + 1):
            f_w, f_uw = ints[w], f_u[w]
            slack = step * (u - w) + eta_u
            for v in range(w + 1):
                drop = f_u[v] - f_w[v]
                m_s = f_uw - drop
                m_l = drop - slack
                if worst_s is None or m_s > worst_s:
                    worst_s, wit_s = m_s, (u, w, v)
                if worst_l is None or m_l > worst_l:
                    worst_l, wit_l = m_l, (u, w, v)
    return (ints, den, step, (Fraction(worst_s, den), wit_s),
            (Fraction(worst_l, den), wit_l))


@dataclass(frozen=True)
class PreconditionReport:
    """Result of scanning regularization preconditions on every integer triple."""

    passed: bool
    diagonal_witness: tuple[int, ...] | None
    superadd_violation: float
    superadd_witness: tuple[int, int, int] | None
    lipschitz_violation: float
    lipschitz_witness: tuple[int, int, int] | None


def regularize(f: BranchFn, alpha: Rational, eta: EtaBound) -> RegularizedBranch:
    """Replace ``f`` by a certified branch function within ``eta`` below it.

    For every integer base height z the slice ``u -> f(u, z)`` on the
    integers z..u_max is replaced by its maximal non-decreasing
    alpha-Lipschitz minorant ``m_z``, one ``lipschitz_minorant`` pass over
    the scan's integer samples with step ``alpha * L``.  The output is the
    infimum over z of the strip envelopes, ``m_z(u) - m_z(v)`` for z <= v
    and ``alpha * (u - v)`` for z > v, evaluated as the minimum over the
    z <= v alone.  That drops nothing: z = 0 is always there, and ``m_0``,
    rising by at most ``alpha`` per unit step between its integer knots and
    constant past the last, is alpha-Lipschitz, so
    ``m_0(u) - m_0(v) <= alpha * (u - v)``.

    On the integer grid the output ``g`` satisfies ``f - eta <= g <= f``
    and the certified-class properties exactly, provided ``f`` satisfies
    the preconditions scanned on every integer triple (zero diagonal,
    superadditivity, and u-Lipschitz up to ``eta``).  Violations do not
    abort the construction: they are reported on the returned object's
    ``precondition`` attribute and clear its ``certified`` flag, so
    deliberately broken inputs can still be regularized and inspected.
    A negative sample, or an ``m_0`` that does not vanish at 0, raises
    ``ParameterError``; the slices are checked in order of z.
    """
    ints, den, step, (worst_s, wit_s), (worst_l, wit_l) = _scan_triples(f, alpha, eta)
    diag = next(((u,) for u, f_u in enumerate(ints) if f_u[u] != 0), None)
    report = PreconditionReport(
        passed=diag is None and worst_s <= 0 and worst_l <= 0,
        diagonal_witness=diag,
        superadd_violation=max(0.0, float(worst_s)),
        superadd_witness=wit_s if worst_s > 0 else None,
        lipschitz_violation=max(0.0, float(worst_l)),
        lipschitz_witness=wit_l if worst_l > 0 else None,
    )
    minorants = []
    for z in range(len(ints)):
        column = [f_u[z] for f_u in ints[z:]]
        if min(column) < 0:
            raise ParameterError("sample values must be non-negative")
        m = lipschitz_minorant(column, step)
        if z == 0 and m[0] != 0:
            raise ParameterError("profile must vanish at 0")
        minorants.append(m)
    return RegularizedBranch(f.u_max, report, minorants, den)


def lambda_limit(f: BranchFn, theta: Rational, u_min: Rational,
                 u_max: Rational | None = None):
    """Finite-window surrogate of the normalized limit of ``f``.

    Returns ``min f(u, theta*u) / u`` over ``u = u_min, u_min+1, ...`` up
    to ``u_max`` (default: the function's own bound).  For lift-backed
    functions this equals the spectrum value at ``theta`` at every ``u``,
    so the window does not matter; for grid samples it is a pessimistic
    finite-scale reading of the liminf.
    """
    th = as_fraction(theta)
    if not (0 < th <= 1):
        raise ParameterError("theta must lie in (0, 1]")
    lo = as_fraction(u_min)
    hi = f.u_max if u_max is None else as_fraction(u_max)
    if lo <= 0 or lo > hi or hi > f.u_max:
        raise ParameterError(f"empty or out-of-range window [{u_min}, {u_max}]")
    return min(f.value(u, th * u) / u
               for u in (lo + k for k in range(int(hi - lo) + 1)))


@dataclass(frozen=True)
class BranchReport:
    """Property-check outcome for a branch function on the integer grid."""

    passed: bool
    superadd_violation: float
    superadd_witness: tuple | None
    lipschitz_violation: float
    lipschitz_witness: tuple | None
    tolerance: float


def check_branch(f: BranchFn, alpha: Rational,
                 tolerance: float = 0.0) -> BranchReport:
    """Verify superadditivity and the u-Lipschitz bound on every integer triple.

    Margins are compared exactly, as integers over a common denominator,
    so a tolerance of zero is a meaningful request.  The witnesses are the
    first triples (u, w, v) reaching the largest margins, whether or not
    those are violations.  A negative ``alpha`` raises ``ParameterError``.
    """
    *_, (worst_s, wit_s), (worst_l, wit_l) = _scan_triples(f, alpha)
    v_s = max(0.0, float(worst_s))
    v_l = max(0.0, float(worst_l))
    return BranchReport(
        passed=v_s <= tolerance and v_l <= tolerance,
        superadd_violation=v_s,
        superadd_witness=wit_s,
        lipschitz_violation=v_l,
        lipschitz_witness=wit_l,
        tolerance=tolerance,
    )
