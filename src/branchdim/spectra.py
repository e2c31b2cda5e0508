"""Piecewise-linear spectrum functions and their classification inequalities.

A *spectrum* here is a continuous piecewise-linear function
``phi : [0, 1] -> [0, alpha]`` describing how a dimension-like quantity,
scaled by ``(1 - theta)``, varies with the scale-ratio exponent ``theta``.
The module provides:

* exact constructors for the three named families used throughout the
  toolkit (``make_phi``, ``make_psi``, ``make_q``),
* exact pointwise minima of families (``min_family``),
* decision procedures for the inequalities that classify which functions
  occur as spectra of actual sets (``check_inequality``, ``check_joint``).

Every exact value of phi and of its lift u*phi(v/u) is a Fraction read by
``lifted`` from the integer form every curve shares (``PiecewiseLinear``).
Every two-parameter check asks that a spectrum's value at lambda*theta
lie between bounds of the form a(theta) + theta*b(lambda); alpha is the
spectrum's bound and phiL/phiA are the joint check's two spectra:

    check          value  lower bound               upper bound
    S              phi    phi(th) + th*phi(lam)     --
    W              phi    --                        (1-th)*alpha + th*phi(lam)
    AQ             phi    phi(th)                   phi(th) + th*phi(lam)
    JOINT lower    phiL   phiL(th) + th*phiL(lam)   phiA(th) + th*phiL(lam)
    JOINT Assouad  phiA   phiA(th) + th*phiL(lam)   phiA(th) + th*phiA(lam)

S and W together are the paper's chain phi(th) <= phi(lam*th) - th*phi(lam)
<= (1-th)*alpha.  One kernel, ``_scan``, decides every row in exact
integers on a grid augmented with every breakpoint and breakpoint ratio
(the corners of every affine region of the margins).  Reports carry float
margins.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, FormatError, ParameterError
from ._num import PiecewiseLinear, Rational, as_fraction, fmt_number, scaled

__all__ = [
    "Spectrum",
    "FamilyParams",
    "InequalityReport",
    "eval_spectrum",
    "make_phi",
    "make_psi",
    "make_q",
    "min_family",
    "check_inequality",
    "check_joint",
    "spectrum_from_breakpoints",
    "spectrum_to_text",
    "spectrum_from_text",
]

INEQUALITIES = ("S", "W", "M", "L", "AQ")
JOINT_CLAUSES = (
    "lower-chain lower bound",
    "lower-chain upper bound",
    "assouad-chain lower bound",
    "assouad-chain upper bound",
)


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of a named spectrum family member.

    ``kind`` is one of ``phi``, ``psi``, ``q``.  The two-piece families use
    ``(alpha, lam, t)``; the four-piece family uses ``(alpha, a1, a2, kappa)``
    together with the derived interior slopes ``alpha1 >= alpha2 >= kappa``.
    """

    kind: str
    alpha: Fraction
    lam: Fraction | None = None
    t: Fraction | None = None
    a1: Fraction | None = None
    a2: Fraction | None = None
    kappa: Fraction | None = None
    alpha1: Fraction | None = None
    alpha2: Fraction | None = None


@dataclass(frozen=True)
class Spectrum(PiecewiseLinear):
    """A continuous piecewise-linear function on [0, 1].

    ``breakpoints`` are strictly ascending Fractions with first 0 and last 1;
    ``values`` are the exact function values there, all within
    ``[0, alpha]``.  Evaluation is affine between breakpoints.  Instances
    are immutable and safe to share between threads.

    Construction derives the shared integer form over the breakpoints with
    alpha in ``L`` (see ``PiecewiseLinear``); ``lifted(u, v)`` is the lift
    u*phi(v/u) for 0 <= v <= u.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    alpha: Fraction
    params: FamilyParams | None = None

    def __post_init__(self):
        bps, vals = self.breakpoints, self.values
        if len(bps) != len(vals) or len(bps) < 2:
            raise ParameterError("need matching breakpoints/values, at least two")
        if bps[0] != 0 or bps[-1] != 1:
            raise ParameterError("breakpoints must start at 0 and end at 1")
        if any(b1 >= b2 for b1, b2 in zip(bps, bps[1:])):
            raise ParameterError("breakpoints must be strictly ascending")
        if self.alpha < 0:
            raise ParameterError("alpha must be non-negative")
        for v in vals:
            if v < 0 or v > self.alpha:
                raise ParameterError(
                    f"value {v} outside [0, {self.alpha}]"
                )
        self._derive_form(bps, vals, self.alpha)

    def eval_exact(self, theta: Fraction) -> Fraction:
        """Exact value at a Fraction; the nearest end value outside [0, 1]."""
        return self.lifted(1, min(max(theta, 0), 1))


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of a single inequality check.

    ``worst_violation`` is the positive part of the worst margin (0.0 when
    the inequality holds everywhere sampled), so ``passed`` is equivalent
    to ``worst_violation <= tolerance``.  ``worst_margin`` keeps the signed
    value for auditing how much slack a passing check had.  ``witness`` is
    the sample pair where the worst margin occurred.
    """

    inequality: str
    passed: bool
    worst_violation: float
    witness: tuple[float, float] | None
    tolerance: float
    worst_margin: float = float("-inf")
    binding: str | None = None


def eval_spectrum(spec: Spectrum, theta: Rational):
    """Evaluate ``spec`` at ``theta`` in [0, 1].

    Returns a Fraction for exact inputs (int/Fraction/str), a float for
    float input.  Raises :class:`DomainError` outside [0, 1].
    """
    want_float = isinstance(theta, float)
    x = as_fraction(theta)
    if x < 0 or x > 1:
        raise DomainError(f"theta={theta} outside [0, 1]")
    y = spec.eval_exact(x)
    return float(y) if want_float else y


def spectrum_from_breakpoints(breakpoints, values, alpha: Rational) -> Spectrum:
    """Build a validated Spectrum from raw breakpoint/value sequences."""
    return Spectrum(
        tuple(as_fraction(b) for b in breakpoints),
        tuple(as_fraction(v) for v in values),
        as_fraction(alpha),
    )


def _two_piece(kind: str, alpha: Rational, lam: Rational, t: Rational) -> Spectrum:
    """Validated two-piece spectrum through (lam, t) and (1, 0).

    Its value at 0 is alpha for ``phi`` and t + alpha*lam for ``psi``.
    """
    a, l, tt = as_fraction(alpha), as_fraction(lam), as_fraction(t)
    if a < 0:
        raise ParameterError("alpha must be non-negative")
    if not (0 < l <= 1):
        raise ParameterError(f"lambda={l} must lie in (0, 1]")
    if not (0 <= tt <= a * (1 - l)):
        raise ParameterError(
            f"t={tt} outside [0, alpha*(1-lambda)] = [0, {a * (1 - l)}]; "
            "the slope ordering of the two pieces would be violated"
        )
    params = FamilyParams(kind=kind, alpha=a, lam=l, t=tt)
    if l == 1:
        return Spectrum((Fraction(0), Fraction(1)), (a, Fraction(0)), a, params)
    at_zero = a if kind == "phi" else tt + a * l
    return Spectrum(
        (Fraction(0), l, Fraction(1)), (at_zero, tt, Fraction(0)), a, params
    )


def make_phi(alpha: Rational, lam: Rational, t: Rational) -> Spectrum:
    """Two-piece affine spectrum through (0, alpha), (lam, t), (1, 0).

    Requires ``0 <= t <= alpha*(1-lam)`` so the left piece falls at least
    as steeply as the right one.  With ``t`` equal to the upper bound the
    two pieces are collinear and the function is the straight segment from
    (0, alpha) to (1, 0).
    """
    return _two_piece("phi", alpha, lam, t)


def make_psi(alpha: Rational, lam: Rational, t: Rational) -> Spectrum:
    """Two-piece spectrum with constant slope ``-alpha`` left of ``lam``.

    The left piece is ``t + alpha*(lam - theta)`` on [0, lam]; the right
    piece is ``t*(1-theta)/(1-lam)``, the same right piece as
    ``make_phi``.  The result lies below the matching ``make_phi`` output
    everywhere on (0, lam), with equality exactly when ``t`` equals its
    upper bound ``alpha*(1-lam)``.  Parameter constraints are those of
    ``make_phi``; the value at 0, ``t + alpha*lam``, then automatically
    stays within [0, alpha].
    """
    return _two_piece("psi", alpha, lam, t)


def make_q(alpha: Rational, a1: Rational, a2: Rational, kappa: Rational) -> Spectrum:
    """Four-piece spectrum with a non-monotone normalized profile.

    The function is pinned down by its geometric description rather than a
    closed case formula: it is continuous with q(0) = alpha and q(1) = 0,
    has slope ``-kappa`` on [a1*a2, a1] and on [a2, 1], and on [0, a1*a2]
    and [a1, a2] lies on chords through (0, alpha) (the configurations
    where the weak-Lipschitz inequality is tight).  Solving the continuity
    chain backwards from q(1) = 0 gives

        q(a2)    = kappa*(1 - a2)
        alpha2   = (alpha - q(a2)) / a2          (slope on [a1, a2])
        q(a1)    = alpha - alpha2*a1
        q(a1*a2) = q(a1) + kappa*(a1 - a1*a2)
        alpha1   = (alpha - q(a1*a2)) / (a1*a2)  (slope on [0, a1*a2])

    With ``a1 <= a2`` and ``0 <= kappa <= alpha`` the derived slopes obey
    ``kappa <= alpha2 <= alpha1`` automatically (strictly when kappa < alpha
    and a2 < 1); unordered ``a1 > a2`` is rejected because the breakpoints
    would not be ascending.
    """
    a = as_fraction(alpha)
    b1, b2, k = as_fraction(a1), as_fraction(a2), as_fraction(kappa)
    if a < 0:
        raise ParameterError("alpha must be non-negative")
    if not (0 < b1 <= 1 and 0 < b2 <= 1):
        raise ParameterError("a1 and a2 must lie in (0, 1]")
    if not (0 <= k <= a):
        raise ParameterError(f"kappa={k} must lie in [0, alpha]")
    if b1 > b2:
        raise ParameterError(
            "a1 must not exceed a2 (breakpoints 0 < a1*a2 <= a1 <= a2 <= 1)"
        )
    q_a2 = k * (1 - b2)
    alpha2 = (a - q_a2) / b2
    q_a1 = a - alpha2 * b1
    q_a12 = q_a1 + k * (b1 - b1 * b2)
    alpha1 = (a - q_a12) / (b1 * b2)
    if not (k <= alpha2 <= alpha1):
        raise ParameterError(
            f"derived slopes unordered: alpha1={alpha1}, alpha2={alpha2}, kappa={k}"
        )
    params = FamilyParams(
        kind="q", alpha=a, a1=b1, a2=b2, kappa=k, alpha1=alpha1, alpha2=alpha2
    )
    raw = [
        (Fraction(0), a),
        (b1 * b2, q_a12),
        (b1, q_a1),
        (b2, q_a2),
        (Fraction(1), Fraction(0)),
    ]
    bps: list[Fraction] = []
    vals: list[Fraction] = []
    for x, y in raw:
        if bps and x == bps[-1]:
            if y != vals[-1]:  # degenerate interval must collapse consistently
                raise ParameterError("inconsistent degenerate breakpoint")
            continue
        bps.append(x)
        vals.append(y)
    return Spectrum(tuple(bps), tuple(vals), a, params)


def min_family(specs) -> Spectrum:
    """Exact pointwise minimum of spectra sharing one alpha.

    The output's breakpoints are the union of the inputs' breakpoints plus
    every crossing point of two input pieces, so the minimum is again an
    exact piecewise-linear Spectrum.
    """
    specs = list(specs)
    if not specs:
        raise ParameterError("min_family needs a non-empty family")
    alpha = specs[0].alpha
    if any(s.alpha != alpha for s in specs):
        raise ParameterError("min_family requires a common alpha")
    if len(specs) == 1:
        return specs[0]

    knots: set[Fraction] = set()
    for s in specs:
        knots.update(s.breakpoints)
    base = sorted(knots)
    lcm = math.lcm(*(s.L for s in specs))
    crossings: set[Fraction] = set()
    for x0, x1 in zip(base, base[1:]):
        # the piece of each spectrum covering [x0, x1), times the common lcm
        here = [[x * (lcm // s.L) for x in s.pieces[s.piece(x0.numerator, x0.denominator)]]
                for s in specs]
        for i, (ai, bi) in enumerate(here):
            for aj, bj in here[i + 1:]:
                if bi == bj:
                    continue
                x = Fraction(aj - ai, bi - bj)
                if x0 < x < x1:
                    crossings.add(x)
    knots.update(crossings)
    bps = tuple(sorted(knots))
    vals = tuple(min(s.eval_exact(x) for s in specs) for x in bps)
    return Spectrum(bps, vals, alpha)


def _sample_points(spec: Spectrum, grid_resolution: int) -> list[Fraction]:
    """Grid on (0, 1] augmented with breakpoints and breakpoint ratios.

    For piecewise-linear spectra the two-parameter margin functions of the
    (S)/(W)/(AQ) checks are bilinear on regions whose corners have both
    coordinates of the form b_i or b_i/b_j, so including those makes the
    sampled extremum the true extremum.
    """
    if type(grid_resolution) is not int:
        raise ParameterError(f"grid_resolution must be an integer, got {grid_resolution!r}")
    if grid_resolution < 2:
        raise ParameterError("grid_resolution must be at least 2")
    pts = {Fraction(i, grid_resolution) for i in range(1, grid_resolution + 1)}
    bps = [b for b in spec.breakpoints if 0 < b <= 1]
    pts.update(bps)
    for bi in bps:
        for bj in bps:
            r = bi / bj
            if 0 < r <= 1:
                pts.add(r)
    return sorted(pts)


def _integer_form(specs, points: list[Fraction]):
    """Exact integer tables for evaluating ``specs`` at sample products.

    Let D be the lcm of the denominators of ``points``, so point j is
    ``nums[j]/D``, and L the lcm of the specs' ``L``, so each stored
    piece (L_s*a_i, L_s*s_i) rescales by L/L_s to (L*a_i, L*s_i).  Then
    for every integer k >= 0

        L*D*D*phi(k/D**2) = L*a_i*D**2 + L*s_i*k,

    an integer, where piece i is the last whose start b_i has
    ceil(b_i*D**2) <= k.  A product lambda*theta of two sample points is
    such a k/D**2, so every margin of the two-parameter checks, times
    L*D**2, is an exact integer.

    Returns ``(nums, D, L, tables)`` with one ``(starts, intercepts,
    slopes, values)`` per spectrum: ``starts[i] = ceil(b_i*D**2)``,
    ``intercepts[i] = L*a_i*D**2``, ``slopes[i] = L*s_i`` and
    ``values[j] = L*D*phi(nums[j]/D)``.
    """
    den = math.lcm(*(x.denominator for x in points))
    nums = [scaled(x, den) for x in points]
    lcm = math.lcm(*(spec.L for spec in specs))
    den2 = den * den
    tables = []
    for spec in specs:
        ps = [(a * (lcm // spec.L), s * (lcm // spec.L)) for a, s in spec.pieces]
        starts = [-(-b * den2 // spec.B) for b in spec.starts]
        vals = [a * den + s * n for n in nums for a, s in [ps[spec.piece(n, den)]]]
        tables.append((starts, [a * den2 for a, _ in ps], [s for _, s in ps], vals))
    return nums, den, lcm, tables


# The rows of the module docstring's table as clauses (looked up, sign,
# a, b): the bound is a(theta) + theta*b(lambda), sign is +1 for a lower
# bound and -1 for an upper one, a and b index the spectra checked,
# a = "cap" is (1-theta)*alpha and b = None is 0.
_CLAUSES = {
    "S": ((0, 1, 0, 0),),
    "W": ((0, -1, "cap", 0),),
    "AQ": ((0, 1, 0, None), (0, -1, 0, 0)),
    "S+W": ((0, 1, 0, 0), (0, -1, "cap", 0)),
    "JOINT": ((0, 1, 0, 0), (0, -1, 1, 0), (1, 1, 1, 0), (1, -1, 1, 1)),
}


def _scan(specs, grid_resolution: int, clauses):
    """The one (lambda, theta) pair loop: the worst margin of ``clauses``.

    A clause's margin is sign*(bound - value), as an exact integer over
    L*D**2 (see ``_integer_form``).  Every pair of the union of
    ``_sample_points`` over ``specs`` is scanned, lambda outer and theta
    inner, and the first (lambda, theta, clause) to reach a strictly
    larger margin is kept.  Returns that margin as a Fraction,
    (lambda, theta) as floats and the clause's index.
    """
    samples = [_sample_points(s, grid_resolution) for s in specs]
    points = samples[0] if len(samples) == 1 else sorted(set().union(*samples))
    nums, den, lcm, tables = _integer_form(specs, points)
    a_terms = {i: [den * v for v in t[3]] for i, t in enumerate(tables)}
    a_terms["cap"] = [scaled(specs[0].alpha, lcm) * den * (den - t) for t in nums]
    b_terms = {i: t[3] for i, t in enumerate(tables)} | {None: [0] * len(nums)}
    work = [(s, sign, [(sign * x, t) for x, t in zip(a_terms[a], nums)], b_terms[b])
            for s, sign, a, b in clauses]
    worst = at = None
    for li, lam in enumerate(nums):
        runs = {}  # piece i covers the theta with lam*theta >= its start
        for s in {c[0] for c in clauses}:
            cuts = [bisect_left(nums, -(-x // lam)) for x in tables[s][0][1:]]
            runs[s] = list(zip([0] + cuts, cuts + [len(nums)]))
        margins = []
        for s, sign, xs, b in work:
            m = []
            for (lo, hi), c, e in zip(runs[s], tables[s][1], tables[s][2]):
                # on the run the value is c + e*lam*t, the bound a + t*b[li]
                d, c = sign * (b[li] - e * lam), -sign * c
                m += [x + t * d + c for x, t in xs[lo:hi]]
            margins.append(m)
        tops = [max(m) for m in margins]
        if worst is None or max(tops) > worst:
            worst = max(tops)  # first theta reaching it, first clause there
            at = (li, *min((m.index(worst), c) for c, m in enumerate(margins)
                           if tops[c] == worst))
    witness = (float(points[at[0]]), float(points[at[1]]))
    return Fraction(worst, lcm * den * den), witness, at[2]


def _chain_holds(spec: Spectrum, grid_resolution: int, tolerance: float = 1e-9) -> bool:
    """S and W in one scan of the paper's chain; passes exactly when both do."""
    worst, witness, _ = _scan((spec,), grid_resolution, _CLAUSES["S+W"])
    return _report("S+W", worst, witness, tolerance).passed


def _m_ratio_sequence(spec: Spectrum, points: list[Fraction]):
    """Values of phi(theta)/(1-theta) over the sample, with a limit at 1.

    At theta = 1 the ratio is the limit slope: the negated slope of the
    last piece when phi(1) = 0, and +infinity otherwise (the normalized
    profile blows up when phi does not vanish at 1).
    """
    at_one = -spec.piece_slopes()[-1] if spec.values[-1] == 0 else math.inf
    return [at_one if x == 1 else spec.eval_exact(x) / (1 - x) for x in points]


def check_inequality(
    spec: Spectrum,
    inequality: str,
    grid_resolution: int = 512,
    tolerance: float = 1e-9,
) -> InequalityReport:
    """Check one classification inequality and report the worst margin.

    ``S``, ``W`` and ``AQ`` hold when, for all lambda, theta in (0, 1],
    phi(lambda*theta) lies between these bounds (alpha = ``spec.alpha``):

        check  lower bound                  upper bound
        S      phi(theta) + theta*phi(lam)  --
        W      --                           (1-theta)*alpha + theta*phi(lam)
        AQ     phi(theta)                   phi(theta) + theta*phi(lam)

    ``_scan`` evaluates them at every pair of ``_sample_points``, lambda
    outer and theta inner, with each margin an exact integer over L*D**2;
    the first pair reaching the largest margin is the witness.  Also:

    * ``M``  phi(theta1)/(1-theta1) >= phi(theta2)/(1-theta2) for sampled
      theta1 < theta2, the value at 1 being the limit slope
    * ``L``  every piece slope bounded by alpha in absolute value
      (exactly the alpha-Lipschitz property for piecewise-linear phi);
      it reads only the pieces and ignores ``grid_resolution``

    A failed check is a report with ``passed=False``, not an error.
    """
    if inequality not in INEQUALITIES:
        raise ParameterError(f"unknown inequality {inequality!r}")

    if inequality == "L":
        bps = spec.breakpoints
        margins = [abs(s) - spec.alpha for s in spec.piece_slopes()]
        i = margins.index(max(margins))  # the first piece with the worst margin
        return _report(inequality, margins[i], (float(bps[i]), float(bps[i + 1])),
                       tolerance)

    if inequality == "M":
        points = _sample_points(spec, grid_resolution)
        ratios = _m_ratio_sequence(spec, points)
        worst = None
        witness = None
        best = ratios[0]
        best_at = points[0]
        for x, r in zip(points[1:], ratios[1:]):
            margin = r - best  # inf once r is, as best stays finite
            if worst is None or margin > worst:
                worst, witness = margin, (float(best_at), float(x))
            if r < best:
                best, best_at = r, x
        return _report(inequality, worst, witness, tolerance)

    worst, witness, _ = _scan((spec,), grid_resolution, _CLAUSES[inequality])
    return _report(inequality, worst, witness, tolerance)


def _report(inequality: str, worst, witness, tolerance: float,
            binding: str | None = None) -> InequalityReport:
    margin = float(worst) if worst is not None else float("-inf")
    violation = max(0.0, margin)
    return InequalityReport(
        inequality=inequality,
        passed=violation <= tolerance,
        worst_violation=violation,
        witness=witness,
        tolerance=tolerance,
        worst_margin=margin,
        binding=binding,
    )


def check_joint(
    phi_lower: Spectrum,
    phi_assouad: Spectrum,
    grid_resolution: int = 512,
    tolerance: float = 1e-9,
) -> InequalityReport:
    """Check the joint chains tying a lower-type and an Assouad-type spectrum.

    For all lambda, theta in (0, 1]:

        phiL(theta) <= phiL(lambda*theta) - theta*phiL(lambda) <= phiA(theta)
        theta*phiL(lambda) <= phiA(lambda*theta) - phiA(theta) <= theta*phiA(lambda)

    that is, the value at lambda*theta lies between two bounds:

        chain    value  lower bound                upper bound
        lower    phiL   phiL(th) + th*phiL(lam)    phiA(th) + th*phiL(lam)
        Assouad  phiA   phiA(th) + th*phiL(lam)    phiA(th) + th*phiA(lam)

    ``_scan`` checks both chains as it checks S/W/AQ, on the union of both
    spectra's samples with one common L*D**2; the report's ``binding``
    names the clause where the worst margin occurred.
    """
    if phi_lower.alpha != phi_assouad.alpha:
        raise ParameterError("joint check requires a common alpha")
    worst, witness, clause = _scan(
        (phi_lower, phi_assouad), grid_resolution, _CLAUSES["JOINT"]
    )
    return _report("JOINT", worst, witness, tolerance,
                   binding=JOINT_CLAUSES[clause])


# ---------------------------------------------------------------------------
# serialization

def spectrum_to_text(spec: Spectrum) -> str:
    """Line format: family one-liner when available, else alpha + pairs."""
    if spec.params is not None:
        p = spec.params
        if p.kind in ("phi", "psi"):
            return (
                f"family={p.kind} alpha={fmt_number(p.alpha)} "
                f"lambda={fmt_number(p.lam)} t={fmt_number(p.t)}\n"
            )
        if p.kind == "q":
            return (
                f"family=q alpha={fmt_number(p.alpha)} a1={fmt_number(p.a1)} "
                f"a2={fmt_number(p.a2)} kappa={fmt_number(p.kappa)}\n"
            )
    lines = [f"alpha={fmt_number(spec.alpha)}"]
    for b, v in zip(spec.breakpoints, spec.values):
        lines.append(f"{fmt_number(b)} {fmt_number(v)}")
    return "\n".join(lines) + "\n"


def _parse_kv_line(line: str) -> dict[str, str]:
    out = {}
    for token in line.split():
        if "=" not in token:
            raise FormatError(f"expected key=value, got {token!r}")
        k, _, v = token.partition("=")
        out[k] = v
    return out


def spectrum_from_text(text: str) -> Spectrum:
    """Parse either a ``family=...`` one-liner or an alpha+pairs listing.

    A ``family=`` line must be the only line that is not blank or a comment.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise FormatError("empty spectrum text")
    first = lines[0]
    try:
        if first.startswith("family="):
            kv = _parse_kv_line(first)
            kind = kv.pop("family")
            if kind in ("phi", "psi"):
                maker = make_phi if kind == "phi" else make_psi
                args = (kv.pop("alpha"), kv.pop("lambda"), kv.pop("t"))
            elif kind == "q":
                maker = make_q
                args = (kv.pop("alpha"), kv.pop("a1"), kv.pop("a2"), kv.pop("kappa"))
            else:
                raise FormatError(f"unknown family kind {kind!r}")
            if kv:
                raise FormatError(f"unknown keys {sorted(kv)} for family {kind}")
            if len(lines) > 1:
                raise FormatError(f"unexpected line after family=: {lines[1]!r}")
            return maker(*args)
        if not first.startswith("alpha="):
            raise FormatError("spectrum text must start with family= or alpha=")
        alpha = as_fraction(first.partition("=")[2])
        bps = []
        vals = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise FormatError(f"expected 'theta value', got {ln!r}")
            bps.append(as_fraction(parts[0]))
            vals.append(as_fraction(parts[1]))
        return spectrum_from_breakpoints(bps, vals, alpha)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad spectrum text: {exc}") from exc
    except ParameterError as exc:
        raise FormatError(f"bad spectrum parameters: {exc}") from exc

