"""Exact packing/covering counts on interval sets and spectrum estimators.

All geometry is one-dimensional and exact: interval endpoints are dyadic
rationals stored as integers at a common power-of-two scale, packings use
strictly-greater-than-4r gaps (so counts compose multiplicatively across
scales), and coverings count level-u dyadic cubes.  Tables of per-cell
counts feed the lower, monotone-lower, and Assouad spectrum estimators.
The one-ball counts ``packing_count`` and ``covering_count`` are single
calls into the two kernels that the tables run for every candidate center.

Packings are internal: a packing of the ball B(x, R) at scale r is a set
of points whose closed 2r-balls are pairwise disjoint (pairwise distance
strictly greater than 4r) and contained in B(x, R), so the points live in
the shrunken window [x - (R-2r), x + (R-2r)].  Containment is what makes
counts compose multiplicatively across scales with no slack: a packing of
a packing is again a packing of the original ball.  Counts are clamped to
at least 1 (the center itself witnesses a single point).

The strict gap condition needs care: the greedy packing wants to place a
point "immediately after" position p + 4r, which is not a dyadic number.
So it keeps the integer reach = p + 4r and puts the next point an
infinitesimal past it, where it fits a closed piece iff reach is strictly
below the piece's end; a point at a piece's start beyond reach needs no
offset.  This keeps every count an exact integer while honoring strict
inequalities.

A table cell takes the extremum over candidate centers, but the dense
rule's level-(v+3) points are never visited one by one.  A point whose
window [c - R, c + R] lies inside its own piece sees that one clipped
piece, so its count is a constant per cell.  lb: the window holds
max(1, ceil(2R/gap)) points, the most any window of that length holds
(points more than gap apart span over (n-1)*gap < 2R), so it only seeds
the minimum as its cutoff.  ub: with R = 2^-v a multiple of the level-u
side, the window hits 2R/side cubes, one more when c is off the level-u
grid, which only u < v+3 allows.  So only the points within R of a
piece end reach a kernel.  Covers read per-level prefix counts of each
piece's cube range: two bisects and a fix-up of the first and last piece.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .branch import EtaBound
from .errors import DomainError, ParameterError
from ._num import Rational, as_fraction, fmt_decimal, merge_ranges

__all__ = [
    "IntervalSet",
    "CountTable",
    "SpectrumEstimate",
    "UniformityReport",
    "packing_count",
    "covering_count",
    "lb_table",
    "ub_table",
    "estimate_lower_spectrum",
    "monotonize_estimate",
    "estimate_assouad_spectrum",
    "check_uniformity",
    "table_to_csv",
    "estimate_to_csv",
    "uniformity_report_to_csv",
]

SPARSE_KEEP = 8


def _dyadic_exponent(x: Fraction, what: str) -> int:
    d = x.denominator
    e = d.bit_length() - 1
    if (1 << e) != d:
        raise ParameterError(f"{what} must be a dyadic rational, got {x}")
    return e


class IntervalSet:
    """Sorted disjoint closed intervals with exact dyadic endpoints.

    Endpoints are stored as integer numerators over ``2^scale``.
    ``IntervalSet(pairs)`` takes dyadic rationals; ``IntervalSet(runs,
    scale=R)`` takes integer ranges in units of ``2^-R``.  Both are
    canonicalized the same way: ranges are sorted, touching or overlapping
    ones merged (so stored runs are separated by positive gaps), and the
    power of two shared by every endpoint is stripped, so ``scale`` is
    the least non-negative one that keeps the endpoints integral.
    Degenerate pairs (lo == hi) represent isolated points.
    """

    def __init__(self, pairs, scale: int | None = None):
        if scale is None:
            pairs = [(as_fraction(lo), as_fraction(hi)) for lo, hi in pairs]
            scale = max((_dyadic_exponent(x, "endpoint")
                         for pair in pairs for x in pair), default=0)
            unit = 1 << scale
            pairs = [(int(lo * unit), int(hi * unit)) for lo, hi in pairs]
        elif scale < 0:
            raise ParameterError(f"scale must be non-negative, got {scale}")
        pairs = sorted(pairs)
        for lo, hi in pairs:
            if lo > hi:
                raise ParameterError(
                    f"interval ({lo}, {hi}) / 2^{scale} is reversed")
        merged = merge_ranges(pairs)
        if not merged:
            raise ParameterError("interval set cannot be empty")
        bits = 0
        for lo, hi in merged:
            bits |= lo | hi
        shift = min(scale, (bits & -bits).bit_length() - 1) if bits else scale
        self.scale = scale - shift
        self.pairs = [(lo >> shift, hi >> shift) for lo, hi in merged]

    def intervals(self) -> list[tuple[Fraction, Fraction]]:
        unit = Fraction(1, 1 << self.scale)
        return [(lo * unit, hi * unit) for lo, hi in self.pairs]

    @property
    def hull(self) -> tuple[Fraction, Fraction]:
        unit = Fraction(1, 1 << self.scale)
        return (self.pairs[0][0] * unit, self.pairs[-1][1] * unit)

    def scaled_pairs(self, scale: int) -> list[tuple[int, int]]:
        if scale < self.scale:
            raise ParameterError("cannot reduce interval set scale")
        shift = scale - self.scale
        return [(lo << shift, hi << shift) for lo, hi in self.pairs]

    def contains(self, x: Rational) -> bool:
        scaled = as_fraction(x) * (1 << self.scale)
        return _Workspace(self, self.scale).locate(scaled)

    def __len__(self) -> int:
        return len(self.pairs)


# ---------------------------------------------------------------------------
# exact counts

class _Workspace:
    """The set rescaled once to a working scale fine enough for all cells."""

    def __init__(self, iset: IntervalSet, scale: int):
        self.scale = max(iset.scale, scale)
        self.pieces = iset.scaled_pairs(self.scale)
        self.starts = [lo for lo, _ in self.pieces]
        self.ends = [hi for _, hi in self.pieces]
        self._cubes = {}

    def locate(self, x) -> bool:
        """Is ``x`` (in workspace units, integer or exact rational) in the set?"""
        i = bisect_right(self.starts, x) - 1
        return i >= 0 and self.pieces[i][0] <= x <= self.pieces[i][1]

    def cubes(self, shift: int):
        """``(first, last, new)`` at level scale - ``shift``: piece i hits cubes
        first[i] .. last[i], and new[i] counts the cubes pieces before i hit,
        each once (a piece shares at most its first cube with its left neighbour).
        """
        if shift not in self._cubes:
            unit = 1 << shift
            first = [lo >> shift for lo in self.starts]
            last = [lo >> shift if lo == hi else ((hi + unit - 1) >> shift) - 1
                    for lo, hi in self.pieces]
            steps = (b - a + (a != p) for a, b, p in zip(first, last, [None] + last))
            self._cubes[shift] = (first, last, list(accumulate(steps, initial=0)))
        return self._cubes[shift]


def _greedy_pack(ws: _Workspace, c: int, rad: int, gap: int,
                 cutoff: int | None = None) -> int:
    """Internal strict-gap packing of the set in the ball B(c, rad).

    All arguments are integers in workspace units.  Points keep pairwise
    distances strictly greater than ``gap`` and lie within rad - gap/2 of
    ``c``, so their closed gap/2-balls stay inside the ball; a negative
    shrunken radius leaves only the center.  Leftmost-greedy over the
    window-clipped pieces is optimal in one dimension: a piece takes a
    point at its start if that lies beyond ``reach`` (last point + gap),
    then points a gap and an infinitesimal apart up to its end.  Only the
    first and last pieces are clipped.  The count is at least 1; with
    ``cutoff`` the scan stops once the count reaches it.
    """
    half = rad - gap // 2
    if half < 0:
        return 1
    wl, wr = c - half, c + half
    starts, ends = ws.starts, ws.ends
    i = bisect_left(ends, wl)
    last = bisect_right(starts, wr) - 1
    if i > last:
        return 1
    count, reach = 1, (starts[i] if starts[i] > wl else wl) + gap
    for k in range(i, last):
        if reach < starts[k]:
            count += 1
            reach = starts[k] + gap
        m = (reach - ends[k]) // gap
        if m < 0:
            count -= m
            reach -= m * gap
        if cutoff is not None and count >= cutoff:
            return count
    if reach < starts[last]:
        count += 1
        reach = starts[last] + gap
    m = (reach - (ends[last] if ends[last] < wr else wr)) // gap
    return count - m if m < 0 else count


def _cover(ws: _Workspace, wl: int, wr: int, shift: int) -> int:
    """Level cubes (``shift`` = scale - u) hit by the set in the window [wl, wr].

    A clipped piece [x, y] hits cubes floor(x) .. ceil(y)-1 in level-u
    units, or the single cube floor(x) when x = y.  The union is ``new``
    between the second and the last piece plus the two clipped end pieces,
    each cube shared with a neighbour counted once.
    """
    starts, ends = ws.starts, ws.ends
    f = bisect_left(ends, wl)
    last = bisect_right(starts, wr) - 1
    if f > last:
        return 0
    x = starts[f] if starts[f] > wl else wl
    y = ends[last] if ends[last] < wr else wr
    up = (1 << shift) - 1
    if f == last:
        return 1 if x == y else ((y + up) >> shift) - (x >> shift)
    first, lasts, new = ws.cubes(shift)
    b_f = x >> shift if x == ends[f] else lasts[f]
    b_l = y >> shift if y == starts[last] else ((y + up) >> shift) - 1
    count = b_f - (x >> shift) + new[last] - new[f + 1] + b_l - first[last] + 2
    if f + 1 < last:
        # new[f + 1] took piece f + 1's shared cube from the unclipped piece f
        count += (first[f + 1] == lasts[f]) - (first[f + 1] == b_f)
        b_f = lasts[last - 1]
    return count - (first[last] == b_f)


def _ball(iset: IntervalSet, center: Rational, radius: Rational,
          scale: int) -> tuple[_Workspace, int, int]:
    """Workspace at least as fine as ``scale``, with the ball in its units.

    The scale also grows to express the center and radius exactly; the
    center must be a set point.
    """
    center, radius = as_fraction(center), as_fraction(radius)
    if radius <= 0:
        raise ParameterError(f"ball radius must be positive, got {radius}")
    ws = _Workspace(iset, max(scale, _dyadic_exponent(center, "center"),
                              _dyadic_exponent(radius, "radius")))
    unit = 1 << ws.scale
    c = int(center * unit)
    if not ws.locate(c):
        raise DomainError(f"center {center} lies outside the set")
    return ws, c, int(radius * unit)


def packing_count(iset: IntervalSet, center: Rational, radius: Rational,
                  r: Rational) -> int:
    """Exact maximum internal packing of B(center, radius) at scale r.

    Counts set points whose closed 2r-balls are pairwise disjoint and
    contained in the closed ball: pairwise gaps strictly above 4r, points
    within radius - 2r of the center.  At least 1, since the center is a
    set point.  Greedy from the left is optimal in one dimension, and the
    dyadic inputs make the arithmetic exact.
    """
    r = as_fraction(r)
    if r <= 0:
        raise ParameterError(f"packing scale r must be positive, got {r}")
    # Two extra bits beyond r itself so the half-gap shrink by 2r stays
    # exact in integer units; a scale based on 4r would truncate it.
    ws, c, rad = _ball(iset, center, radius, _dyadic_exponent(r, "r") + 2)
    return _greedy_pack(ws, c, rad, int(r * (4 << ws.scale)))


def covering_count(iset: IntervalSet, center: Rational, radius: Rational,
                   u: int) -> int:
    """Level-u dyadic cubes hit by set ∩ B(center, radius)."""
    if u < 0:
        raise ParameterError(f"cube level must be non-negative, got {u}")
    ws, c, rad = _ball(iset, center, radius, u)
    return _cover(ws, c - rad, c + rad, ws.scale - u)


# ---------------------------------------------------------------------------
# tables

@dataclass(frozen=True)
class CountTable:
    """Per-cell extremal counts over the (u, v) grid, 0 ≤ v ≤ u ≤ u_max.

    ``cells`` maps (u, v) to an exact integer count; logs are base-2 and
    computed on demand so that exactness lives in the integers.  ``kind``
    is "lb" (min over ball centers of packing counts) or "ub" (max over
    centers of covering counts).
    """

    kind: str
    u_max: int
    cells: dict
    candidate_rule: str

    def count(self, u: int, v: int) -> int:
        try:
            return self.cells[(u, v)]
        except KeyError:
            raise ParameterError(f"table has no cell ({u}, {v})") from None

    def log2(self, u: int, v: int) -> float:
        return math.log2(self.count(u, v))

    def grid(self):
        return sorted(self.cells)

    def validate(self) -> list[str]:
        """Invariant violations: diagonal, monotonicity, superadditivity."""
        problems = []
        for (u, v), cnt in sorted(self.cells.items()):
            if cnt < 1:
                problems.append(f"cell ({u},{v}) has count {cnt} < 1")
            if u == v and cnt != 1:
                problems.append(f"diagonal cell ({u},{u}) has count {cnt} != 1")
            if (u - 1, v) in self.cells and self.cells[(u - 1, v)] > cnt:
                problems.append(f"count decreases from ({u - 1},{v}) to ({u},{v})")
            if (u, v - 1) in self.cells and self.cells[(u, v - 1)] < cnt:
                problems.append(f"count increases from ({u},{v - 1}) to ({u},{v})")
        if self.kind == "lb":
            problems.extend(self.superadditivity_violations())
        return problems

    def superadditivity_violations(self) -> list[str]:
        """Triples with count(u,v) < count(u,w) * count(w,v), exact."""
        out = []
        for (u, v) in sorted(self.cells):
            for w in range(v, u + 1):
                if (u, w) not in self.cells or (w, v) not in self.cells:
                    continue
                lhs = self.cells[(u, v)]
                rhs = self.cells[(u, w)] * self.cells[(w, v)]
                if lhs < rhs:
                    out.append(
                        f"superadditivity fails at u={u}, w={w}, v={v}: "
                        f"{lhs} < {self.cells[(u, w)]}*{self.cells[(w, v)]}"
                    )
        return out


def _candidates_per_level(ws: _Workspace, rule: str):
    """Ball-center candidates at the workspace scale, as a function of v.

    endpoints: every interval endpoint.
    dense: endpoints plus all level-(v+3) dyadic points inside the set.
    sparse: the extremes, the first and last few interval endpoints, and
      the endpoints flanking the widest interior gaps; meant for very deep
      sets where the endpoint list itself is huge.

    The function returns ``(centers, inner)`` for a ball level v.  For
    dense, ``inner`` holds one index range (a, b) per piece: the level-(v+3)
    points j * 2^(scale-v-3), a <= j <= b, whose radius-2^-v window lies
    inside their own piece; ``centers`` is every other candidate, sorted.
    The other two rules have no ``inner`` and build their list once.
    """
    if rule == "sparse":
        k = SPARSE_KEEP
        cands = set()
        for lo, hi in ws.pieces[:k] + ws.pieces[-k:]:
            cands.add(lo)
            cands.add(hi)
        # nlargest keeps the tie order of a stable descending sort.
        gaps = heapq.nlargest(
            k,
            range(len(ws.pieces) - 1),
            key=lambda i: ws.pieces[i + 1][0] - ws.pieces[i][1],
        )
        for i in gaps:
            cands.add(ws.pieces[i][1])
            cands.add(ws.pieces[i + 1][0])
        sparse = (sorted(cands), [])
        return lambda v: sparse
    if rule == "endpoints":
        endpoints = (sorted({x for piece in ws.pieces for x in piece}), [])
        return lambda v: endpoints
    if rule != "dense":
        raise ParameterError(f"unknown candidate rule {rule!r}")

    def dense(v: int):
        step = 1 << (ws.scale - v - 3)
        rad = step << 3
        centers, inner = [], []
        for lo, hi in ws.pieces:
            centers.append(lo)
            if hi == lo:
                continue
            a, b = -(-(lo + rad) // step), (hi - rad) // step
            if a <= b:
                inner.append((a, b))
                centers.extend(range((lo // step + 1) * step, a * step, step))
                centers.extend(range((b + 1) * step, hi, step))
            else:
                centers.extend(range((lo // step + 1) * step, hi, step))
            centers.append(hi)
        return centers, inner

    return dense


def _table(iset: IntervalSet, u_max: int, candidate_rule: str, kind: str,
           cells) -> CountTable:
    if type(u_max) is not int:
        raise ParameterError(f"u_max must be an integer, got {u_max!r}")
    if u_max < 0:
        raise ParameterError("u_max must be non-negative")
    if cells is None:
        wanted = [(u, v) for u in range(u_max + 1) for v in range(u + 1)]
    else:
        wanted = sorted(set(cells))
        for (u, v) in wanted:
            if type(u) is not int or type(v) is not int:
                raise ParameterError(f"cell ({u!r}, {v!r}) is not an integer pair")
            if not (0 <= v <= u <= u_max):
                raise ParameterError(f"cell ({u}, {v}) outside the grid")
    ws = _Workspace(iset, u_max + 3)
    candidates = _candidates_per_level(ws, candidate_rule)
    width = ws.pieces[-1][1] - ws.pieces[0][0]
    by_v: dict[int, list[int]] = {}
    for (u, v) in wanted:
        by_v.setdefault(v, []).append(u)
    out = {}
    for v, us in sorted(by_v.items()):
        centers, inner = candidates(v)
        rad = 1 << (ws.scale - v)
        # Fewest trailing zero bits of an inner point's index: that point
        # is off the level-u grid exactly when this is below v + 3 - u.
        zeros = min((0 if a < b else (a & -a).bit_length() - 1 if a else ws.scale
                     for a, b in inner), default=None)
        for u in sorted(us):
            if kind == "ub" and u == v:
                # A radius-r ball is covered by one radius-r ball (itself);
                # the cube surrogate would say 2 or 3 here and break the
                # zero diagonal shared by both kinds.
                out[(u, v)] = 1
                continue
            shift = ws.scale - u
            gap = 1 << (shift + 2)
            # Once the radius exceeds the hull width by the packing gap (a
            # packing window is shrunk by half of it), every center's
            # window holds the whole set, so any one count is the answer.
            full = rad >= width + (gap if kind == "lb" else 0)
            cands = centers[:1] if full else centers
            if kind == "lb":
                # An inner window holds the most points any window can:
                # that bound starts the minimum as its cutoff.
                best = max(1, -(-2 * (rad - gap // 2) // gap))
                for c in cands:
                    if best <= 1:
                        break
                    best = min(best, _greedy_pack(ws, c, rad, gap, cutoff=best))
            else:
                # An inner window hits 2*rad / 2^shift level-u cubes, one
                # more when its center is off the level-u grid.
                best = ((2 * rad) >> shift) + (zeros < v + 3 - u) if inner else 0
                for c in cands:
                    best = max(best, _cover(ws, c - rad, c + rad, shift))
            out[(u, v)] = best
    return CountTable(kind=kind, u_max=u_max, cells=out,
                      candidate_rule=candidate_rule)


def lb_table(iset: IntervalSet, u_max: int, candidate_rule: str = "dense",
             cells=None) -> CountTable:
    """Worst-case packing counts: min over ball-center candidates.

    For each grid cell (u, v) the value is the minimum over candidate
    centers x of the exact strict-gap packing count of set ∩ B(x, 2^-v)
    at scale 2^-u.  ``cells`` restricts evaluation to selected grid cells
    (everything else stays absent), which keeps very deep measurements
    affordable.
    """
    return _table(iset, u_max, candidate_rule, "lb", cells)


def ub_table(iset: IntervalSet, u_max: int, candidate_rule: str = "dense",
             cells=None) -> CountTable:
    """Best-case covering counts: max over ball-center candidates.

    Diagonal cells (u, u) are pinned to the exact value 1: any radius-r
    ball is covered by itself, while the cube surrogate would report the
    2 or 3 level-u cubes the ball merely touches.
    """
    return _table(iset, u_max, candidate_rule, "ub", cells)


# ---------------------------------------------------------------------------
# estimators

@dataclass(frozen=True)
class SpectrumEstimate:
    """Finite-window spectrum estimate on a theta grid.

    Values approximate (1-theta) times the dimension quantity; ``window``
    is the integer range of coarse exponents u the extremum ran over.  A
    window shorter than four samples sets ``warning`` instead of failing.
    """

    kind: str
    thetas: tuple
    values: tuple
    window: tuple
    warning: bool = False


def _resolve_window(window, u_max: int) -> tuple[int, int]:
    if window is None:
        window = (max(1, u_max // 2), u_max)
    lo, hi = int(window[0]), int(window[1])
    if not (0 < lo <= hi <= u_max):
        raise ParameterError(f"window {window} not within (0, {u_max}]")
    return lo, hi


def _lower_level(theta: Fraction, u: int) -> int:
    """Ball level of the lower estimate's cell at u: ceil(theta*u), the smaller ball."""
    return min(u, math.ceil(theta * u))


def _windowed(table: CountTable, theta_grid, window, kind: str, level,
              extremum) -> SpectrumEstimate:
    """``extremum`` over u in the window of log2(count(u, level(theta, u))) / u."""
    lo, hi = _resolve_window(window, table.u_max)
    thetas = tuple(as_fraction(t) for t in theta_grid)
    values = []
    for theta in thetas:
        if not (0 <= theta <= 1):
            raise DomainError(f"theta {theta} outside [0, 1]")
        values.append(extremum(table.log2(u, level(theta, u)) / u
                               for u in range(lo, hi + 1)))
    return SpectrumEstimate(kind=kind, thetas=thetas, values=tuple(values),
                            window=(lo, hi), warning=hi - lo + 1 < 4)


def lower_cells(u_max: int, theta_grid, window=None) -> list[tuple[int, int]]:
    """The sorted lb cells ``estimate_lower_spectrum`` reads for these arguments."""
    lo, hi = _resolve_window(window, u_max)
    thetas = [as_fraction(t) for t in theta_grid]
    return sorted({(u, _lower_level(t, u)) for u in range(lo, hi + 1) for t in thetas})


def estimate_lower_spectrum(table: CountTable, theta_grid, window=None) -> SpectrumEstimate:
    """min over u in the window of log2(count(u, ceil(theta*u))) / u.

    Thetas should be exact rationals: ceil(theta*u) is sensitive to float
    representation error exactly at the grid points one cares about.  The
    ceiling rounds the ball level pessimistically (smaller ball).
    """
    if table.kind != "lb":
        raise ParameterError("lower-spectrum estimation needs an lb table")
    return _windowed(table, theta_grid, window, "lower", _lower_level, min)


def monotonize_estimate(est: SpectrumEstimate) -> SpectrumEstimate:
    """Running-infimum correction: the monotone variant of the estimate.

    value'(theta) = (1-theta) * min over grid lambda <= theta of
    value(lambda)/(1-lambda).  Idempotent; theta = 1 contributes nothing
    to the running minimum and maps to value 0.
    """
    if est.kind not in ("lower", "monotone_lower"):
        raise ParameterError("monotonization applies to lower-spectrum estimates")
    order = sorted(range(len(est.thetas)), key=lambda i: est.thetas[i])
    values = [0.0] * len(est.thetas)
    running = math.inf
    for i in order:
        t = est.thetas[i]
        if t != 1:
            running = min(running, est.values[i] / (1 - float(t)))
        values[i] = (1 - float(t)) * (running if running < math.inf else 0.0)
    return SpectrumEstimate(kind="monotone_lower", thetas=est.thetas,
                            values=tuple(values), window=est.window,
                            warning=est.warning)


def estimate_assouad_spectrum(table: CountTable, theta_grid, window=None) -> SpectrumEstimate:
    """max over u in the window of log2(count(u, floor(theta*u))) / u.

    The floor rounds the ball level pessimistically for a supremum
    (larger ball).
    """
    if table.kind != "ub":
        raise ParameterError("Assouad estimation needs an ub table")
    return _windowed(table, theta_grid, window, "assouad",
                     lambda theta, u: math.floor(theta * u), max)


@dataclass(frozen=True)
class UniformityReport:
    """Worst excess of ub over lb + eta across the common grid."""

    passed: bool
    worst_excess: float
    witness: tuple | None
    eta_description: str


def check_uniformity(lb: CountTable, ub: CountTable, eta: EtaBound) -> UniformityReport:
    """Is the set uniform at the measured scales: ub ≤ lb + eta everywhere?"""
    if lb.kind != "lb" or ub.kind != "ub":
        raise ParameterError("check_uniformity expects one lb and one ub table")
    if lb.u_max != ub.u_max or set(lb.cells) != set(ub.cells):
        raise ParameterError("uniformity check needs matching table grids")
    worst = -math.inf
    witness = None
    for (u, v) in sorted(lb.cells):
        excess = ub.log2(u, v) - lb.log2(u, v) - float(eta.at(u))
        if excess > worst:
            worst, witness = excess, (u, v)
    if eta.constant is not None:
        desc = f"constant {fmt_decimal(eta.constant)}"
    else:
        desc = "profile"
    return UniformityReport(passed=worst <= 0, worst_excess=worst,
                            witness=witness, eta_description=desc)


# ---------------------------------------------------------------------------
# serialization

def table_to_csv(table: CountTable) -> str:
    lines = [
        f"# kind={table.kind}",
        f"# u_max={table.u_max}",
        f"# candidate_rule={table.candidate_rule}",
        "u,v,count,log2",
    ]
    for (u, v) in table.grid():
        cnt = table.cells[(u, v)]
        lines.append(f"{u},{v},{cnt},{math.log2(cnt)!r}")
    return "\n".join(lines) + "\n"


def estimate_to_csv(est: SpectrumEstimate) -> str:
    lines = [
        f"# kind={est.kind}",
        f"# window={est.window[0]}..{est.window[1]}",
        f"# warning={str(est.warning).lower()}",
        "theta,value",
    ]
    for t, v in zip(est.thetas, est.values):
        lines.append(f"{fmt_decimal(t)},{v!r}")
    return "\n".join(lines) + "\n"


def uniformity_report_to_csv(report: UniformityReport) -> str:
    if report.witness is None:
        witness = ""
    else:
        witness = f"u={report.witness[0]} v={report.witness[1]}"
    return (
        "check,passed,worst,witness\n"
        f"uniformity,{str(report.passed).lower()},{report.worst_excess!r},{witness}\n"
    )
