"""Constructions of dyadic-cube subsets of [0,1] and of [0,5].

Three constructions are provided:

* ``build_moran`` realizes a subdivision profile (how many child cubes,
  ``2^{a_k}``, each retained cube keeps at level k) as a nested dyadic
  tree truncated at a finite depth.  The set is stored as maximal runs of
  consecutive leaf cubes, which keeps deep constructions tractable: the
  run count is bounded by the cube count at the last level that kept a
  single child, not by the leaf count.
* ``realize_uniform_profile`` turns a spectrum satisfying the
  superadditivity and Lipschitz inequalities into the one-variable growth
  profile whose Moran set measures back that spectrum, by alternating
  spectrum-shaped segments with full-speed segments along a schedule.
* ``build_assembly`` glues scaled Moran pieces along a geometric sequence
  of scales accumulating at the origin; this realizes spectra that are
  not achievable by uniform sets alone.

``enumerate_components`` flattens any construction into the sorted
interval form consumed by the counting module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .branch import LipschitzProfile
from .counting import IntervalSet
from .errors import ParameterError
from .spectra import Spectrum, _chain_holds, check_inequality
from ._num import Rational, as_fraction, lipschitz_minorant, merge_ranges

__all__ = [
    "SubdivisionProfile",
    "DyadicSet",
    "Assembly",
    "AssemblyComponent",
    "profile_from_lipschitz",
    "build_moran",
    "realize_uniform_profile",
    "geometric_schedule",
    "build_assembly",
    "enumerate_components",
    "dyadic_set_to_csv",
    "assembly_to_csv",
]


@dataclass(frozen=True)
class SubdivisionProfile:
    """Bits of branching per level: each level-k cube keeps 2^{a_{k+1}} children."""

    d: int
    a: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError("ambient dimension d must be a positive integer")
        if any(not (0 <= ak <= self.d) for ak in self.a):
            raise ParameterError("profile entries must lie in {0, ..., d}")

    def h(self, k: int) -> int:
        """Cumulative bit count: log2 of the cube count at level k."""
        if not (0 <= k <= len(self.a)):
            raise ParameterError(f"level {k} outside the profile range")
        return sum(self.a[:k])


class DyadicSet:
    """A truncated nested dyadic set on the line.

    ``runs`` holds the sorted maximal runs ``[start, end)`` of consecutive
    level-``depth`` cube indices.
    """

    def __init__(self, depth: int, runs: list[tuple[int, int]]):
        self.depth = depth
        self.runs = runs

    def runs_at_level(self, level: int) -> list[tuple[int, int]]:
        """Merged index ranges of retained cubes at a coarser level."""
        if not (0 <= level <= self.depth):
            raise ParameterError(f"level {level} outside [0, {self.depth}]")
        shift = self.depth - level
        return merge_ranges((s >> shift, ((e - 1) >> shift) + 1) for s, e in self.runs)

    def level_count(self, level: int) -> int:
        """Number of retained cubes at the given level."""
        return sum(e - s for s, e in self.runs_at_level(level))

    def descendant_count(self, level: int, index: int, target_level: int) -> int:
        """Retained level-``target_level`` cubes below one level-``level`` cube."""
        if not (0 <= level <= target_level <= self.depth):
            raise ParameterError("need level <= target_level <= depth")
        shift = target_level - level
        lo, hi = index << shift, (index + 1) << shift
        total = 0
        for s, e in self.runs_at_level(target_level):
            a, b = max(s, lo), min(e, hi)
            if b > a:
                total += b - a
        return total


@dataclass(frozen=True)
class AssemblyComponent:
    k: int
    translation: Fraction
    dset: DyadicSet

    @property
    def center(self) -> Fraction:
        """Center of the ball isolating this component."""
        return self.translation + Fraction(1, 2 ** (self.k + 1))


@dataclass(frozen=True)
class Assembly:
    """A geometric-sequence glueing of scaled Moran pieces plus the origin.

    Component ``k`` lives in ``[4*2^-k, 5*2^-k]``, inside the ball of
    radius ``2^-k`` around ``x_k = 4.5*2^-k`` and inside the ball of
    radius ``2^{-k+3}`` around the origin; distinct components' isolating
    balls are pairwise disjoint.  The whole set sits in [0, 5] (in fact in
    [0, 2.5] since components start at k=1; no rescaling is applied).
    """

    spectrum: Spectrum
    components: tuple[AssemblyComponent, ...]
    k_max: int
    depth: int
    certified: bool

    def component_intervals(self, component: AssemblyComponent):
        """Exact global closed intervals of one component's leaf runs."""
        unit = Fraction(1, 2 ** self.depth)
        for s, e in component.dset.runs:
            yield (component.translation + s * unit,
                   component.translation + e * unit)


def profile_from_lipschitz(f: LipschitzProfile, d: int, depth: int) -> SubdivisionProfile:
    """Integer profile below a growth function.

    ``h`` is ``lipschitz_minorant`` of ``floor(f(k))``, k = 0..depth, with
    step d: the maximal integer-valued non-decreasing d-Lipschitz sequence
    under ``f``.  For ``f`` increasing and d-Lipschitz with f(0) = 0 it
    satisfies ``f(k) - 1 < h(k) <= f(k)``.
    """
    if d < 1:
        raise ParameterError("d must be a positive integer")
    if depth < 0:
        raise ParameterError("depth must be non-negative")
    if f.at(0) != 0:
        raise ParameterError(f"profile source must vanish at 0, got {f.at(0)}")
    h = lipschitz_minorant(_floors(f, depth), d)
    return SubdivisionProfile(d, tuple(h[k] - h[k - 1] for k in range(1, depth + 1)))


def _floors(f: LipschitzProfile, depth: int) -> list[int]:
    """floor(f(k)) for k = 0..depth: (a + s*k) // L over each piece's
    integers, the end values outside the knots."""
    out = [math.floor(f.values[0])] * min(depth + 1, max(0, math.ceil(f.knots[0])))
    for (a, s), end in zip(f.pieces, f.knots[1:]):
        out.extend((a + s * k) // f.L for k in range(len(out), min(depth + 1, math.ceil(end))))
    out.extend([math.floor(f.values[-1])] * (depth + 1 - len(out)))
    return out


def build_moran(profile: SubdivisionProfile, depth: int) -> DyadicSet:
    """Realize a one-dimensional subdivision profile as a truncated dyadic set.

    Where a = 0 each retained cube keeps its left child only, so runs become
    single cubes that never touch; where a = 1 each keeps both children,
    which only widens every run.  So the set is held as the run starts at
    the last a = 0 level plus a pending shift, applied once at the end.
    """
    if profile.d != 1:
        raise ParameterError(f"Moran sets are one-dimensional, got d={profile.d}")
    if depth < 0:
        raise ParameterError(f"depth must be non-negative, got {depth}")
    if depth > len(profile.a):
        raise ParameterError(
            f"profile has {len(profile.a)} entries, need at least {depth}"
        )
    starts = [0]
    shift = 0
    for k in range(depth):
        if profile.a[k] == 1:
            shift += 1
        else:
            # cube (s << shift) + m keeps its left child (s << (shift+1)) + 2m
            lefts = range(0, 2 << shift, 2)
            starts = [(s << (shift + 1)) + j for s in starts for j in lefts]
            shift = 0
    return DyadicSet(depth, [(s << shift, (s + 1) << shift) for s in starts])


def geometric_schedule(ratio: int, limit: Rational, start: Rational = 1) -> list[Fraction]:
    """Schedule 1, R, R^2, ... capped at ``limit`` (which must be hit exactly)."""
    if ratio < 2:
        raise ParameterError("schedule ratio must be at least 2")
    top = as_fraction(limit)
    point = as_fraction(start)
    if point <= 0 or top < point:
        raise ParameterError("need 0 < start <= limit")
    out = [point]
    while out[-1] < top:
        out.append(out[-1] * ratio)
    if out[-1] != top:
        raise ParameterError(
            f"limit {limit} is not start * ratio^n for any n"
        )
    return out


def realize_uniform_profile(spec: Spectrum, schedule, d: int = 1,
                            cert_grid: int = 64) -> LipschitzProfile:
    """Growth profile whose uniform Moran set realizes ``spec``.

    The schedule entries alternate roles v1 < u1 < v2 < u2 < ...; on each
    [v_k, u_k] the profile follows the spectrum shape,

        f(u) = f(v_k) + u_k * phi(v_k / u_k) - u_k * phi(u / u_k),

    and on [0, v_1] and each [u_k, v_{k+1}] it climbs at full slope d.
    Requires the spectrum to satisfy superadditivity (so it is decreasing
    with phi(1) = 0, making f increasing) and the d-Lipschitz bound (so f
    never climbs faster than d).  The output is therefore an increasing
    d-Lipschitz profile with f(0) = 0, exactly what the Moran builder
    consumes.
    """
    if d < 1:
        raise ParameterError("d must be a positive integer")
    if spec.alpha > d:
        raise ParameterError("spectrum bound alpha exceeds ambient dimension d")
    if not check_inequality(spec, "L", cert_grid).passed:
        raise ParameterError("spectrum is not d-Lipschitz; construction needs (L)")
    if not check_inequality(spec, "S", cert_grid).passed:
        raise ParameterError("spectrum fails superadditivity; construction needs (S)")
    pts = [as_fraction(x) for x in schedule]
    if len(pts) < 2 or any(a >= b for a, b in zip(pts, pts[1:])) or pts[0] <= 0:
        raise ParameterError("schedule must be strictly increasing and positive")

    knots = [Fraction(0)]
    values = [Fraction(0)]

    def extend_full_slope(to: Fraction):
        knots.append(to)
        values.append(values[-1] + d * (to - knots[-2]))

    def extend_spectrum_segment(v_k: Fraction, u_k: Fraction):
        base = values[-1] + spec.lifted(u_k, v_k)
        inner = sorted(
            b * u_k for b in spec.breakpoints if v_k < b * u_k < u_k
        )
        for u in inner + [u_k]:
            knots.append(u)
            values.append(base - spec.lifted(u_k, u))

    extend_full_slope(pts[0])
    for i in range(1, len(pts)):
        if i % 2 == 1:
            extend_spectrum_segment(pts[i - 1], pts[i])
        else:
            extend_full_slope(pts[i])
    return LipschitzProfile(tuple(knots), tuple(values), Fraction(d))


def build_assembly(spec: Spectrum, d: int = 1, k_max: int = 8,
                   depth: int = 16, cert_grid: int = 64) -> Assembly:
    """Assemble scaled Moran pieces along a geometric sequence of scales.

    For each k in 1..k_max the strip spectrum ``f_k(u) = u * phi(k/u)``
    (zero below u = k) drives a Moran set built at local depth
    ``depth - k``, scaled to side ``2^-k`` and translated to
    ``[4*2^-k, 5*2^-k]``.  The origin joins as the accumulation point of
    the sequence.  ``certified`` is one scan of the paper's chain (S and
    W).  Each strip profile must vanish at 0 and be non-decreasing and
    alpha-Lipschitz, which S and W guarantee; a spectrum outside the class
    builds, uncertified, only when its strips for k <= k_max happen to do
    so, and otherwise raises ``ParameterError`` from the strip profile
    (e.g. "profile must vanish at 0" when phi(1) != 0).
    """
    if d != 1:
        raise ParameterError("assemblies are one-dimensional in this toolkit")
    if spec.alpha > d:
        raise ParameterError("spectrum bound alpha exceeds ambient dimension d")
    if k_max < 1:
        raise ParameterError("k_max must be at least 1")
    if depth < k_max:
        raise ParameterError("depth must be at least k_max")
    certified = _chain_holds(spec, cert_grid)
    components = []
    for k in range(1, k_max + 1):
        local_depth = depth - k
        strip = _strip_profile(spec, k, local_depth)
        profile = profile_from_lipschitz(strip, 1, local_depth)
        dset = build_moran(profile, local_depth)
        components.append(
            AssemblyComponent(k=k, translation=Fraction(4, 2 ** k), dset=dset)
        )
    return Assembly(
        spectrum=spec,
        components=tuple(components),
        k_max=k_max,
        depth=depth,
        certified=certified,
    )


def _strip_profile(spec: Spectrum, k: int, local_depth: int) -> LipschitzProfile:
    """The strip function u -> (k+u) * phi(k / (k+u)) in local coordinates.

    Piecewise-linear in u with knots where k/(k+u) crosses a spectrum
    breakpoint; increasing and alpha-Lipschitz whenever the spectrum
    satisfies (S) and (W).
    """
    if local_depth == 0:
        return LipschitzProfile((Fraction(0),), (Fraction(0),), spec.alpha)
    knots = {Fraction(0), Fraction(local_depth)}
    for b in spec.breakpoints[1:]:  # b sits at global scale k/b, local k/b - k
        if 0 < (u := Fraction(k) / b - k) < local_depth:
            knots.add(u)
    ordered = sorted(knots)
    values = tuple(spec.lifted(k + u, k) for u in ordered)
    return LipschitzProfile(tuple(ordered), values, spec.alpha)


def enumerate_components(obj, resolution: int) -> IntervalSet:
    """Flatten a construction into sorted disjoint closed dyadic intervals.

    The output is the level-``resolution`` cube cover of the construction:
    maximal runs of touching cubes merge into single intervals.  At
    ``resolution == depth`` this is exactly the truncated set.  A Moran
    set flattens as an assembly with one component at offset 0 and no
    origin.  The assembly's origin stays an exact degenerate interval
    rather than being fattened to a cube; at the scales the toolkit
    counts, the two choices give identical packings, and the point form
    matches the constructed set.  Endpoints stay integer numerators over
    ``2^resolution`` from the construction's runs to the returned set;
    only shifts are involved.
    """
    if isinstance(obj, DyadicSet):
        ranges, parts = [], [(0, obj)]
    elif isinstance(obj, Assembly):
        # component k's runs start at offset 4/2^k = (4 << (depth-k)) / 2^depth
        ranges = [(0, 0)]  # the origin
        parts = [(4 << (obj.depth - c.k), c.dset) for c in obj.components]
    else:
        raise ParameterError(f"cannot enumerate {type(obj).__name__}")
    if resolution < 0:
        raise ParameterError(f"resolution must be non-negative, got {resolution}")
    if resolution > obj.depth:
        raise ParameterError(
            f"resolution {resolution} exceeds construction depth {obj.depth}"
        )
    # floor each run's left end and ceil its right end to level-resolution cubes
    sh = obj.depth - resolution
    for base, dset in parts:
        ranges.extend(((base + s) >> sh, -((-(base + e)) >> sh)) for s, e in dset.runs)
    return IntervalSet(ranges, scale=resolution)


# ---------------------------------------------------------------------------
# serialization

def dyadic_set_to_csv(dset: DyadicSet) -> str:
    """Header + one ``level,left_numerator,width`` row per maximal run.

    Widths count level-``depth`` cubes; ``# d=1`` and ``# scheme=lex`` are fixed.
    """
    lines = [
        "# d=1",
        f"# depth={dset.depth}",
        "# scheme=lex",
        "level,left_numerator,width",
    ]
    for s, e in dset.runs:
        lines.append(f"{dset.depth},{s},{e - s}")
    return "\n".join(lines) + "\n"


def assembly_to_csv(assembly: Assembly) -> str:
    """Per-run rows with the owning component and its exact translation."""
    lines = [
        "# d=1",
        f"# depth={assembly.depth}",
        f"# k_max={assembly.k_max}",
        f"# certified={str(assembly.certified).lower()}",
        "component_k,translation_num,translation_den,level,left_numerator,width",
    ]
    for comp in assembly.components:
        t = comp.translation
        local_depth = comp.dset.depth
        for s, e in comp.dset.runs:
            lines.append(
                f"{comp.k},{t.numerator},{t.denominator},{local_depth},{s},{e - s}"
            )
    lines.append("0,0,1,0,0,0")  # the origin point
    return "\n".join(lines) + "\n"
