"""Differential tests for the shared numeric helpers in ``_num``.

Each algorithm the layers share (piecewise-linear evaluation, piece
slopes and lookup, the Lipschitz minorant, the range merge, the
common-denominator scaling, the flatten of a construction and the
windowed estimator) has one implementation.
The per-layer loops they replaced stay here as oracles, and every case
asserts ``==`` against them.
"""

import math
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdim._num import lipschitz_minorant, merge_ranges, scaled
from branchdim.branch import LipschitzProfile
from branchdim.counting import (
    IntervalSet,
    estimate_assouad_spectrum,
    estimate_lower_spectrum,
    lb_table,
    lower_cells,
    ub_table,
)
from branchdim.errors import DomainError, ParameterError
from branchdim.sets import (
    DyadicSet,
    SubdivisionProfile,
    build_assembly,
    build_moran,
    enumerate_components,
    geometric_schedule,
    profile_from_lipschitz,
    realize_uniform_profile,
    _floors,
)
from branchdim.spectra import (
    check_inequality,
    make_phi,
    make_psi,
    make_q,
    min_family,
    spectrum_from_breakpoints,
)


# ---------------------------------------------------------------------------
# oracles: the per-layer code each helper replaced

def oracle_eval_exact(spec, theta):
    """Spectrum.eval_exact as it was."""
    bps = spec.breakpoints
    i = bisect_right(bps, theta) - 1
    if i == len(bps) - 1:
        return spec.values[-1]
    x0, x1 = bps[i], bps[i + 1]
    y0, y1 = spec.values[i], spec.values[i + 1]
    return y0 + (y1 - y0) * (theta - x0) / (x1 - x0)


def oracle_profile_at(ks, vs, u):
    """LipschitzProfile.at as it was, on knots ``ks`` and values ``vs``."""
    x = F(u)
    if x <= ks[0]:
        return vs[0]
    if x >= ks[-1]:
        return vs[-1]
    i = bisect_right(ks, x) - 1
    k0, k1 = ks[i], ks[i + 1]
    v0, v1 = vs[i], vs[i + 1]
    return v0 + (v1 - v0) * (x - k0) / (k1 - k0)


def oracle_piece_slopes(spec):
    return tuple(
        (v1 - v0) / (x1 - x0)
        for (x0, x1, v0, v1) in zip(
            spec.breakpoints, spec.breakpoints[1:], spec.values, spec.values[1:]
        )
    )


def oracle_max_slope(profile):
    return max(
        (v1 - v0) / (k1 - k0)
        for k0, k1, v0, v1 in zip(
            profile.knots, profile.knots[1:], profile.values, profile.values[1:]
        )
    ) if len(profile.knots) > 1 else F(0)


def oracle_profile_check(knots, values, alpha):
    """LipschitzProfile's old slope loop: the error it raised, or None."""
    for k0, k1, v0, v1 in zip(knots, knots[1:], values, values[1:]):
        if v1 < v0:
            return "profile must be non-decreasing"
        if v1 - v0 > alpha * (k1 - k0):
            return f"profile slope exceeds alpha={alpha} on [{k0}, {k1}]"
    return None


def oracle_l_check(spec):
    """check_inequality(spec, "L") by its old loop: (worst, witness)."""
    worst = witness = None
    for x0, x1, y0, y1 in zip(
        spec.breakpoints, spec.breakpoints[1:], spec.values, spec.values[1:]
    ):
        margin = abs((y1 - y0) / (x1 - x0)) - spec.alpha
        if worst is None or margin > worst:
            worst, witness = margin, (float(x0), float(x1))
    return float(worst), witness


def oracle_min_family(specs):
    """min_family with its old linear-scan piece lookup."""
    specs = list(specs)
    if len(specs) == 1:
        return specs[0]
    knots = set()
    for s in specs:
        knots.update(s.breakpoints)
    base = sorted(knots)
    pieces = []
    for s in specs:
        ps = []
        for x0, x1, y0, y1 in zip(s.breakpoints, s.breakpoints[1:],
                                  s.values, s.values[1:]):
            slope = (y1 - y0) / (x1 - x0)
            ps.append((x0, x1, y0 - slope * x0, slope))
        pieces.append(ps)

    def piece_at(idx, x0):
        for (p0, p1, a, b) in pieces[idx]:
            if p0 <= x0 < p1:
                return a, b
        return pieces[idx][-1][2], pieces[idx][-1][3]

    crossings = set()
    for x0, x1 in zip(base, base[1:]):
        for i in range(len(specs)):
            ai, bi = piece_at(i, x0)
            for j in range(i + 1, len(specs)):
                aj, bj = piece_at(j, x0)
                if bi == bj:
                    continue
                x = (aj - ai) / (bi - bj)
                if x0 < x < x1:
                    crossings.add(x)
    knots.update(crossings)
    bps = tuple(sorted(knots))
    vals = tuple(min(oracle_eval_exact(s, x) for s in specs) for x in bps)
    return bps, vals


def oracle_forward_suffix(values, step):
    """The forward-then-suffix-minimum loops both layers ran."""
    forward = [values[0]]
    for x in values[1:]:
        forward.append(min(x, forward[-1] + step))
    out = list(forward)
    for k in range(len(out) - 2, -1, -1):
        out[k] = min(out[k], out[k + 1])
    return out


def oracle_profile_from_lipschitz(f, d, depth):
    """sets.profile_from_lipschitz's old loops."""
    h = [0]
    for k in range(1, depth + 1):
        h.append(min(math.floor(oracle_profile_at(f.knots, f.values, k)), h[-1] + d))
    for k in range(depth - 1, -1, -1):
        h[k] = min(h[k], h[k + 1])
    return tuple(h[k] - h[k - 1] for k in range(1, depth + 1))


def oracle_merge(pairs):
    """IntervalSet's old sort-and-merge loop."""
    merged = []
    for lo, hi in sorted(pairs):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def oracle_interval_set(pairs, scale):
    """IntervalSet's old integer form: merge, then strip shared powers of two."""
    merged = oracle_merge(pairs)
    bits = 0
    for lo, hi in merged:
        bits |= lo | hi
    shift = min(scale, (bits & -bits).bit_length() - 1) if bits else scale
    return scale - shift, [(lo >> shift, hi >> shift) for lo, hi in merged]


def oracle_runs_at_level(dset, level):
    """DyadicSet.runs_at_level's old loop."""
    shift = dset.depth - level
    out = []
    for s, e in dset.runs:
        lo, hi = s >> shift, ((e - 1) >> shift) + 1
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def oracle_enumerate(obj, resolution):
    """enumerate_components' old two branches."""
    if isinstance(obj, DyadicSet):
        return IntervalSet(oracle_runs_at_level(obj, resolution), scale=resolution)
    sh = obj.depth - resolution
    ranges = [(0, 0)]
    for comp in obj.components:
        base = 4 << (obj.depth - comp.k)
        ranges.extend(((base + s) >> sh, -((-(base + e)) >> sh))
                      for s, e in comp.dset.runs)
    return IntervalSet(ranges, scale=resolution)


def oracle_estimate(table, thetas, window, lower):
    """estimate_lower_spectrum / estimate_assouad_spectrum's old loops."""
    if window is None:
        window = (max(1, table.u_max // 2), table.u_max)
    lo, hi = window
    values = []
    for theta in thetas:
        if lower:
            values.append(min(table.log2(u, min(u, math.ceil(theta * u))) / u
                              for u in range(lo, hi + 1)))
        else:
            values.append(max(table.log2(u, math.floor(theta * u)) / u
                              for u in range(lo, hi + 1)))
    return tuple(values), (lo, hi), hi - lo + 1 < 4


def oracle_verify_cells(depth, thetas, window):
    """The lb cells the verify command derived for itself."""
    if window is None:
        window = (max(1, depth // 2), depth)
    return sorted({(u, min(u, math.ceil(t * u)))
                   for u in range(window[0], window[1] + 1) for t in thetas})


# ---------------------------------------------------------------------------
# inputs

def spectra():
    out = [
        make_phi(1, F(1, 2), F(1, 4)),
        make_phi(F(1, 2), 1, 0),  # one piece
        make_psi(2, F(1, 3), F(2, 7)),
        make_q(1, F(1, 2), F(2, 3), F(1, 4)),
        spectrum_from_breakpoints((0, F(2, 7), F(3, 7), F(5, 7), 1),
                                  (F(3, 2), F(6, 7), F(6, 7), F(1, 7), 0), F(3, 2)),
        spectrum_from_breakpoints((0, F(2, 5), 1), (F(3, 4), F(1, 5), F(1, 3)), 1),
        spectrum_from_breakpoints((0, F(1, 4), 1), (0, 1, 0), 1),  # steep tent
    ]
    out.append(min_family(out[:1] + [make_psi(1, F(1, 3), F(1, 5))]))
    return out


SPECTRA = spectra()

PROFILES = [
    LipschitzProfile((F(0),), (F(0),), F(1)),  # one knot at 0
    LipschitzProfile((F(3),), (F(5, 2),), F(1)),  # one knot inside
    LipschitzProfile((F(0), F(10)), (F(0), F(5)), F(1)),
    LipschitzProfile((F(0), F(3), F(13)), (F(0), F(0), F(10)), F(1)),
    LipschitzProfile((F(1), F(7, 3), F(4), F(9)), (F(1), F(2), F(2), F(37, 7)), F(2)),
]


def probe_points(knots):
    """Points below, on and above the knots, and between each pair."""
    pts = [knots[0] - 1, knots[0] - F(1, 3), knots[-1] + F(1, 5), knots[-1] + 2]
    pts += list(knots)
    pts += [(a + b) / 2 for a, b in zip(knots, knots[1:])]
    pts += [a + (b - a) / 7 for a, b in zip(knots, knots[1:])]
    return pts


# ---------------------------------------------------------------------------
# piecewise-linear interpolation

class TestInterpolation:
    @pytest.mark.parametrize("spec", SPECTRA)
    def test_spectrum_eval_in_range(self, spec):
        for x in probe_points(spec.breakpoints):
            if 0 <= x <= 1:
                assert spec.eval_exact(x) == oracle_eval_exact(spec, x)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_profile_below_on_above_knots(self, profile):
        for x in probe_points(profile.knots):
            got = profile.at(x)
            assert got == oracle_profile_at(profile.knots, profile.values, x)
            assert isinstance(got, F)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_profile_int_and_str_arguments(self, profile):
        for x in (-1, 0, 1, 2, 5, 100, "7/3", "0.5"):
            assert profile.at(x) == oracle_profile_at(profile.knots, profile.values, x)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(-30, 30), st.integers(0, 20),
           st.lists(st.tuples(st.integers(1, 9), st.integers(0, 20)), max_size=5),
           st.integers(-200, 200))
    def test_random_profiles(self, first, start, pieces, x):
        # Fractional knots, a first knot below, at or above 0, a single knot
        # when there are no pieces, and probes on both sides of the knots.
        ks, vs = [F(first, 3)], [F(start, 5) if first else F(0)]
        for width, rise in pieces:
            ks.append(ks[-1] + F(width, 3))
            vs.append(vs[-1] + F(rise, 5))
        profile = LipschitzProfile(tuple(ks), tuple(vs), F(37, 3))
        for probe in [F(x, 7)] + probe_points(profile.knots):
            got = profile.at(probe)
            assert got == oracle_profile_at(ks, vs, probe)
            assert type(got) is F


# ---------------------------------------------------------------------------
# slopes and piece lookup

class TestSlopes:
    @pytest.mark.parametrize("spec", SPECTRA)
    def test_piece_slopes(self, spec):
        assert spec.piece_slopes() == oracle_piece_slopes(spec)

    @pytest.mark.parametrize("spec", SPECTRA)
    def test_l_check(self, spec):
        rep = check_inequality(spec, "L")
        assert (rep.worst_margin, rep.witness) == oracle_l_check(spec)

    def test_l_check_first_worst_piece(self):
        # the first and third pieces share the steepest slope; the first wins
        spec = spectrum_from_breakpoints((0, F(1, 4), F(1, 2), F(3, 4), 1),
                                         (1, F(1, 2), F(1, 2), 0, 0), 2)
        rep = check_inequality(spec, "L")
        assert rep.witness == (0.0, 0.25) == oracle_l_check(spec)[1]

    @pytest.mark.parametrize("profile", PROFILES)
    def test_max_slope(self, profile):
        assert profile.max_slope() == oracle_max_slope(profile)

    @pytest.mark.parametrize("knots,values,alpha", [
        ((0, 1, 2), (0, 1, F(1, 2)), 1),  # decreasing
        ((0, 1, 3), (0, 1, 4), 1),  # too steep on [1, 3]
        ((0, 1, 3), (0, 2, 1), 1),  # too steep, then decreasing
        ((0, F(1, 3), 1), (0, F(1, 3), F(1, 3)), 1),  # slope exactly alpha
        ((0, 1, 3), (0, 1, 4), F(3, 2)),  # exactly alpha on [1, 3]
        ((0, 10), (0, 1), F(1, 10)),  # slope alpha = 1/10
    ])
    def test_profile_validation(self, knots, values, alpha):
        ks, vs, a = tuple(map(F, knots)), tuple(map(F, values)), F(alpha)
        expected = oracle_profile_check(ks, vs, a)
        try:
            LipschitzProfile(ks, vs, a)
        except ParameterError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    def test_slopes_exact_on_ints(self):
        profile = LipschitzProfile((0, 3, 10), (0, 1, 2), 1)
        assert profile.piece_slopes() == (F(1, 3), F(1, 7))
        assert profile.max_slope() == F(1, 3)

    @pytest.mark.parametrize("members", [
        SPECTRA[:1] + [make_psi(1, F(1, 3), F(1, 5))],
        [make_phi(1, l, (1 - l) ** 4) for l in (F(15, 100), F(4, 10), F(65, 100))],
        [make_phi(1, F(1, 2), F(1, 4)), make_q(1, F(1, 2), F(2, 3), F(1, 4)),
         make_psi(1, F(1, 4), F(1, 2))],
        [make_phi(1, F(1, 2), F(1, 4))] * 2,
    ])
    def test_min_family(self, members):
        out = min_family(members)
        assert (out.breakpoints, out.values) == oracle_min_family(members)


# ---------------------------------------------------------------------------
# integers over a common denominator

class TestScaled:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(max_denominator=40), min_size=1, max_size=6),
           st.integers(1, 5))
    def test_matches_multiplication(self, xs, extra):
        den = math.lcm(*(x.denominator for x in xs)) * extra
        got = [scaled(x, den) for x in xs]
        assert got == [(x * den).numerator for x in xs]
        assert all(type(n) is int for n in got)

    def test_ints(self):
        assert scaled(0, 6) == 0 and scaled(-3, 4) == -12


# ---------------------------------------------------------------------------
# maximal non-decreasing Lipschitz minorant

class TestMinorant:
    @pytest.mark.parametrize("values,step", [
        ([0], 1), ([5], 0), ([F(7, 3)], F(1, 2)),  # one sample
        ([0, 3, 1, 4, 1, 5], 1), ([4, 3, 2, 1, 0], 2), ([0, 0, 0], 0),
        ([F(1, 2), F(9, 4), F(3, 4), 2], F(2, 3)),
    ])
    def test_helper(self, values, step):
        got = lipschitz_minorant(values, step)
        assert got == oracle_forward_suffix(values, step)
        assert [type(x) for x in got] == [type(x) for x in
                                          oracle_forward_suffix(values, step)]

    def test_empty(self):
        assert lipschitz_minorant([], 1) == []

    @pytest.mark.parametrize("profile,depth", [
        (LipschitzProfile((F(0),), (F(0),), F(1)), 0),
        (LipschitzProfile((F(0), F(10)), (F(0), F(5)), F(1)), 0),
        (LipschitzProfile((F(0), F(10)), (F(0), F(5)), F(1)), 10),
        (LipschitzProfile((F(0), F(3), F(13)), (F(0), F(0), F(10)), F(1)), 13),
        (LipschitzProfile((F(0), F(3), F(13)), (F(0), F(0), F(10)), F(1)), 20),
        (LipschitzProfile((F(0), F(5, 2), F(8)), (F(0), F(5), F(7)), F(2)), 9),
    ])
    @pytest.mark.parametrize("d", [1, 2])
    def test_ints(self, profile, depth, d):
        assert profile_from_lipschitz(profile, d, depth).a == \
            oracle_profile_from_lipschitz(profile, d, depth)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=6),
           st.integers(0, 24), st.integers(1, 3))
    def test_random_ints(self, rises, depth, d):
        knots = [F(0)] + [F(3 * (i + 1), 2) for i in range(len(rises))]
        values = [F(0)]
        for r in rises:
            values.append(values[-1] + F(r, 6))
        profile = LipschitzProfile(tuple(knots), tuple(values), F(d))
        assert profile_from_lipschitz(profile, d, depth).a == \
            oracle_profile_from_lipschitz(profile, d, depth)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-6, 6), st.integers(1, 4), st.fractions(0, 3),
           st.lists(st.tuples(st.integers(1, 9), st.fractions(0, 2)), max_size=6),
           st.integers(0, 30))
    def test_floors_per_segment(self, first, den, start, pieces, depth):
        # A first knot below, at or above 0 and depths past the last knot.
        knots, values = [F(first, den)], [F(start) if first else F(0)]
        for width, slope in pieces:
            knots.append(knots[-1] + F(width, den))
            values.append(values[-1] + slope * F(width, den))
        profile = LipschitzProfile(tuple(knots), tuple(values), F(2))
        assert _floors(profile, depth) == [math.floor(oracle_profile_at(knots, values, k))
                                           for k in range(depth + 1)]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((F(1), F(3, 4), F(1, 2))), st.integers(2, 30),
           st.integers(1, 31), st.integers(0, 30))
    def test_realized_psi_profiles(self, alpha, lam, t, depth):
        # The realization path: psi targets over the schedule 3, 6, 12, 24.
        lam = F(lam, 32)
        spec = make_psi(alpha, lam, alpha * (1 - lam) * F(t, 32))
        f = realize_uniform_profile(spec, geometric_schedule(2, 24, 3), cert_grid=2)
        assert profile_from_lipschitz(f, 1, depth).a == \
            oracle_profile_from_lipschitz(f, 1, depth)


# ---------------------------------------------------------------------------
# range merge

class TestRangeMerge:
    @pytest.mark.parametrize("pairs", [
        [(0, 0)], [(3, 3), (3, 3)],  # degenerate
        [(0, 2), (2, 5)], [(2, 5), (0, 2)],  # touching
        [(0, 4), (1, 2)], [(0, 4), (4, 4)], [(4, 4), (0, 4)],
        [(0, 1), (2, 3)], [(5, 9), (0, 0), (9, 9), (1, 5), (10, 12)],
    ])
    def test_interval_set(self, pairs):
        assert merge_ranges(sorted(pairs)) == oracle_merge(pairs)
        iset = IntervalSet(pairs, scale=5)
        assert (iset.scale, iset.pairs) == oracle_interval_set(pairs, 5)

    @settings(max_examples=80)
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 6)), min_size=1,
                    max_size=12))
    def test_random(self, starts_widths):
        pairs = [(s, s + w) for s, w in starts_widths]
        assert merge_ranges(sorted(pairs)) == oracle_merge(pairs)

    def test_reversed_pair_still_rejected(self):
        with pytest.raises(ParameterError, match=r"interval \(4, 3\) / 2\^2"):
            IntervalSet([(0, 1), (4, 3), (6, 5)], scale=2)

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=10), st.data())
    def test_runs_at_level(self, bits, data):
        ds = build_moran(SubdivisionProfile(1, tuple(bits)), len(bits))
        level = data.draw(st.integers(0, len(bits)))
        assert ds.runs_at_level(level) == oracle_runs_at_level(ds, level)


# ---------------------------------------------------------------------------
# flatten a construction

def canonical(iset):
    return iset.scale, iset.pairs


def moran(bits):
    return build_moran(SubdivisionProfile(1, tuple(bits)), len(bits))


class TestFlatten:
    @pytest.mark.parametrize("bits", [
        (0,), (1,), (1, 0), (0, 1, 0, 1, 1, 0), (1, 1, 0, 0, 1, 0, 1),
        (0, 0, 0, 0), (1, 1, 1, 1),
    ])
    def test_moran_every_resolution(self, bits):
        ds = moran(bits)
        for res in range(len(bits) + 1):
            assert canonical(enumerate_components(ds, res)) == \
                canonical(oracle_enumerate(ds, res))

    def test_runs_away_from_the_origin(self):
        ds = DyadicSet(5, [(3, 5), (9, 10), (12, 16), (31, 32)])
        for res in range(6):
            assert canonical(enumerate_components(ds, res)) == \
                canonical(oracle_enumerate(ds, res))
        assert enumerate_components(ds, 5).pairs[0] == (3, 5)

    @pytest.mark.parametrize("spec", [
        spectrum_from_breakpoints((0, 1), (0, 0), 1),
        make_phi(1, F(1, 2), F(1, 4)),
        make_q(1, F(1, 2), F(2, 3), F(1, 4)),
    ], ids=["zero", "phi", "q"])
    def test_assembly_below_depth(self, spec):
        asm = build_assembly(spec, k_max=4, depth=9)
        for res in range(asm.depth + 1):
            assert canonical(enumerate_components(asm, res)) == \
                canonical(oracle_enumerate(asm, res))

    def test_beyond_depth_rejected(self):
        asm = build_assembly(make_phi(1, F(1, 2), F(1, 4)), k_max=2, depth=4)
        for obj in (moran((1, 0)), asm):
            with pytest.raises(ParameterError, match="exceeds construction depth"):
                enumerate_components(obj, obj.depth + 1)


# ---------------------------------------------------------------------------
# windowed estimators

MORAN_SET = enumerate_components(moran((1, 0, 1, 1, 0, 1, 0, 0, 1, 1)), 10)
LB = lb_table(MORAN_SET, 10)
UB = ub_table(MORAN_SET, 10)
THETAS = [F(0), F(1, 10), F(1, 3), F(1, 2), F(9, 10), F(1)]


class TestEstimators:
    @pytest.mark.parametrize("window", [None, (1, 10), (4, 8), (7, 7), (9, 10)])
    def test_lower(self, window):
        est = estimate_lower_spectrum(LB, THETAS, window)
        assert (est.values, est.window, est.warning) == \
            oracle_estimate(LB, THETAS, window, lower=True)

    @pytest.mark.parametrize("window", [None, (1, 10), (4, 8), (7, 7), (9, 10)])
    def test_assouad(self, window):
        est = estimate_assouad_spectrum(UB, THETAS, window)
        assert (est.values, est.window, est.warning) == \
            oracle_estimate(UB, THETAS, window, lower=False)

    @pytest.mark.parametrize("theta", [F(0), F(1)])
    def test_theta_ends(self, theta):
        for est, table, lower in (
            (estimate_lower_spectrum(LB, [theta]), LB, True),
            (estimate_assouad_spectrum(UB, [theta]), UB, False),
        ):
            assert est.values == oracle_estimate(table, [theta], None, lower)[0]

    @pytest.mark.parametrize("window", [None, (3, 9), (10, 10)])
    @pytest.mark.parametrize("thetas", [THETAS, [F(1, 2)], [F(0)], [F(1)]])
    def test_restricted_table(self, window, thetas):
        cells = lower_cells(10, thetas, window)
        assert cells == oracle_verify_cells(10, thetas, window)
        restricted = lb_table(MORAN_SET, 10, cells=cells)
        assert sorted(restricted.cells) == cells
        est = estimate_lower_spectrum(restricted, thetas, window)
        assert est == estimate_lower_spectrum(LB, thetas, window)
        assert est.values == oracle_estimate(restricted, thetas, window, True)[0]

    def test_errors_kept(self):
        with pytest.raises(DomainError, match="outside"):
            estimate_lower_spectrum(LB, [F(3, 2)])
        with pytest.raises(DomainError, match="outside"):
            estimate_assouad_spectrum(UB, [F(-1, 2)])
        with pytest.raises(ParameterError, match="window"):
            estimate_assouad_spectrum(UB, [F(1, 2)], window=(0, 4))
        with pytest.raises(ParameterError, match="window"):
            lower_cells(10, [F(1, 2)], window=(4, 11))
        with pytest.raises(ParameterError,
                           match=r"^window \(3/2, 9/2\) has a non-integral bound$"):
            estimate_lower_spectrum(LB, [F(1, 2)], window=(F(3, 2), F(9, 2)))
        with pytest.raises(ParameterError,
                           match=r"^window \(2.7, 4.2\) has a non-integral bound$"):
            lower_cells(8, [F(1, 2)], window=(2.7, 4.2))
        assert estimate_lower_spectrum(LB, [F(1, 2)], window=(3.0, F(9))).window == (3, 9)
        assert lower_cells(8, [F(1, 2)], window=(F(2), 4.0)) == lower_cells(8, [F(1, 2)], (2, 4))
