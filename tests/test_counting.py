"""Unit tests for exact counts, tables, and spectrum estimators."""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdim.branch import EtaBound
from branchdim.counting import (
    SPARSE_KEEP,
    CountTable,
    IntervalSet,
    SpectrumEstimate,
    check_uniformity,
    covering_count,
    estimate_assouad_spectrum,
    estimate_lower_spectrum,
    estimate_to_csv,
    lb_table,
    monotonize_estimate,
    packing_count,
    table_to_csv,
    ub_table,
    uniformity_report_to_csv,
    _candidates_per_level,
    _cover,
    _dyadic_exponent,
    _greedy_pack,
    _Workspace,
)
from branchdim.errors import DomainError, ParameterError
from branchdim.sets import SubdivisionProfile, build_moran, enumerate_components


def as_f(x):
    return x if isinstance(x, F) else F(x)


def grid_packing_oracle(iset, center, radius, r):
    """Independent packing oracle: longest chain over a fine dyadic grid.

    Enumerates every grid point lying in the set and within radius - 2r
    of the center, then finds the longest chain with consecutive gaps
    strictly above 4r by dynamic programming.  The grid spacing is chosen
    so fine that any real packing can be shifted onto the grid without
    losing a point: if s is the coarsest scale expressing both the set
    endpoints and 4r, a feasible count m leaves dyadic slack at least
    2^-s in its chain, and spacing below 2^-s / m preserves strictness.
    The production code never enumerates points, so agreement between
    the two is meaningful evidence.
    """
    center, radius, r = as_f(center), as_f(radius), as_f(r)
    gap = 4 * r
    slack = radius - 2 * r
    lo_w, hi_w = center - slack, center + slack
    s = max(iset.scale, gap.denominator.bit_length() - 1)
    span = min(2 * slack, iset.hull[1] - iset.hull[0])
    m_bound = math.floor(max(span, 0) / gap) + 2
    resolution = s + m_bound.bit_length() + 1
    unit = F(1, 2 ** resolution)
    pts = set()
    for a, b in iset.intervals():
        lo, hi = max(a, lo_w), min(b, hi_w)
        if lo > hi:
            continue
        pts.add(lo)
        pts.add(hi)
        j0 = math.ceil(lo / unit)
        j1 = math.floor(hi / unit)
        pts.update(j * unit for j in range(j0, j1 + 1))
    pts = sorted(pts)
    best = []
    prefix = []  # prefix[i] = max(best[: i + 1])
    for x in pts:
        j = bisect_left(pts, x - gap)  # pts[k] < x - gap for k < j
        b = 1 if j == 0 else prefix[j - 1] + 1
        best.append(b)
        prefix.append(b if not prefix else max(prefix[-1], b))
    return max(best, default=1)


def exact_ball_cover(iset, r, window=None):
    """Minimal number of closed radius-r balls covering set ∩ window.

    The left-to-right sweep is exactly optimal in one dimension: each
    ball is pushed as far right as it can go while still covering the
    leftmost uncovered point.  Coverage may bleed across gaps into later
    pieces, which the running ``covered`` mark accounts for.
    """
    two_r = 2 * as_f(r)
    count = 0
    covered = None
    for a, b in iset.intervals():
        if window is not None:
            a, b = max(a, window[0]), min(b, window[1])
            if a > b:
                continue
        if covered is not None and covered >= b:
            continue
        while covered is None or covered < b:
            if covered is None or covered < a:
                covered = a + two_r
            else:
                covered = covered + two_r
            count += 1
    return count


FULL = IntervalSet([(0, 1)])
TWO_PIECE = IntervalSet([(0, F(1, 2)), (1, 1)])  # interval plus isolated point
POINT = IntervalSet([(F(1, 4), F(1, 4))])


def alternating_moran(depth):
    a = tuple(k % 2 for k in range(depth))
    return enumerate_components(build_moran(SubdivisionProfile(1, a), depth), depth)


class TestIntervalSet:
    def test_merges_touching_pieces(self):
        iv = IntervalSet([(F(1, 2), 1), (0, F(1, 2))])
        assert iv.intervals() == [(F(0), F(1))]

    def test_keeps_separated_pieces(self):
        iv = IntervalSet([(F(3, 4), 1), (0, F(1, 4))])
        assert len(iv) == 2
        assert iv.hull == (F(0), F(1))

    def test_degenerate_point(self):
        assert POINT.contains(F(1, 4))
        assert not POINT.contains(F(3, 8))

    def test_rejects_reversed(self):
        with pytest.raises(ParameterError):
            IntervalSet([(1, 0)])

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            IntervalSet([])

    def test_rejects_non_dyadic(self):
        with pytest.raises(ParameterError):
            IntervalSet([(0, F(1, 3))])

    def test_contains_endpoint(self):
        assert TWO_PIECE.contains(1)
        assert TWO_PIECE.contains(F(1, 2))
        assert not TWO_PIECE.contains(F(3, 4))

    def test_integer_runs_match_fraction_form(self):
        runs = [(8, 12), (2, 6), (6, 7), (20, 20)]
        pairs = [(F(lo, 16), F(hi, 16)) for lo, hi in runs]
        iv = IntervalSet(runs, scale=4)
        assert (iv.scale, iv.pairs) == (4, [(2, 7), (8, 12), (20, 20)])
        ref = IntervalSet(pairs)
        assert (iv.scale, iv.pairs) == (ref.scale, ref.pairs)

    def test_integer_runs_strip_shared_power_of_two(self):
        iv = IntervalSet([(8, 16), (24, 40)], scale=5)
        assert (iv.scale, iv.pairs) == (2, [(1, 2), (3, 5)])
        assert iv.intervals() == [(F(1, 4), F(1, 2)), (F(3, 4), F(5, 4))]

    def test_integer_origin_point(self):
        iv = IntervalSet([(0, 0)], scale=7)
        ref = IntervalSet([(0, 0)])
        assert (iv.scale, iv.pairs) == (ref.scale, ref.pairs) == (0, [(0, 0)])

    def test_integer_rejects_reversed(self):
        with pytest.raises(ParameterError):
            IntervalSet([(0, 1), (5, 3)], scale=3)

    def test_integer_rejects_empty(self):
        with pytest.raises(ParameterError):
            IntervalSet([], scale=3)

    def test_integer_rejects_negative_scale(self):
        with pytest.raises(ParameterError):
            IntervalSet([(0, 1)], scale=-1)

    @given(st.lists(st.tuples(st.integers(-64, 64), st.integers(0, 16)),
                    min_size=1, max_size=8),
           st.integers(0, 8))
    @settings(max_examples=80)
    def test_integer_form_equals_fraction_form(self, starts_widths, scale):
        runs = [(lo, lo + w) for lo, w in starts_widths]
        iv = IntervalSet(runs, scale=scale)
        ref = IntervalSet([(F(lo, 2 ** scale), F(hi, 2 ** scale))
                           for lo, hi in runs])
        assert (iv.scale, iv.pairs) == (ref.scale, ref.pairs)

    def test_scaled_pairs_refuses_coarsening(self):
        with pytest.raises(ParameterError):
            IntervalSet([(0, F(1, 4))]).scaled_pairs(1)


class TestPackingCount:
    def test_unit_interval_at_scale_five(self):
        # Gaps strictly above 1/8 and containment leave room for exactly 8.
        assert packing_count(FULL, 0, 1, F(1, 32)) == 8

    def test_matches_grid_oracle_on_unit_interval(self):
        got = packing_count(FULL, 0, 1, F(1, 32))
        assert got == grid_packing_oracle(FULL, F(0), F(1), F(1, 32))

    def test_isolated_point_forces_one(self):
        for v in (2, 3, 5, 8):
            assert packing_count(TWO_PIECE, 1, F(1, 2 ** v), F(1, 2 ** (v + 3))) == 1

    def test_tiny_radius_gives_one(self):
        assert packing_count(FULL, F(1, 2), F(1, 1024), F(1, 4)) == 1

    def test_center_outside_set(self):
        with pytest.raises(DomainError):
            packing_count(TWO_PIECE, F(3, 4), F(1, 4), F(1, 64))

    def test_bad_scale(self):
        with pytest.raises(ParameterError):
            packing_count(FULL, 0, 1, 0)

    def test_bad_radius(self):
        with pytest.raises(ParameterError):
            packing_count(FULL, 0, -1, F(1, 8))

    @pytest.mark.parametrize("center,radius,r", [
        (F(0), F(1), F(1, 64)),
        (F(1, 2), F(1, 4), F(1, 128)),
        (F(1), F(1, 2), F(1, 64)),
        (F(3, 8), F(1, 8), F(1, 256)),
    ])
    def test_matches_grid_oracle_on_two_piece(self, center, radius, r):
        got = packing_count(TWO_PIECE, center, radius, r)
        assert got == grid_packing_oracle(TWO_PIECE, center, radius, r)

    def test_matches_grid_oracle_on_moran(self):
        iv = alternating_moran(8)
        endpoints = [a for a, _ in iv.intervals()]
        for center in endpoints[:3]:
            for r_exp in (8, 10):
                got = packing_count(iv, center, F(1, 16), F(1, 2 ** r_exp))
                want = grid_packing_oracle(iv, center, F(1, 16), F(1, 2 ** r_exp))
                assert got == want


class TestCoveringCount:
    def test_full_interval_level_three(self):
        assert covering_count(FULL, F(1, 2), F(1, 2), 3) == 8

    def test_isolated_point_hits_one_cube(self):
        for u in (0, 1, 4, 9):
            assert covering_count(TWO_PIECE, 1, F(1, 4), u) == 1

    def test_alternating_moran_whole_set(self):
        iv = alternating_moran(4)
        assert covering_count(iv, 0, 1, 4) == 4

    def test_center_outside_set(self):
        with pytest.raises(DomainError):
            covering_count(TWO_PIECE, F(7, 8), F(1, 8), 4)

    def test_negative_level(self):
        with pytest.raises(ParameterError):
            covering_count(FULL, 0, 1, -1)

    def test_cover_counts_dominate_exact_cover(self):
        # Cube counting can only overshoot the true ball-cover number.
        for u in range(1, 8):
            cubes = covering_count(FULL, F(1, 2), F(1, 2), u)
            assert exact_ball_cover(FULL, F(1, 2 ** u)) <= cubes


class TestSandwich:
    """N_{4r} <= P_r <= N_r on whole-set windows."""

    @pytest.mark.parametrize("iset", [FULL, TWO_PIECE], ids=["full", "two-piece"])
    def test_sandwich_against_exact_cover(self, iset):
        center = iset.hull[0]
        for r_exp in range(3, 9):
            r = F(1, 2 ** r_exp)
            p = packing_count(iset, center, 2, r)
            assert exact_ball_cover(iset, 4 * r) <= p <= exact_ball_cover(iset, r)

    def test_sandwich_on_moran(self):
        iv = alternating_moran(10)
        center = iv.hull[0]
        for r_exp in range(4, 11):
            r = F(1, 2 ** r_exp)
            p = packing_count(iv, center, 2, r)
            assert exact_ball_cover(iv, 4 * r) <= p <= exact_ball_cover(iv, r)

    @given(st.sets(st.integers(0, 32), min_size=2, max_size=10),
           st.integers(4, 6))
    @settings(max_examples=25, deadline=None)
    def test_sandwich_on_random_sets(self, cuts, r_exp):
        pts = sorted(F(c, 32) for c in cuts)
        pairs = list(zip(pts[::2], pts[1::2]))
        if not pairs:
            return
        iset = IntervalSet(pairs)
        r = F(1, 2 ** r_exp)
        p = packing_count(iset, iset.hull[0], 4, r)
        assert exact_ball_cover(iset, 4 * r) <= p <= exact_ball_cover(iset, r)
        assert p == grid_packing_oracle(iset, iset.hull[0], F(4), r)


class TestTables:
    def test_fractional_cell_rejected(self):
        with pytest.raises(ParameterError, match=r"cell \(4, Fraction\(1, 2\)\)"):
            lb_table(IntervalSet([(0, 1)]), 4, cells=[(4, F(1, 2))])

    def test_fractional_u_max_rejected(self):
        with pytest.raises(ParameterError, match=r"u_max .*Fraction\(9, 2\)"):
            ub_table(FULL, F(9, 2))

    def test_boolean_cell_rejected(self):
        with pytest.raises(ParameterError, match=r"cell \(True, 0\)"):
            lb_table(FULL, 4, cells=[(True, 0)])

    def test_range_messages_kept(self):
        with pytest.raises(ParameterError, match="u_max must be non-negative"):
            lb_table(FULL, -1)
        with pytest.raises(ParameterError, match=r"cell \(5, 0\) outside the grid"):
            lb_table(FULL, 4, cells=[(5, 0)])

    def test_lb_diagonal_is_zero(self):
        for iset in (FULL, TWO_PIECE, alternating_moran(6)):
            t = lb_table(iset, 6)
            assert all(t.count(u, u) == 1 for u in range(7))

    def test_full_interval_cell(self):
        t = lb_table(FULL, 6)
        assert t.count(5, 0) == 8
        assert t.log2(5, 0) == 3.0

    def test_two_piece_collapses_past_level_one(self):
        t = lb_table(TWO_PIECE, 10)
        for u in range(2, 11):
            for v in range(2, u + 1):
                assert t.count(u, v) == 1

    def test_two_piece_full_ball_frozen(self):
        t = lb_table(TWO_PIECE, 16, candidate_rule="endpoints",
                     cells=[(16, 0)])
        assert t.log2(16, 0) == 13.0

    def test_ub_full_interval_grows_linearly(self):
        t = ub_table(FULL, 8)
        for u in range(1, 9):
            assert t.count(u, 0) == 2 ** u

    def test_ub_diagonal_is_zero(self):
        t = ub_table(FULL, 6)
        assert all(t.count(u, u) == 1 for u in range(7))

    def test_validate_passes_on_real_tables(self):
        for iset in (FULL, TWO_PIECE, alternating_moran(8)):
            assert lb_table(iset, 8).validate() == []
            assert ub_table(iset, 8).validate() == []

    def test_validate_reports_planted_defects(self):
        t = CountTable(kind="lb", u_max=2,
                       cells={(0, 0): 1, (1, 1): 2, (2, 0): 0},
                       candidate_rule="dense")
        problems = t.validate()
        assert any("diagonal" in p for p in problems)
        assert any("< 1" in p for p in problems)

    def test_superadditivity_violation_detected(self):
        t = CountTable(kind="lb", u_max=2,
                       cells={(2, 0): 5, (2, 1): 2, (1, 0): 3},
                       candidate_rule="dense")
        assert any("superadditivity" in p for p in t.superadditivity_violations())

    def test_moran_uniform_gap_between_tables(self):
        iv = alternating_moran(12)
        lo = lb_table(iv, 12, candidate_rule="endpoints")
        hi = ub_table(iv, 12, candidate_rule="endpoints")
        worst = max(hi.log2(u, v) - lo.log2(u, v) for (u, v) in lo.grid())
        assert worst <= 4

    def test_sparse_equals_endpoints_on_moran(self):
        iv = alternating_moran(14)
        a = lb_table(iv, 14, candidate_rule="endpoints")
        b = lb_table(iv, 14, candidate_rule="sparse")
        assert a.cells == b.cells

    def test_cells_restriction(self):
        t = lb_table(FULL, 12, cells=[(12, 6), (12, 4)])
        assert t.grid() == [(12, 4), (12, 6)]
        with pytest.raises(ParameterError):
            t.count(12, 5)

    def test_cells_outside_grid(self):
        with pytest.raises(ParameterError):
            lb_table(FULL, 4, cells=[(5, 0)])

    def test_unknown_candidate_rule(self):
        with pytest.raises(ParameterError):
            lb_table(FULL, 3, candidate_rule="random")

    def test_approximate_u_lipschitz(self):
        """Measured finite-scale form of lb(u+1, v) <= lb(u, v) + 1 + C."""
        iv = alternating_moran(12)
        t = lb_table(iv, 12, candidate_rule="endpoints")
        for (u, v) in t.grid():
            if (u + 1, v) in t.cells:
                assert t.log2(u + 1, v) - t.log2(u, v) <= 1 + 2


def per_level_candidates(ws, rule, v):
    """Candidate lists rebuilt for every ball level v: the oracle."""
    if rule == "endpoints" or rule == "dense":
        cands = []
        for lo, hi in ws.pieces:
            cands.append(lo)
            if hi != lo:
                cands.append(hi)
        if rule == "dense":
            shift = ws.scale - min(v + 3, ws.scale)
            unit = 1 << shift
            for lo, hi in ws.pieces:
                j = -(-lo // unit)
                top = hi // unit
                cands.extend(j2 * unit for j2 in range(j, top + 1))
        return sorted(set(cands))
    if rule == "sparse":
        k = SPARSE_KEEP
        cands = set()
        for lo, hi in ws.pieces[:k] + ws.pieces[-k:]:
            cands.add(lo)
            cands.add(hi)
        gaps = sorted(
            range(len(ws.pieces) - 1),
            key=lambda i: ws.pieces[i + 1][0] - ws.pieces[i][1],
            reverse=True,
        )[:k]
        for i in gaps:
            cands.add(ws.pieces[i][1])
            cands.add(ws.pieces[i + 1][0])
        return sorted(cands)
    raise ParameterError(f"unknown candidate rule {rule!r}")


def random_gap_set(widths):
    """Unit pieces separated by the given gap widths (ties included)."""
    runs, x = [], 0
    for w in widths:
        runs.append((x, x + 1))
        x += 1 + w
    runs.append((x, x + 1))
    return IntervalSet(runs, scale=6)


def check_split(ws, rule, v, split):
    """The centers and the inner progressions make up the oracle's list.

    Inner points (dense only) are level-(v+3) points whose radius-2^-v
    window lies in their own piece; every center's window leaves its piece.
    """
    centers, inner = split
    step = 1 << (ws.scale - v - 3)
    rad = step << 3
    points = [j * step for a, b in inner for j in range(a, b + 1)]
    if rule != "dense":
        assert inner == []
    assert centers == sorted(set(centers))
    assert sorted(centers + points) == per_level_candidates(ws, rule, v)
    if rule == "dense":
        for c in points:
            assert any(lo <= c - rad and c + rad <= hi for lo, hi in ws.pieces)
        for c in centers:
            assert not any(lo <= c - rad and c + rad <= hi for lo, hi in ws.pieces)


class TestCandidatesMatchPerLevelOracle:
    """Candidates equal the per-level rebuild: the endpoint and sparse lists
    built once per table, and the dense centers with the inner progressions."""

    @pytest.mark.parametrize("rule", ["endpoints", "dense", "sparse"])
    @pytest.mark.parametrize("name,iset,u_max", [
        ("full", FULL, 6),
        ("two-piece", TWO_PIECE, 6),
        ("point", POINT, 4),
        ("moran-10", alternating_moran(10), 10),
        ("tied-gaps", random_gap_set([3, 1, 3, 2, 3, 1, 3, 3, 2, 3, 1, 3]), 8),
        # twenty tied widest gaps, all flanked by interior pieces
        ("tied-interior", random_gap_set([1] * 10 + [3] * 20 + [1] * 10), 8),
    ])
    def test_every_level(self, rule, name, iset, u_max):
        ws = _Workspace(iset, u_max + 3)
        candidates = _candidates_per_level(ws, rule)
        for v in range(u_max + 1):
            check_split(ws, rule, v, candidates(v))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=0, max_size=40),
           st.integers(0, 9))
    def test_random_gap_ties(self, widths, u_max):
        ws = _Workspace(random_gap_set(widths), u_max + 3)
        for rule in ("endpoints", "dense", "sparse"):
            candidates = _candidates_per_level(ws, rule)
            for v in range(u_max + 1):
                check_split(ws, rule, v, candidates(v))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_wide_sets(self, data):
        iset, u_max = data.draw(wide_dyadic_sets())
        ws = _Workspace(iset, u_max + 3)
        candidates = _candidates_per_level(ws, "dense")
        for v in range(u_max + 1):
            check_split(ws, "dense", v, candidates(v))

    def test_unknown_rule(self):
        with pytest.raises(ParameterError):
            _candidates_per_level(_Workspace(FULL, 3), "random")


def make_estimate(pairs, kind="lower", window=(4, 8), warning=False):
    thetas = tuple(as_f(t) for t, _ in pairs)
    values = tuple(float(v) for _, v in pairs)
    return SpectrumEstimate(kind=kind, thetas=thetas, values=values,
                            window=window, warning=warning)


class TestLowerSpectrumEstimate:
    def test_full_interval_half_theta_frozen(self):
        t = lb_table(FULL, 16)
        est = estimate_lower_spectrum(t, [F(1, 2)], window=(8, 16))
        # Worst ratio in the window is at u = 9, v = 5: count 4 over 9 bits.
        assert est.values[0] == pytest.approx(2 / 9)
        assert abs(est.values[0] - 0.5) <= 2.5 / 8

    def test_theta_one_is_zero(self):
        t = lb_table(FULL, 8)
        est = estimate_lower_spectrum(t, [F(1)], window=(4, 8))
        assert est.values[0] == 0.0

    def test_two_piece_collapses_near_one(self):
        t = lb_table(TWO_PIECE, 12)
        est = estimate_lower_spectrum(t, [F(9, 10)], window=(6, 12))
        assert est.values[0] == 0.0

    def test_window_warning(self):
        t = lb_table(FULL, 8)
        est = estimate_lower_spectrum(t, [F(1, 2)], window=(7, 8))
        assert est.warning is True

    def test_rejects_ub_tables(self):
        with pytest.raises(ParameterError):
            estimate_lower_spectrum(ub_table(FULL, 4), [F(1, 2)])

    def test_rejects_bad_window(self):
        t = lb_table(FULL, 6)
        with pytest.raises(ParameterError):
            estimate_lower_spectrum(t, [F(1, 2)], window=(4, 9))

    def test_lift_backed_table_is_exact(self):
        # Synthetic tables whose counts are exact powers reproduce the
        # generating spectrum on-the-nose wherever ceil(theta*u) = theta*u.
        from branchdim.spectra import make_psi
        psi = make_psi(1, F(1, 2), F(1, 4))
        cells = {(12, v): 2 ** int(12 * psi.eval_exact(F(v, 12)))
                 for v in range(13)
                 if (12 * psi.eval_exact(F(v, 12))).denominator == 1}
        t = CountTable(kind="lb", u_max=12, cells=cells, candidate_rule="dense")
        est = estimate_lower_spectrum(t, [F(1, 3)], window=(12, 12))
        assert est.values[0] == pytest.approx(float(psi.eval_exact(F(1, 3))), abs=1e-12)

    def test_segment_table_is_exact(self):
        # Only a window whose every u has integral theta*u reproduces the
        # segment exactly; mixed windows dip below it at u with ceil slack.
        cells = {(u, v): 2 ** (u - v) for u in range(13) for v in range(u + 1)}
        t = CountTable(kind="lb", u_max=12, cells=cells, candidate_rule="dense")
        est = estimate_lower_spectrum(t, [F(1, 3), F(1, 2)], window=(12, 12))
        assert est.values[0] == pytest.approx(2 / 3)
        assert est.values[1] == pytest.approx(1 / 2)
        mixed = estimate_lower_spectrum(t, [F(1, 3)], window=(6, 12))
        assert mixed.values[0] == pytest.approx(4 / 7)  # dip at u = 7


class TestMonotonize:
    def test_idempotent(self):
        est = make_estimate([(F(1, 5), 0.4), (F(1, 2), 0.15), (F(4, 5), 0.08)])
        once = monotonize_estimate(est)
        twice = monotonize_estimate(once)
        assert once.values == twice.values
        assert once.kind == "monotone_lower"

    def test_running_infimum_example(self):
        # Dimension readings 0.5, 0.3, 0.4 must monotonize to 0.5, 0.3, 0.3.
        est = make_estimate([
            (F(1, 5), 0.5 * (1 - 0.2)),
            (F(1, 2), 0.3 * (1 - 0.5)),
            (F(4, 5), 0.4 * (1 - 0.8)),
        ])
        mono = monotonize_estimate(est)
        dims = [v / (1 - float(t)) for t, v in zip(mono.thetas, mono.values)]
        assert dims == pytest.approx([0.5, 0.3, 0.3])

    def test_matches_direct_formula(self):
        est = make_estimate([
            (F(1, 4), 0.31), (F(2, 4), 0.27), (F(3, 4), 0.11), (F(9, 10), 0.09),
        ])
        mono = monotonize_estimate(est)
        for i, (theta, got) in enumerate(zip(mono.thetas, mono.values)):
            want = (1 - theta) * min(
                F(est.values[j]) / (1 - est.thetas[j]) for j in range(i + 1)
            )
            assert abs(got - float(want)) <= 1e-12

    def test_theta_one_passes_through(self):
        est = make_estimate([(F(1, 2), 0.3), (F(1), 0.0)])
        mono = monotonize_estimate(est)
        assert mono.values[-1] == 0.0

    def test_requires_lower_kind(self):
        est = make_estimate([(F(1, 2), 0.3)], kind="assouad")
        with pytest.raises(ParameterError):
            monotonize_estimate(est)

    def test_dominated_by_input(self):
        est = make_estimate([(F(1, 4), 0.5), (F(1, 2), 0.2), (F(3, 4), 0.3)])
        mono = monotonize_estimate(est)
        assert all(m <= v + 1e-15 for m, v in zip(mono.values, est.values))


class TestAssouadEstimate:
    def test_full_interval_tracks_one_minus_theta(self):
        t = ub_table(FULL, 16)
        thetas = [F(1, 4), F(1, 2), F(3, 4)]
        est = estimate_assouad_spectrum(t, thetas, window=(8, 16))
        for theta, value in zip(thetas, est.values):
            assert abs(value - (1 - theta)) <= 2 / 8

    def test_singleton_estimates_zero(self):
        t = ub_table(POINT, 8)
        est = estimate_assouad_spectrum(t, [F(1, 4), F(1, 2)])
        assert est.values == (0.0, 0.0)

    def test_rejects_lb_tables(self):
        with pytest.raises(ParameterError):
            estimate_assouad_spectrum(lb_table(FULL, 4), [F(1, 2)])

    def test_dominates_lower_estimate_on_moran(self):
        iv = alternating_moran(12)
        lo = estimate_lower_spectrum(lb_table(iv, 12), [F(1, 2)])
        hi = estimate_assouad_spectrum(ub_table(iv, 12), [F(1, 2)])
        assert hi.values[0] >= lo.values[0]
        assert hi.values[0] - lo.values[0] <= 4 / 6


class TestUniformity:
    def test_singleton_uniform_at_zero_budget(self):
        lo = lb_table(POINT, 6)
        hi = ub_table(POINT, 6)
        rep = check_uniformity(lo, hi, EtaBound.const(0))
        assert rep.passed and rep.worst_excess <= 0

    def test_moran_uniform_with_budget_four(self):
        iv = alternating_moran(12)
        rep = check_uniformity(lb_table(iv, 12), ub_table(iv, 12),
                               EtaBound.const(4))
        assert rep.passed

    def test_two_piece_fails_even_generous_budget(self):
        rep = check_uniformity(lb_table(TWO_PIECE, 16), ub_table(TWO_PIECE, 16),
                               EtaBound.const(8))
        assert not rep.passed
        # Covering B(1/2, 1/2) needs 2^15 cubes over [0, 1/2] plus one for
        # the point, while packing B(1, 1/2) is pinned to the point alone.
        assert rep.worst_excess == pytest.approx(math.log2(2 ** 15 + 1) - 8)
        assert rep.witness == (16, 1)

    def test_grid_mismatch(self):
        with pytest.raises(ParameterError):
            check_uniformity(lb_table(FULL, 4), ub_table(FULL, 5),
                             EtaBound.const(1))

    def test_kind_mismatch(self):
        with pytest.raises(ParameterError):
            check_uniformity(lb_table(FULL, 4), lb_table(FULL, 4),
                             EtaBound.const(1))


class TestSerialization:
    def test_table_csv_shape(self):
        text = table_to_csv(lb_table(FULL, 2))
        lines = text.strip().split("\n")
        assert lines[0] == "# kind=lb"
        assert "u,v,count,log2" in lines
        assert lines[-1].startswith("2,2,1,")

    def test_estimate_csv_shape(self):
        est = make_estimate([(F(1, 2), 0.25)])
        lines = estimate_to_csv(est).strip().split("\n")
        assert lines[0] == "# kind=lower"
        assert lines[-2] == "theta,value"
        assert lines[-1].startswith("0.5,")

    def test_uniformity_csv_shape(self):
        rep = check_uniformity(lb_table(FULL, 3), ub_table(FULL, 3),
                               EtaBound.const(4))
        lines = uniformity_report_to_csv(rep).strip().split("\n")
        assert lines[0] == "check,passed,worst,witness"
        assert lines[1].startswith("uniformity,")

    def test_csv_determinism(self):
        a = table_to_csv(lb_table(TWO_PIECE, 6))
        b = table_to_csv(lb_table(TWO_PIECE, 6))
        assert a == b


# ---------------------------------------------------------------------------
# The ball counts, table loop and membership test as they were before the
# tables and the one-ball counts shared the two window-owning kernels,
# kept as oracles.

def window_slice(pieces, wl, wr):
    """The pieces meeting the window [wl, wr]."""
    first = bisect_left([hi for _, hi in pieces], wl)
    last = bisect_right([lo for lo, _ in pieces], wr)
    return pieces[first:last]


def oracle_greedy_pack(pieces, window_lo, window_hi, gap, cutoff=None):
    count = 0
    px = pn = None
    for lo, hi in pieces:
        lo, hi = max(lo, window_lo), min(hi, window_hi)
        if lo > hi:
            continue
        if px is None or px + gap < lo:
            x, n = lo, 0
        else:
            x, n = px + gap, pn + 1
        if n == 0:
            span = hi - x
            m = max(1, -(-span // gap)) if span >= 0 else 0
        else:
            span = hi - x
            m = -(-span // gap) if span > 0 else 0
        if m <= 0:
            continue
        count += m
        px, pn = x + (m - 1) * gap, (n if n else 0) + (m - 1)
        if cutoff is not None and count >= cutoff:
            return count
    return count


def oracle_cover_cubes(pieces, window_lo, window_hi, shift):
    count = 0
    unit = 1 << shift
    last_hi = None
    for lo, hi in pieces:
        lo, hi = max(lo, window_lo), min(hi, window_hi)
        if lo > hi:
            continue
        if lo == hi:
            j_lo = j_hi = lo >> shift
        else:
            j_lo = lo >> shift
            j_hi = ((hi + unit - 1) >> shift) - 1
        if last_hi is not None and j_lo <= last_hi:
            j_lo = last_hi + 1
            if j_lo > j_hi:
                continue
        count += j_hi - j_lo + 1
        last_hi = j_hi
    return count


def oracle_packing_count(iset, center, radius, r):
    center, radius, r = as_f(center), as_f(radius), as_f(r)
    if r <= 0:
        raise ParameterError(f"packing scale r must be positive, got {r}")
    if radius <= 0:
        raise ParameterError(f"ball radius must be positive, got {radius}")
    gap = 4 * r
    scale = max(_dyadic_exponent(r, "r") + 2, _dyadic_exponent(center, "center"),
                _dyadic_exponent(radius, "radius"))
    ws = _Workspace(iset, scale)
    unit = 1 << ws.scale
    c = int(center * unit)
    if not ws.locate(c):
        raise DomainError(f"center {center} lies outside the set")
    g = int(gap * unit)
    rad = int(radius * unit) - g // 2
    if rad < 0:
        return 1
    return max(1, oracle_greedy_pack(window_slice(ws.pieces, c - rad, c + rad),
                                     c - rad, c + rad, g))


def oracle_covering_count(iset, center, radius, u):
    center, radius = as_f(center), as_f(radius)
    if radius <= 0:
        raise ParameterError(f"ball radius must be positive, got {radius}")
    if u < 0:
        raise ParameterError(f"cube level must be non-negative, got {u}")
    scale = max(u, _dyadic_exponent(center, "center"),
                _dyadic_exponent(radius, "radius"))
    ws = _Workspace(iset, scale)
    unit = 1 << ws.scale
    c = int(center * unit)
    if not ws.locate(c):
        raise DomainError(f"center {center} lies outside the set")
    rad = int(radius * unit)
    return oracle_cover_cubes(window_slice(ws.pieces, c - rad, c + rad), c - rad, c + rad,
                              ws.scale - u)


def oracle_table_cells(iset, u_max, candidate_rule, kind, cells=None):
    """Every candidate of the per-level oracle list, through the oracle kernels."""
    ws = _Workspace(iset, u_max + 3)
    hull_lo, hull_hi = ws.pieces[0][0], ws.pieces[-1][1]
    out = {}
    for v in range(u_max + 1):
        cands = per_level_candidates(ws, candidate_rule, v)
        rad = 1 << (ws.scale - v)
        for u in range(v, u_max + 1):
            if cells is not None and (u, v) not in cells:
                continue
            gap = 1 << (ws.scale - u + 2)
            if kind == "lb":
                eff = rad - gap // 2
                if eff < 0:
                    out[(u, v)] = 1
                    continue
            else:
                if u == v:
                    out[(u, v)] = 1
                    continue
                eff = rad
            full_cover = eff >= hull_hi - hull_lo
            best = None
            for c in cands:
                wl, wr = c - eff, c + eff
                pieces = window_slice(ws.pieces, wl, wr)
                if kind == "lb":
                    got = max(1, oracle_greedy_pack(pieces, wl, wr, gap, cutoff=best))
                    if best is None or got < best:
                        best = got
                    if best <= 1 or full_cover:
                        break
                else:
                    got = oracle_cover_cubes(pieces, wl, wr, ws.scale - u)
                    if best is None or got > best:
                        best = got
                    if full_cover:
                        break
            out[(u, v)] = best
    return out


def oracle_contains(iset, x):
    x = as_f(x)
    scaled = x * (1 << iset.scale)
    los = [lo for lo, _ in iset.pairs]
    i = bisect_right(los, scaled) - 1
    return i >= 0 and iset.pairs[i][0] <= scaled <= iset.pairs[i][1]


def outcome(fn, *args):
    """The result, or the type and message of the toolkit error raised."""
    try:
        return fn(*args)
    except (DomainError, ParameterError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def small_dyadic_sets(draw):
    """Random runs in [0, 1] at scale <= 4; width 0 gives isolated points."""
    scale = draw(st.integers(0, 4))
    top = 1 << scale
    runs = draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, 3)),
                         min_size=1, max_size=6))
    return IntervalSet([(s, min(top, s + w)) for s, w in runs], scale=scale)


@st.composite
def wide_dyadic_sets(draw):
    """Up to 25 pieces in [0, 1] at scale <= 8, with a table size u_max <= 11.

    Pieces span consecutive pairs of random cut points, a fifth of them
    shrunk to isolated points.  Wide pieces put windows inside a piece,
    and u_max up to 11 reaches inner centers off the level-u grid at
    u = v+1 and u = v+2.
    """
    rng = draw(st.randoms(use_true_random=False))
    scale = rng.randint(0, 8)
    top = 1 << scale
    cuts = sorted(rng.sample(range(top + 1), min(top + 1, rng.randint(1, 50))))
    runs = [(a, a if rng.random() < 0.2 else b)
            for a, b in zip(cuts[::2], cuts[1::2] + cuts[-1:])]
    return IntervalSet(runs, scale=scale), rng.randint(0, 11)


NARROW = IntervalSet([(F(1, 4), F(5, 16))])  # hull far narrower than 1
NARROW_PAIR = IntervalSet([(F(3, 8), F(3, 8)), (F(7, 16), F(1, 2))])


def check_counts_at_endpoints(iset):
    centers = sorted({x for pair in iset.intervals() for x in pair})
    radii = [F(1, 2 ** k) for k in range(iset.scale + 3)] + [F(3, 64), F(2)]
    scales = [F(1, 2 ** k) for k in range(1, iset.scale + 5)] + [F(3, 64)]
    for c in centers:
        for radius in radii:
            for r in scales:
                assert (outcome(packing_count, iset, c, radius, r)
                        == outcome(oracle_packing_count, iset, c, radius, r))
            for u in range(iset.scale + 4):
                assert (outcome(covering_count, iset, c, radius, u)
                        == outcome(oracle_covering_count, iset, c, radius, u))


class TestBallCountsMatchOracle:
    """One-ball counts through the table kernels equal the former counts."""

    @pytest.mark.parametrize("iset", [FULL, TWO_PIECE, POINT, NARROW, NARROW_PAIR,
                                      alternating_moran(5)],
                             ids=["full", "two-piece", "point", "narrow",
                                  "narrow-pair", "moran-5"])
    def test_every_endpoint_as_center(self, iset):
        check_counts_at_endpoints(iset)

    @settings(max_examples=30, deadline=None)
    @given(small_dyadic_sets())
    def test_random_sets(self, iset):
        check_counts_at_endpoints(iset)

    @pytest.mark.parametrize("center,radius,r", [
        (F(1, 2), F(1, 64), F(1, 16)),   # radius - 2r < 0
        (F(1, 2), F(1, 16), F(1, 16)),   # radius - 2r < 0
        (F(1, 2), F(1, 8), F(1, 16)),    # radius - 2r == 0
        (F(0), F(1), F(3, 64)),          # r not a power of two
        (F(1, 4), F(3, 8), F(3, 64)),
        (F(1, 2), F(1, 4), F(3, 128)),
    ])
    def test_shrunken_radius_and_odd_scales(self, center, radius, r):
        for iset in (FULL, TWO_PIECE, alternating_moran(6)):
            assert (outcome(packing_count, iset, center, radius, r)
                    == outcome(oracle_packing_count, iset, center, radius, r))

    @pytest.mark.parametrize("args", [
        (TWO_PIECE, F(3, 4), F(1, 4), F(1, 64)),   # center outside the set
        (FULL, F(1, 3), F(1, 4), F(1, 64)),        # center not dyadic
        (FULL, 0, -1, F(1, 8)),                    # bad radius
        (FULL, 0, 1, 0),                           # bad scale
        (FULL, 0, F(1, 3), F(1, 8)),               # radius not dyadic
    ])
    def test_errors(self, args):
        # One fault per call: with several, the first one reported may differ.
        assert outcome(packing_count, *args) == outcome(oracle_packing_count, *args)
        iset, center, radius, _ = args
        for u in (0, 3):
            assert (outcome(covering_count, iset, center, radius, u)
                    == outcome(oracle_covering_count, iset, center, radius, u))

    def test_negative_level(self):
        assert (outcome(covering_count, FULL, 0, 1, -1)
                == outcome(oracle_covering_count, FULL, 0, 1, -1))


class TestTablesMatchOracle:
    """Tables calling the shared kernels per candidate equal the former loop."""

    @pytest.mark.parametrize("rule", ["endpoints", "dense", "sparse"])
    @pytest.mark.parametrize("kind", ["lb", "ub"])
    @pytest.mark.parametrize("name,iset,u_max", [
        ("full", FULL, 6),
        ("two-piece", TWO_PIECE, 6),
        ("point", POINT, 4),
        ("narrow", NARROW, 7),
        ("narrow-pair", NARROW_PAIR, 7),
        ("moran-8", alternating_moran(8), 8),
    ])
    def test_fixed_sets(self, rule, kind, name, iset, u_max):
        table = (lb_table if kind == "lb" else ub_table)(iset, u_max, rule)
        assert table.cells == oracle_table_cells(iset, u_max, rule, kind)

    @settings(max_examples=30, deadline=None)
    @given(small_dyadic_sets(), st.integers(0, 6))
    def test_random_sets(self, iset, u_max):
        for rule in ("endpoints", "dense", "sparse"):
            assert (lb_table(iset, u_max, rule).cells
                    == oracle_table_cells(iset, u_max, rule, "lb"))
            assert (ub_table(iset, u_max, rule).cells
                    == oracle_table_cells(iset, u_max, rule, "ub"))


    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_wide_sets(self, data):
        iset, u_max = data.draw(wide_dyadic_sets())
        grid = [(u, v) for u in range(u_max + 1) for v in range(u + 1)]
        cells = data.draw(st.sets(st.sampled_from(grid), min_size=1))
        for rule in ("endpoints", "dense", "sparse"):
            for kind, table in (("lb", lb_table), ("ub", ub_table)):
                assert (table(iset, u_max, rule).cells
                        == oracle_table_cells(iset, u_max, rule, kind))
                assert (table(iset, u_max, rule, cells=cells).cells
                        == oracle_table_cells(iset, u_max, rule, kind, cells))

    def test_single_interval_closed_form(self):
        """[0, 1] under the dense rule at u_max = 20, cell by cell.

        lb(u, v) = 2^(u-v-2) for u >= v+2, else 1: the center 0 sees
        [0, 2^-v - 2^(1-u)], which holds that many points 2^(2-u) apart,
        and no window holds fewer.  ub(u, v) = 1 on the diagonal, 2^u at
        v = 0, and otherwise 2^(u-v+1) cubes of a window inside [0, 1],
        plus one when an inner level-(v+3) center is off the level-u grid,
        which happens for 2 <= v and u <= v+2 (at v = 1 the one inner
        center is 1/2); windows clipped by 0 or 1 hit no more cubes.
        """
        lb = lb_table(FULL, 20).cells
        ub = ub_table(FULL, 20).cells
        for u in range(21):
            for v in range(u + 1):
                assert lb[(u, v)] == (2 ** (u - v - 2) if u >= v + 2 else 1)
                if u == v:
                    want = 1
                elif v == 0:
                    want = 2 ** u
                else:
                    want = 2 ** (u - v + 1) + (2 <= v and u <= v + 2)
                assert ub[(u, v)] == want, (u, v)


class TestKernelsMatchOracle:
    """The one-pass greedy and the prefix-sum cover against the piece scans."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cover_on_random_windows(self, data):
        iset, _ = data.draw(wide_dyadic_sets())
        ws = _Workspace(iset, data.draw(st.integers(0, 3)) + iset.scale)
        hi = ws.ends[-1]
        # window edges anywhere, and exactly at piece ends
        edges = st.sampled_from(sorted({x for piece in ws.pieces for x in piece}))
        for _ in range(10):
            wl = data.draw(st.one_of(st.integers(-2, hi + 2), edges))
            wr = data.draw(st.one_of(st.integers(wl, hi + 2), edges.filter(lambda x: x >= wl)))
            shift = data.draw(st.integers(0, ws.scale))
            assert (_cover(ws, wl, wr, shift)
                    == oracle_cover_cubes(window_slice(ws.pieces, wl, wr), wl, wr, shift))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_greedy_on_random_balls(self, data):
        iset, _ = data.draw(wide_dyadic_sets())
        ws = _Workspace(iset, iset.scale + 3)
        for _ in range(10):
            lo, hi = data.draw(st.sampled_from(ws.pieces))
            c = data.draw(st.integers(lo, hi))
            rad = data.draw(st.integers(1, 2 * ws.ends[-1] + 2))
            gap = 1 << data.draw(st.integers(1, ws.scale + 1))
            half = rad - gap // 2
            want = 1 if half < 0 else max(1, oracle_greedy_pack(
                window_slice(ws.pieces, c - half, c + half), c - half, c + half, gap))
            assert _greedy_pack(ws, c, rad, gap) == want
            cutoff = data.draw(st.integers(1, want + 1))
            got = _greedy_pack(ws, c, rad, gap, cutoff)
            assert got == want or cutoff <= got <= want


class TestContainsMatchesOracle:
    XS = ([F(k, 64) for k in range(-8, 73)] + [F(k, 3) for k in range(-1, 5)]
          + [F(k, 7) for k in range(8)] + [F(5, 17), 0.25, 2])

    @pytest.mark.parametrize("iset", [FULL, TWO_PIECE, POINT, NARROW, NARROW_PAIR,
                                      alternating_moran(6)],
                             ids=["full", "two-piece", "point", "narrow",
                                  "narrow-pair", "moran-6"])
    def test_dyadic_and_non_dyadic_points(self, iset):
        for x in self.XS:
            assert iset.contains(x) == oracle_contains(iset, x), x

    @settings(max_examples=40, deadline=None)
    @given(small_dyadic_sets(), st.integers(-8, 40), st.sampled_from([1, 3, 5, 16, 32]))
    def test_random_sets(self, iset, num, den):
        x = F(num, den)
        assert iset.contains(x) == oracle_contains(iset, x)
