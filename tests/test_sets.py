"""Unit tests for Moran sets, profile realization, and assemblies."""

import dataclasses
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdim.branch import LipschitzProfile
from branchdim.counting import IntervalSet
from branchdim.errors import ParameterError
from branchdim.sets import (
    Assembly,
    DyadicSet,
    SubdivisionProfile,
    assembly_to_csv,
    build_assembly,
    build_moran,
    dyadic_set_to_csv,
    enumerate_components,
    geometric_schedule,
    profile_from_lipschitz,
    realize_uniform_profile,
)
from branchdim.spectra import (
    make_phi,
    make_psi,
    make_q,
    min_family,
    spectrum_from_breakpoints,
)


def brute_force_height_sequence(f, d, depth):
    """Independent oracle for profile_from_lipschitz.

    Enumerates every integer sequence h(0..depth) with h(0) = 0,
    0 <= h(k) - h(k-1) <= d, and h(k) <= f(k), then takes the pointwise
    maximum.  Exponential in depth, so keep instances small.
    """
    best = [0] * (depth + 1)
    found = False

    def extend(prefix):
        nonlocal found
        if len(prefix) == depth + 1:
            found = True
            for i, x in enumerate(prefix):
                if x > best[i]:
                    best[i] = x
            return
        if not prefix:
            if f.at(0) >= 0:
                extend([0])
            return
        for step in range(0, d + 1):
            h = prefix[-1] + step
            if h <= f.at(len(prefix)):
                extend(prefix + [h])

    extend([])
    assert found
    return best


def line(slope, depth, d=1):
    """A Lipschitz profile f(u) = slope * u on [0, depth]."""
    return LipschitzProfile(
        (F(0), F(depth)), (F(0), F(slope) * depth), F(max(d, 1))
    )


def zero_spectrum(alpha=1):
    return spectrum_from_breakpoints((0, 1), (0, 0), alpha)


def full_slope_spectrum(d):
    """phi(theta) = d(1-theta), the steepest admissible spectrum."""
    return spectrum_from_breakpoints((0, 1), (d, 0), d)


def plateau_spectrum():
    """Flat then falling; fails superadditivity but passes the weak check."""
    return spectrum_from_breakpoints(
        (0, F(1, 2), 1), (F(1, 2), F(1, 2), 0), 1
    )


class TestSubdivisionProfile:
    def test_partial_sums(self):
        prof = SubdivisionProfile(1, (0, 1, 0, 1))
        assert [prof.h(k) for k in range(5)] == [0, 0, 1, 1, 2]

    def test_entry_out_of_range(self):
        with pytest.raises(ParameterError):
            SubdivisionProfile(1, (0, 2))

    def test_negative_entry(self):
        with pytest.raises(ParameterError):
            SubdivisionProfile(2, (1, -1))

    def test_level_outside_profile(self):
        with pytest.raises(ParameterError):
            SubdivisionProfile(1, (1,)).h(2)


class TestProfileFromLipschitz:
    def test_full_slope_keeps_everything(self):
        for d in (1, 2):
            prof = profile_from_lipschitz(line(d, 6, d), d, 6)
            assert prof.a == (d,) * 6

    def test_half_slope_alternates(self):
        prof = profile_from_lipschitz(line(F(1, 2), 8), 1, 8)
        assert prof.a == (0, 1, 0, 1, 0, 1, 0, 1)
        assert [prof.h(k) for k in range(9)] == [k // 2 for k in range(9)]

    def test_half_slope_matches_brute_force(self):
        f = line(F(1, 2), 8)
        expected = brute_force_height_sequence(f, 1, 8)
        prof = profile_from_lipschitz(f, 1, 8)
        assert [prof.h(k) for k in range(9)] == expected

    def test_zero_profile(self):
        prof = profile_from_lipschitz(line(0, 5), 1, 5)
        assert prof.a == (0,) * 5

    def test_sandwich_bound(self):
        # f(k) - 1 < h(k) <= f(k) at every integer level.
        f = LipschitzProfile(
            (F(0), F(3), F(7), F(10)), (F(0), F(5, 2), F(5, 2), F(17, 4)), F(2)
        )
        prof = profile_from_lipschitz(f, 2, 10)
        for k in range(11):
            assert f.at(k) - 1 < prof.h(k) <= f.at(k)

    def test_brute_force_on_curvy_profile(self):
        f = LipschitzProfile(
            (F(0), F(2), F(5), F(7)), (F(0), F(3, 2), F(2), F(7, 2)), F(1)
        )
        expected = brute_force_height_sequence(f, 1, 7)
        prof = profile_from_lipschitz(f, 1, 7)
        assert [prof.h(k) for k in range(8)] == expected

    def test_nonzero_origin_rejected(self):
        f = LipschitzProfile((F(0), F(4)), (F(0), F(4)), F(1))
        shifted = LipschitzProfile((F(1), F(4)), (F(1), F(4)), F(1))
        profile_from_lipschitz(f, 1, 4)
        with pytest.raises(ParameterError):
            profile_from_lipschitz(shifted, 1, 4)

    @given(st.integers(0, 4), st.integers(1, 2))
    def test_matches_brute_force_on_random_lines(self, num, d):
        f = line(F(num, 4), 6, d)
        expected = brute_force_height_sequence(f, d, 6)
        prof = profile_from_lipschitz(f, d, 6)
        assert [prof.h(k) for k in range(7)] == expected


class TestBuildMoran:
    def test_full_interval_depth_three(self):
        prof = SubdivisionProfile(1, (1, 1, 1))
        ds = build_moran(prof, 3)
        assert ds.runs == [(0, 8)]
        assert ds.level_count(3) == 8

    def test_alternating_profile(self):
        prof = SubdivisionProfile(1, (0, 1, 0, 1))
        ds = build_moran(prof, 4)
        assert [ds.level_count(k) for k in range(5)] == [1, 1, 2, 2, 4]
        assert ds.runs == [(0, 2), (4, 6)]

    def test_all_zero_profile_is_singleton(self):
        prof = SubdivisionProfile(1, (0, 0, 0, 0, 0))
        ds = build_moran(prof, 5)
        assert ds.runs == [(0, 1)]

    def test_counting_identity(self):
        """Every retained cube has exactly 2^{h(n)-h(k)} level-n descendants."""
        prof = SubdivisionProfile(1, (1, 0, 1, 1, 0, 1))
        ds = build_moran(prof, 6)
        for k in range(7):
            for n in range(k, 7):
                want = 2 ** (prof.h(n) - prof.h(k))
                for s, e in ds.runs_at_level(k):
                    for idx in range(s, e):
                        assert ds.descendant_count(k, idx, n) == want

    def test_depth_longer_than_profile(self):
        with pytest.raises(ParameterError):
            build_moran(SubdivisionProfile(1, (1, 1)), 3)

    def test_negative_depth_rejected(self):
        with pytest.raises(ParameterError, match="depth must be non-negative, got -1"):
            build_moran(SubdivisionProfile(1, (1, 1)), -1)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_level_counts_follow_heights(self, bits):
        prof = SubdivisionProfile(1, tuple(bits))
        ds = build_moran(prof, len(bits))
        for k in range(len(bits) + 1):
            assert ds.level_count(k) == 2 ** prof.h(k)

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=9))
    @settings(max_examples=40)
    def test_uniformity_of_descendant_counts(self, bits):
        """Max and min descendant counts over retained cubes coincide."""
        prof = SubdivisionProfile(1, tuple(bits))
        ds = build_moran(prof, len(bits))
        n = len(bits)
        for k in range(n):
            counts = [
                ds.descendant_count(k, idx, n)
                for s, e in ds.runs_at_level(k)
                for idx in range(s, e)
            ]
            assert max(counts) == min(counts)


def per_level_moran_runs(profile, depth):
    """The per-level loop ``build_moran`` replaced (oracle).

    Every level rebuilds the whole run list: a = 1 doubles each run, a = 0
    breaks each run into the left children of its cubes.
    """
    runs = [(0, 1)]
    for k in range(depth):
        if profile.a[k] == 1:
            runs = [(2 * s, 2 * e) for s, e in runs]
        else:
            runs = [(2 * i, 2 * i + 1) for s, e in runs for i in range(s, e)]
    return runs


class TestPendingShiftMatchesOracle:
    def test_requirement_10_profile(self):
        psi = make_psi(1, F(1, 2), F(1, 4))
        profile = realize_uniform_profile(psi, geometric_schedule(3, 81), d=1)
        subdivision = profile_from_lipschitz(profile, 1, 81)
        assert build_moran(subdivision, 81).runs == \
            per_level_moran_runs(subdivision, 81)

    @given(st.lists(st.integers(0, 1), max_size=16), st.data())
    @settings(max_examples=200)
    def test_random_bit_profiles(self, bits, data):
        prof = SubdivisionProfile(1, tuple(bits))
        depth = data.draw(st.integers(0, len(bits)))
        assert build_moran(prof, depth).runs == per_level_moran_runs(prof, depth)


class TestGeometricSchedule:
    def test_ratio_three_to_81(self):
        assert geometric_schedule(3, 81) == [F(1), F(3), F(9), F(27), F(81)]

    def test_limit_must_be_power(self):
        with pytest.raises(ParameterError):
            geometric_schedule(3, 80)

    def test_ratio_too_small(self):
        with pytest.raises(ParameterError):
            geometric_schedule(1, 8)

    def test_bad_start(self):
        with pytest.raises(ParameterError):
            geometric_schedule(2, 8, start=0)


class TestRealizeUniformProfile:
    def test_zero_spectrum_staircase(self):
        f = realize_uniform_profile(zero_spectrum(), geometric_schedule(3, 27))
        # Flat on [1,3] and [9,27], slope 1 on [0,1] and [3,9].
        assert f.at(1) == 1 and f.at(3) == 1
        assert f.at(9) == 7 and f.at(27) == 7

    def test_full_slope_spectrum_is_identity_times_d(self):
        f = realize_uniform_profile(full_slope_spectrum(1), geometric_schedule(3, 27))
        for u in (0, F(1, 2), 1, 2, 3, F(13, 2), 9, 20, 27):
            assert f.at(u) == u

    def test_output_is_valid_growth_profile(self):
        f = realize_uniform_profile(
            make_psi(1, F(1, 2), F(1, 4)), geometric_schedule(3, 81)
        )
        assert f.at(0) == 0
        assert f.max_slope() <= 1
        assert all(b >= a for a, b in zip(f.values, f.values[1:]))

    def test_rejects_steep_spectrum(self):
        # The two-piece family with a late shoulder falls faster than
        # alpha on its terminal piece, so it is not realizable this way.
        with pytest.raises(ParameterError):
            realize_uniform_profile(
                make_phi(1, F(1, 2), F(1, 4)), geometric_schedule(3, 9)
            )

    def test_psi_chain_frozen_values(self):
        # Hand-evaluated recurrence: on [v, 3v] the profile climbs by
        # 3v * psi(1/3), and psi_{1,1/2,1/4}(1/3) = 5/12; between, slope 1.
        f = realize_uniform_profile(
            make_psi(1, F(1, 2), F(1, 4)), geometric_schedule(3, 81)
        )
        assert f.at(1) == 1
        assert f.at(3) == F(9, 4)
        assert f.at(9) == F(33, 4)
        assert f.at(27) == F(39, 2)
        assert f.at(81) == F(147, 2)

    def test_psi_segment_identity(self):
        """On a spectrum segment [v, u], f(u) - f(u*t) = u * psi(t)."""
        psi = make_psi(1, F(1, 2), F(1, 4))
        f = realize_uniform_profile(psi, geometric_schedule(3, 9))
        for t in (F(1, 3), F(2, 5), F(1, 2), F(3, 4), F(9, 10), F(1)):
            assert f.at(3) - f.at(3 * t) == 3 * psi.eval_exact(t)

    def test_rejects_superadditivity_failure(self):
        with pytest.raises(ParameterError):
            realize_uniform_profile(plateau_spectrum(), geometric_schedule(3, 9))

    def test_rejects_alpha_above_dimension(self):
        spec = make_phi(2, F(1, 2), F(1, 4))
        with pytest.raises(ParameterError):
            realize_uniform_profile(spec, geometric_schedule(3, 9), d=1)

    def test_rejects_unsorted_schedule(self):
        with pytest.raises(ParameterError):
            realize_uniform_profile(zero_spectrum(), [F(1), F(1)])

    def test_two_dimensional_realization(self):
        spec = make_psi(2, F(1, 2), F(1, 4))
        f = realize_uniform_profile(spec, geometric_schedule(3, 27), d=2)
        assert f.max_slope() <= 2
        assert f.at(27) > f.at(1)


class TestBuildAssembly:
    def test_zero_spectrum_point_sequence(self):
        asm = build_assembly(zero_spectrum(), k_max=8, depth=16)
        iv = enumerate_components(asm, 10)
        assert len(iv) == 9  # eight point components plus the origin
        assert iv.intervals()[0] == (F(0), F(0))

    def test_full_slope_components_are_intervals(self):
        asm = build_assembly(full_slope_spectrum(1), k_max=4, depth=12)
        for comp in asm.components:
            (run,) = comp.dset.runs
            assert run == (0, 2 ** comp.dset.depth)
            intervals = list(asm.component_intervals(comp))
            assert intervals == [(F(4, 2 ** comp.k), F(5, 2 ** comp.k))]

    def test_component_in_its_ball(self):
        asm = build_assembly(make_q(1, F(1, 2), F(2, 3), F(1, 4)), k_max=8, depth=16)
        for comp in asm.components:
            lo = min(a for a, _ in asm.component_intervals(comp))
            hi = max(b for _, b in asm.component_intervals(comp))
            r = F(1, 2 ** comp.k)
            assert comp.center - r <= lo and hi <= comp.center + r
            # ... and within 2^{-k+3} of the origin (the Assembly docstring).
            assert hi <= F(2 ** 3, 2 ** comp.k)

    def test_balls_are_pairwise_disjoint(self):
        asm = build_assembly(make_phi(1, F(1, 2), F(1, 4)), k_max=10, depth=14)
        balls = [
            (comp.center - F(1, 2 ** comp.k), comp.center + F(1, 2 ** comp.k))
            for comp in asm.components
        ]
        balls.sort()
        for (a_lo, a_hi), (b_lo, b_hi) in zip(balls, balls[1:]):
            assert a_hi < b_lo

    def test_other_components_miss_each_ball(self):
        asm = build_assembly(make_phi(1, F(1, 2), F(1, 4)), k_max=6, depth=12)
        for comp in asm.components:
            r = F(1, 2 ** comp.k)
            for other in asm.components:
                if other.k == comp.k:
                    continue
                for lo, hi in asm.component_intervals(other):
                    assert hi < comp.center - r or lo > comp.center + r

    def test_everything_inside_envelope(self):
        asm = build_assembly(make_phi(1, F(1, 2), F(1, 4)), k_max=5, depth=10)
        iv = enumerate_components(asm, 10)
        assert iv.hull[0] >= 0 and iv.hull[1] <= 5

    def test_plateau_spectrum_flagged_not_rejected(self):
        asm = build_assembly(plateau_spectrum(), k_max=4, depth=8)
        assert asm.certified is False
        assert len(asm.components) == 4

    def test_certified_when_checks_pass(self):
        asm = build_assembly(make_phi(1, F(1, 2), F(1, 4)), k_max=4, depth=8)
        assert asm.certified is True

    def test_rejects_higher_dimensions(self):
        with pytest.raises(ParameterError):
            build_assembly(zero_spectrum(), d=2)

    def test_rejects_shallow_depth(self):
        with pytest.raises(ParameterError):
            build_assembly(zero_spectrum(), k_max=8, depth=4)

    def test_rejects_alpha_above_one(self):
        with pytest.raises(ParameterError):
            build_assembly(make_phi(2, F(1, 2), F(1, 4)))


class TestEnumerateComponents:
    def test_full_interval_merges(self):
        ds = build_moran(SubdivisionProfile(1, (1, 1, 1)), 3)
        iv = enumerate_components(ds, 3)
        assert iv.intervals() == [(F(0), F(1))]

    def test_adjacent_cubes_merge(self):
        # Profile (0,1): one level-1 cube splits into both children, which
        # touch and merge back into [0, 1/2].
        ds = build_moran(SubdivisionProfile(1, (0, 1)), 2)
        iv = enumerate_components(ds, 2)
        assert iv.intervals() == [(F(0), F(1, 2))]

    def test_separated_cubes_stay_apart(self):
        ds = build_moran(SubdivisionProfile(1, (1, 0)), 2)
        iv = enumerate_components(ds, 2)
        assert iv.intervals() == [(F(0), F(1, 4)), (F(1, 2), F(3, 4))]

    def test_coarser_resolution(self):
        ds = build_moran(SubdivisionProfile(1, (1, 0, 1, 0)), 4)
        fine = enumerate_components(ds, 4)
        coarse = enumerate_components(ds, 2)
        assert len(coarse) <= len(fine)
        for lo, hi in fine.intervals():
            assert any(a <= lo and hi <= b for a, b in coarse.intervals())

    def test_resolution_beyond_depth(self):
        ds = build_moran(SubdivisionProfile(1, (1,)), 1)
        with pytest.raises(ParameterError):
            enumerate_components(ds, 2)

    def test_negative_resolution_rejected(self):
        ds = build_moran(SubdivisionProfile(1, (1,)), 1)
        asm = build_assembly(make_phi(1, F(1, 2), F(1, 4)), k_max=4, depth=8)
        for obj in (ds, asm):
            with pytest.raises(ParameterError,
                               match="resolution must be non-negative, got -1"):
                enumerate_components(obj, -1)

    def test_rejects_explicit_trees(self):
        with pytest.raises(ParameterError):
            build_moran(SubdivisionProfile(2, (1, 1)), 2)

    def test_rejects_unknown_objects(self):
        with pytest.raises(ParameterError):
            enumerate_components([(0, 1)], 1)


def fraction_enumeration(obj, resolution):
    """The Fraction-based enumeration the integer path replaced (oracle).

    Scales the construction's runs to exact Fractions, floors and ceils
    assembly components to level-``resolution`` cubes by Fraction
    division, and adds the origin, then hands the pairs to the Fraction
    form of ``IntervalSet``.
    """
    unit = F(1, 2 ** resolution)
    if isinstance(obj, DyadicSet):
        return IntervalSet([(s * unit, e * unit)
                            for s, e in obj.runs_at_level(resolution)])
    pairs = [(F(0), F(0))]
    for comp in obj.components:
        for lo, hi in obj.component_intervals(comp):
            pairs.append((math.floor(lo / unit) * unit,
                          math.ceil(hi / unit) * unit))
    return IntervalSet(pairs)


def canonical(iset):
    return iset.scale, iset.pairs


class TestIntegerEnumerationMatchesFractions:
    @pytest.mark.parametrize("slope", [0, F(1, 4), F(1, 3), F(1, 2), F(7, 10), 1])
    def test_moran_all_resolutions(self, slope):
        ds = build_moran(profile_from_lipschitz(line(slope, 12), 1, 12), 12)
        for res in range(13):
            assert canonical(enumerate_components(ds, res)) == \
                canonical(fraction_enumeration(ds, res))

    def test_even_endpoints_reduce_scale(self):
        # Level-4 runs (0,4) and (8,12): every endpoint is a multiple of 4,
        # so the stored scale drops from 4 to 2.
        ds = build_moran(SubdivisionProfile(1, (1, 0, 1, 1)), 4)
        assert ds.runs == [(0, 4), (8, 12)]
        iv = enumerate_components(ds, 4)
        assert canonical(iv) == (2, [(0, 1), (2, 3)])
        assert canonical(iv) == canonical(fraction_enumeration(ds, 4))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=10), st.data())
    @settings(max_examples=60)
    def test_random_moran(self, bits, data):
        ds = build_moran(SubdivisionProfile(1, tuple(bits)), len(bits))
        res = data.draw(st.integers(0, len(bits)))
        assert canonical(enumerate_components(ds, res)) == \
            canonical(fraction_enumeration(ds, res))

    @pytest.mark.parametrize("spec", [
        zero_spectrum(),
        full_slope_spectrum(1),
        make_phi(1, F(1, 2), F(1, 4)),
        make_q(1, F(1, 2), F(2, 3), F(1, 4)),
        min_family([make_phi(1, F(1, 2), F(1, 4)), make_psi(1, F(1, 3), F(1, 5))]),
    ], ids=["zero", "full", "phi", "q", "min"])
    def test_assemblies_all_resolutions(self, spec):
        for k_max, depth in ((4, 10), (8, 16)):
            asm = build_assembly(spec, k_max=k_max, depth=depth)
            for res in range(depth + 1):
                assert canonical(enumerate_components(asm, res)) == \
                    canonical(fraction_enumeration(asm, res))

    def test_offsets_read_the_translations(self):
        asm = build_assembly(make_phi(1, F(1, 2), F(1, 4)), k_max=4, depth=10)
        moved = dataclasses.replace(asm, components=tuple(
            dataclasses.replace(c, translation=F(3, 2 ** c.k) + F(c.k, 2 ** 10))
            for c in asm.components))
        for res in range(11):
            assert canonical(enumerate_components(moved, res)) == \
                canonical(fraction_enumeration(moved, res))
        assert canonical(enumerate_components(moved, 10)) != \
            canonical(enumerate_components(asm, 10))
        off_grid = dataclasses.replace(moved, components=(
            dataclasses.replace(moved.components[0], translation=F(1, 3)),))
        with pytest.raises(ParameterError,
                           match=r"^component translations must be multiples of 2\^-10$"):
            enumerate_components(off_grid, 10)


class TestSerialization:
    def test_dyadic_csv_shape(self):
        ds = build_moran(SubdivisionProfile(1, (1, 0)), 2)
        text = dyadic_set_to_csv(ds)
        lines = text.strip().split("\n")
        assert lines[0] == "# d=1"
        assert lines[3] == "level,left_numerator,width"
        assert lines[4:] == ["2,0,1", "2,2,1"]

    def test_runs_merge_in_csv(self):
        ds = build_moran(SubdivisionProfile(1, (1,)), 1)
        assert "1,0,2" in dyadic_set_to_csv(ds)

    def test_assembly_csv_ends_with_origin(self):
        asm = build_assembly(zero_spectrum(), k_max=2, depth=4)
        lines = assembly_to_csv(asm).strip().split("\n")
        assert lines[4] == (
            "component_k,translation_num,translation_den,level,left_numerator,width"
        )
        assert lines[-1] == "0,0,1,0,0,0"
        assert any(row.startswith("1,2,1,") for row in lines)
        assert any(row.startswith("2,1,1,") for row in lines)

    def test_assembly_csv_records_certification(self):
        asm = build_assembly(plateau_spectrum(), k_max=2, depth=4)
        assert "# certified=false" in assembly_to_csv(asm)
