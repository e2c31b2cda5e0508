"""Unit tests for the piecewise-linear spectrum algebra."""

import dataclasses
import math
import re
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdim.branch import LiftBranch, LipschitzProfile, lift
from branchdim.errors import DomainError, FormatError, ParameterError
from branchdim.sets import (
    _strip_profile,
    build_assembly,
    geometric_schedule,
    realize_uniform_profile,
)
from branchdim.spectra import (
    Spectrum,
    _report,
    _sample_points,
    check_inequality,
    check_joint,
    eval_spectrum,
    make_phi,
    make_psi,
    make_q,
    min_family,
    spectrum_from_breakpoints,
    spectrum_from_text,
    spectrum_to_text,
)
from test_num import oracle_eval_exact, oracle_profile_at

MINI_LAMBDAS = (F(15, 100), F(4, 10), F(65, 100))


def zero_spectrum(alpha=1):
    return spectrum_from_breakpoints((0, 1), (0, 0), alpha)


def segment(alpha=1):
    return make_phi(alpha, 1, 0)


class TestFamilies:
    def test_phi_frozen_values(self):
        phi = make_phi(1, F(1, 2), F(1, 4))
        assert eval_spectrum(phi, 1) == 0
        assert eval_spectrum(phi, F(1, 2)) == F(1, 4)
        # left piece: alpha + (theta/lam) * (t - alpha)
        assert eval_spectrum(phi, F(1, 4)) == F(5, 8)
        assert eval_spectrum(phi, F(3, 4)) == F(1, 8)

    def test_phi_degenerate_lambda_one(self):
        seg = make_phi(1, 1, 0)
        assert seg.breakpoints == (F(0), F(1))
        assert seg.values == (F(1), F(0))

    def test_phi_collinear_when_t_maximal(self):
        phi = make_phi(1, F(1, 2), F(1, 2))
        assert phi.breakpoints == (F(0), F(1, 2), F(1))
        assert phi.piece_slopes() == (F(-1), F(-1))

    def test_phi_rejects_out_of_range_t(self):
        with pytest.raises(ParameterError):
            make_phi(1, F(1, 2), F(3, 4))
        with pytest.raises(ParameterError):
            make_phi(1, F(1, 2), -F(1, 8))

    def test_psi_matches_phi_at_maximal_t(self):
        psi = make_psi(1, F(1, 2), F(1, 2))
        phi = make_phi(1, F(1, 2), F(1, 2))
        assert psi.breakpoints == phi.breakpoints
        assert psi.values == phi.values

    def test_psi_frozen_values(self):
        psi = make_psi(1, F(1, 2), F(1, 4))
        # left piece has slope -alpha, so psi(0) = t + alpha*lam
        assert eval_spectrum(psi, 0) == F(3, 4)
        assert eval_spectrum(psi, F(1, 3)) == F(5, 12)
        assert eval_spectrum(psi, F(1, 2)) == F(1, 4)
        assert eval_spectrum(psi, F(3, 4)) == F(1, 8)
        assert psi.piece_slopes()[0] == -1

    def test_psi_below_phi_strictly_inside(self):
        psi = make_psi(1, F(1, 2), F(1, 4))
        phi = make_phi(1, F(1, 2), F(1, 4))
        for i in range(65):
            x = F(i, 64)
            assert psi.eval_exact(x) <= phi.eval_exact(x)
        for i in range(1, 32):
            assert psi.eval_exact(F(i, 64)) < phi.eval_exact(F(i, 64))
        assert psi.eval_exact(F(1, 2)) == phi.eval_exact(F(1, 2))
        assert psi.eval_exact(F(1)) == phi.eval_exact(F(1))

    def test_q_frozen_example(self):
        q = make_q(1, F(1, 2), F(2, 3), F(1, 4))
        assert q.breakpoints == (F(0), F(1, 3), F(1, 2), F(2, 3), F(1))
        assert q.values == (F(1), F(17, 48), F(5, 16), F(1, 12), F(0))
        assert q.params.alpha1 == F(31, 16)
        assert q.params.alpha2 == F(11, 8)

    def test_q_degenerate_cases(self):
        seg = make_q(1, 1, 1, F(1, 4))
        assert seg.breakpoints == (F(0), F(1))
        assert seg.values == (F(1), F(0))
        # a1 == a2 collapses the middle chord to a single knot
        q = make_q(1, F(1, 2), F(1, 2), F(1, 4))
        assert q.breakpoints == (F(0), F(1, 4), F(1, 2), F(1))

    def test_q_rejects_unordered_or_bad_params(self):
        with pytest.raises(ParameterError):
            make_q(1, F(2, 3), F(1, 2), F(1, 4))
        with pytest.raises(ParameterError):
            make_q(1, F(1, 2), F(2, 3), 2)
        with pytest.raises(ParameterError):
            make_q(1, 0, F(2, 3), F(1, 4))


class TestEvalAndValidation:
    def test_eval_outside_domain(self):
        phi = make_phi(1, F(1, 2), F(1, 4))
        with pytest.raises(DomainError):
            eval_spectrum(phi, F(3, 2))
        with pytest.raises(DomainError):
            eval_spectrum(phi, -0.1)

    def test_eval_float_in_float_out(self):
        phi = make_phi(1, F(1, 2), F(1, 4))
        out = eval_spectrum(phi, 0.25)
        assert isinstance(out, float)
        assert out == pytest.approx(0.625)

    def test_validation_rejects_bad_breakpoints(self):
        with pytest.raises(ParameterError):
            spectrum_from_breakpoints((0, F(1, 2)), (1, 0), 1)
        with pytest.raises(ParameterError):
            spectrum_from_breakpoints((0, F(1, 2), F(1, 2), 1), (1, 0, 0, 0), 1)
        with pytest.raises(ParameterError):
            spectrum_from_breakpoints((0, 1), (2, 0), 1)
        with pytest.raises(ParameterError):
            spectrum_from_breakpoints((0, 1), (-F(1, 4), 0), 1)

    def test_decreasing_spectrum_evaluates_decreasing(self):
        q = make_psi(1, F(1, 2), F(1, 8))
        vals = [q.eval_exact(F(i, 37)) for i in range(38)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestMinFamily:
    def test_single_member_identity(self):
        phi = make_phi(1, F(1, 2), F(1, 4))
        assert min_family([phi]) is phi

    def test_three_lobed_minimum_against_grid_oracle(self):
        members = [make_phi(1, l, (1 - l) ** 4) for l in MINI_LAMBDAS]
        combined = min_family(members)
        for i in range(0, 10001, 7):
            x = F(i, 10000)
            assert combined.eval_exact(x) == min(m.eval_exact(x) for m in members)

    def test_min_with_dominating_segment(self):
        phi = make_phi(1, F(1, 2), F(1, 4))
        combined = min_family([phi, segment()])
        for i in range(101):
            x = F(i, 100)
            assert combined.eval_exact(x) == phi.eval_exact(x)

    def test_mixed_alpha_rejected(self):
        with pytest.raises(ParameterError):
            min_family([make_phi(1, F(1, 2), F(1, 4)), make_phi(2, F(1, 2), F(1, 4))])
        with pytest.raises(ParameterError):
            min_family([])


class TestInequalities:
    def test_phi_family_classification(self):
        phi = make_phi(1, F(1, 2), F(1, 4))
        assert check_inequality(phi, "S", 64).passed
        assert check_inequality(phi, "W", 64).passed
        assert check_inequality(phi, "M", 64).passed
        rep = check_inequality(phi, "L", 64)
        assert not rep.passed
        assert rep.worst_violation == pytest.approx(0.5)  # slope 3/2 on the left

    def test_q_passes_S_W_fails_M(self):
        q = make_q(1, F(1, 2), F(2, 3), F(1, 4))
        assert check_inequality(q, "S", 64, tolerance=1e-9).passed
        assert check_inequality(q, "W", 64, tolerance=1e-9).passed
        rep = check_inequality(q, "M", 64)
        assert not rep.passed
        lo, hi = rep.witness
        assert lo < 0.5 <= hi  # the rise ends at a1

    def test_zero_spectrum_passes_everything(self):
        z = zero_spectrum()
        for ineq in ("S", "W", "M", "L", "AQ"):
            assert check_inequality(z, ineq, 16).passed

    def test_segment_passes_AQ(self):
        assert check_inequality(segment(), "AQ", 32).passed

    def test_report_invariant(self):
        q = make_q(1, F(1, 2), F(2, 3), F(1, 4))
        for ineq in ("S", "W", "M", "L", "AQ"):
            rep = check_inequality(q, ineq, 32)
            assert rep.passed == (rep.worst_violation <= rep.tolerance)
            assert rep.worst_violation >= 0.0

    def test_grid_resolution_validated(self):
        with pytest.raises(ParameterError, match="grid_resolution must be at least 2"):
            check_inequality(zero_spectrum(), "S", 1)
        with pytest.raises(ParameterError, match="grid_resolution .*2.5"):
            check_inequality(zero_spectrum(), "S", 2.5)
        with pytest.raises(ParameterError):
            check_inequality(zero_spectrum(), "XX", 8)

    def test_M_infinite_margin_at_one(self):
        # phi(1) != 0 makes the ratio at 1 infinite; the best before it is
        # the finite ratio at the first sample
        flat = spectrum_from_breakpoints((0, 1), (F(1, 2), F(1, 2)), 1)
        rep = check_inequality(flat, "M", 4)
        assert rep.worst_margin == math.inf
        assert rep.witness == (0.25, 1.0)

    def test_nonvanishing_at_one_fails_M_and_S(self):
        flat = spectrum_from_breakpoints((0, 1), (F(1, 2), F(1, 2)), 1)
        assert not check_inequality(flat, "M", 16).passed
        assert not check_inequality(flat, "S", 16).passed


class TestJoint:
    def test_equal_segments_pass(self):
        assert check_joint(segment(), segment(), 32).passed

    def test_unconditional_bounds_pass(self):
        assert check_joint(zero_spectrum(), segment(), 32).passed

    def test_zero_assouad_fails_against_kinked_lower(self):
        rep = check_joint(make_phi(1, F(1, 2), F(1, 2)), zero_spectrum(), 32)
        assert not rep.passed
        assert rep.binding == "lower-chain upper bound"
        # at lam = theta = 1/2: phiL(1/4) - (1/2) phiL(1/2) = 1/2
        assert rep.worst_margin >= 0.5

    def test_mixed_alpha_rejected(self):
        with pytest.raises(ParameterError):
            check_joint(zero_spectrum(1), zero_spectrum(2), 16)


@st.composite
def phi_params(draw):
    alpha = draw(st.integers(1, 3))
    lam = F(draw(st.integers(1, 16)), 16)
    tmax = alpha * (1 - lam)
    t = tmax * F(draw(st.integers(0, 8)), 8)
    return alpha, lam, t


class TestFamilyProperties:
    @settings(max_examples=40, deadline=None)
    @given(phi_params())
    def test_phi_members_satisfy_M_and_W(self, params):
        alpha, lam, t = params
        phi = make_phi(alpha, lam, t)
        assert check_inequality(phi, "M", 24).passed
        assert check_inequality(phi, "W", 24).passed

    @settings(max_examples=40, deadline=None)
    @given(phi_params())
    def test_psi_members_satisfy_S_and_L(self, params):
        alpha, lam, t = params
        psi = make_psi(alpha, lam, t)
        assert check_inequality(psi, "S", 24).passed
        assert check_inequality(psi, "L", 24).passed

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 15),
        st.integers(1, 15),
        st.integers(0, 8),
    )
    def test_q_members_pass_S_W_and_fail_M_strict_case(self, n1, n2, nk):
        a1, a2 = sorted((F(n1, 16), F(n2, 16)))
        kappa = F(nk, 8)
        if kappa > 1:
            kappa = F(1)
        q = make_q(1, a1, a2, kappa)
        assert check_inequality(q, "S", 24).passed
        assert check_inequality(q, "W", 24).passed
        if kappa < 1 and a1 < a2:
            assert not check_inequality(q, "M", 24).passed

    @settings(max_examples=30, deadline=None)
    @given(phi_params())
    def test_min_of_two_phis_still_in_M(self, params):
        alpha, lam, t = params
        other = make_phi(alpha, F(1, 3), alpha * F(1, 3))
        combined = min_family([make_phi(alpha, lam, t), other])
        assert check_inequality(combined, "M", 24).passed


def fraction_grid_check(spec, inequality, grid_resolution, tolerance=1e-9):
    """The S/W/AQ grid loop in Fraction arithmetic: the oracle."""
    points = _sample_points(spec, grid_resolution)
    vals = {x: spec.eval_exact(x) for x in points}
    alpha = spec.alpha
    worst = None
    witness = None
    for lam in points:
        v_lam = vals[lam]
        for theta in points:
            prod_val = spec.eval_exact(lam * theta)
            if inequality == "S":
                margin = vals[theta] + theta * v_lam - prod_val
            elif inequality == "W":
                margin = prod_val - (1 - theta) * alpha - theta * v_lam
            else:  # AQ: worst of the two clauses at this pair
                margin = max(
                    prod_val - vals[theta] - theta * v_lam,
                    vals[theta] - prod_val,
                )
            if worst is None or margin > worst:
                worst, witness = margin, (float(lam), float(theta))
    return _report(inequality, worst, witness, tolerance)


def fraction_grid_joint(phi_lower, phi_assouad, grid_resolution, tolerance=1e-9):
    """The joint-chain grid loop in Fraction arithmetic: the oracle."""
    pts = sorted(
        set(_sample_points(phi_lower, grid_resolution))
        | set(_sample_points(phi_assouad, grid_resolution))
    )
    vl = {x: phi_lower.eval_exact(x) for x in pts}
    va = {x: phi_assouad.eval_exact(x) for x in pts}
    worst = None
    witness = None
    binding = None
    for lam in pts:
        for theta in pts:
            prod = lam * theta
            mid_l = phi_lower.eval_exact(prod) - theta * vl[lam]
            diff_a = phi_assouad.eval_exact(prod) - va[theta]
            clauses = (
                ("lower-chain lower bound", vl[theta] - mid_l),
                ("lower-chain upper bound", mid_l - va[theta]),
                ("assouad-chain lower bound", theta * vl[lam] - diff_a),
                ("assouad-chain upper bound", diff_a - theta * va[lam]),
            )
            for name, margin in clauses:
                if worst is None or margin > worst:
                    worst, witness, binding = margin, (float(lam), float(theta)), name
    report = _report("JOINT", worst, witness, tolerance, binding=binding)
    return report


def oracle_spectra():
    """Named spectra covering the shapes the integer kernel must handle."""
    out = {}
    for alpha in (F(1, 2), 1, 2):
        a = F(alpha)
        out[f"phi-{a}"] = make_phi(a, F(1, 2), a / 4)
        out[f"psi-{a}"] = make_psi(a, F(1, 3), a / 7)
        out[f"q-{a}"] = make_q(a, F(1, 2), F(2, 3), a / 8)
    members = [make_phi(1, l, (1 - l) ** 4) for l in MINI_LAMBDAS]
    out["min_family"] = min_family(members)
    out["min_family-member"] = members[1]
    out["thirds"] = spectrum_from_breakpoints(
        (0, F(1, 3), F(2, 3), 1), (1, F(1, 2), F(1, 6), 0), 1)
    out["sevenths"] = spectrum_from_breakpoints(
        (0, F(2, 7), F(3, 7), F(5, 7), 1),
        (F(3, 2), F(6, 7), F(6, 7), F(1, 7), 0), F(3, 2))
    # passes S and fails W at every grid: certification needs both bounds
    out["steep-middle"] = spectrum_from_breakpoints(
        (0, F(1, 4), F(9, 16), 1), (1, F(3, 4), F(5, 16), 0), 1)
    out["zero"] = zero_spectrum()
    out["nonzero-at-one"] = spectrum_from_breakpoints(
        (0, F(2, 5), 1), (F(3, 4), F(1, 5), F(1, 3)), 1)
    return out


ORACLE_SPECTRA = oracle_spectra()
# test_random_spectra's sweep: knots in 21sts, heights in 12ths of alpha
SWEEP = (
    st.lists(st.integers(1, 20), min_size=1, max_size=4, unique=True),
    st.lists(st.integers(0, 12), min_size=6, max_size=6),
    st.integers(1, 3),
)


def swept_spectrum(knots, heights, alpha):
    bps = [F(0)] + sorted(F(k, 21) for k in knots) + [F(1)]
    vals = [F(alpha * h, 12) for h in heights[:len(bps)]]
    return spectrum_from_breakpoints(bps, vals, alpha)


SMALL_GRIDS = (2, 3, 7, 32)
# The Fraction oracle costs about a second per spectrum at these grids.
LARGE_GRID_CASES = [
    (name, 64)
    for name in ("q-1", "psi-2", "min_family", "sevenths", "nonzero-at-one")
] + [("q-1", 100), ("sevenths", 100)]


class TestIntegerKernelMatchesFractionGrid:
    """Whole reports of the integer kernel equal the Fraction grid loop."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECTRA))
    @pytest.mark.parametrize("grid", SMALL_GRIDS)
    def test_small_grids(self, name, grid):
        spec = ORACLE_SPECTRA[name]
        for ineq in ("S", "W", "AQ"):
            assert check_inequality(spec, ineq, grid) == \
                fraction_grid_check(spec, ineq, grid)

    @pytest.mark.parametrize("name,grid", LARGE_GRID_CASES)
    def test_large_grids(self, name, grid):
        spec = ORACLE_SPECTRA[name]
        for ineq in ("S", "W", "AQ"):
            assert check_inequality(spec, ineq, grid) == \
                fraction_grid_check(spec, ineq, grid)

    def test_tolerance_carried(self):
        spec = ORACLE_SPECTRA["nonzero-at-one"]
        for tol in (0.0, 0.25):
            assert check_inequality(spec, "S", 7, tolerance=tol) == \
                fraction_grid_check(spec, "S", 7, tolerance=tol)

    @pytest.mark.parametrize("lower,assouad", [
        ("zero", "phi-1"), ("phi-1", "zero"), ("q-1", "q-1"),
        ("psi-1", "phi-1"), ("thirds", "min_family"),
        ("nonzero-at-one", "sevenths"), ("phi-2", "psi-2"),
    ])
    @pytest.mark.parametrize("grid", (2, 7, 32))
    def test_joint(self, lower, assouad, grid):
        spec_l, spec_a = ORACLE_SPECTRA[lower], ORACLE_SPECTRA[assouad]
        if spec_l.alpha != spec_a.alpha:
            spec_a = spectrum_from_breakpoints(
                spec_a.breakpoints,
                [v * spec_l.alpha / spec_a.alpha for v in spec_a.values],
                spec_l.alpha)
        assert check_joint(spec_l, spec_a, grid) == \
            fraction_grid_joint(spec_l, spec_a, grid)

    @settings(max_examples=40, deadline=None)
    @given(*SWEEP, st.integers(2, 24))
    def test_random_spectra(self, knots, heights, alpha, grid):
        spec = swept_spectrum(knots, heights, alpha)
        other = make_psi(alpha, F(1, 3), F(alpha, 5))
        for ineq in ("S", "W", "AQ"):
            assert check_inequality(spec, ineq, grid) == \
                fraction_grid_check(spec, ineq, grid)
        assert check_joint(spec, other, grid) == \
            fraction_grid_joint(spec, other, grid)

    def test_product_on_a_piece_start(self):
        # At grid 2 the samples are 1/4, 1/2, 1; the pairs (1/4, 1),
        # (1/2, 1/2) and (1, 1/4) all multiply to the piece start 1/4.
        tent = spectrum_from_breakpoints((0, F(1, 4), 1), (0, 1, 0), 1)
        assert _sample_points(tent, 2) == [F(1, 4), F(1, 2), F(1)]
        for ineq in ("S", "W", "AQ"):
            assert check_inequality(tent, ineq, 2) == \
                fraction_grid_check(tent, ineq, 2)
        for lower, assouad in ((tent, tent), (tent, segment()), (segment(), tent)):
            assert check_joint(lower, assouad, 2) == \
                fraction_grid_joint(lower, assouad, 2)
        # W is worst at lam = 1, theta = 1/4: phi(1/4) - (3/4)*1 - 0
        rep = check_inequality(tent, "W", 2)
        assert (rep.witness, rep.worst_margin) == ((1.0, 0.25), 0.25)


CERT_GRIDS = (2, 7, 64)


def assert_certified_as_two_calls(spec, grid):
    """lift and build_assembly certify in one scan; the oracle is two checks."""
    expected = (check_inequality(spec, "S", grid).passed
                and check_inequality(spec, "W", grid).passed)
    assert lift(spec, 4, grid).certified == expected
    if spec.alpha > 1:  # assemblies are one-dimensional
        return
    try:
        asm = build_assembly(spec, k_max=1, depth=2, cert_grid=grid)
    except ParameterError:  # some spectra outside the class build no set
        assert not expected
    else:
        assert asm.certified == expected


class TestCertificationIsOneChainScan:
    @pytest.mark.parametrize("name", sorted(ORACLE_SPECTRA))
    @pytest.mark.parametrize("grid", CERT_GRIDS)
    def test_oracle_spectra(self, name, grid):
        assert_certified_as_two_calls(ORACLE_SPECTRA[name], grid)

    @settings(max_examples=40, deadline=None)
    @given(*SWEEP)
    def test_random_spectra(self, knots, heights, alpha):
        spec = swept_spectrum(knots, heights, alpha)
        for grid in CERT_GRIDS:
            assert_certified_as_two_calls(spec, grid)


class TestOutOfClassAssembly:
    """Outside the class an assembly builds uncertified or raises."""

    def test_steep_middle_raises(self):
        spec = ORACLE_SPECTRA["steep-middle"]
        assert check_inequality(spec, "S", 64).passed
        assert not check_inequality(spec, "W", 64).passed
        with pytest.raises(ParameterError,
                           match=r"^profile slope exceeds alpha=1 on \[7/9, 1\]$"):
            build_assembly(spec, k_max=1, depth=2)

    def test_swept_nonzero_at_one_raises(self):
        spec = swept_spectrum([19, 3], [4, 1, 7, 12, 7, 7], 1)
        assert spec.values[-1] == 1
        with pytest.raises(ParameterError, match="^profile must vanish at 0$"):
            build_assembly(spec, k_max=1, depth=2)

    def test_swept_builds_uncertified(self):
        spec = swept_spectrum([6, 10], [6, 8, 2, 0, 11, 10], 1)
        assert not check_inequality(spec, "S", 64).passed
        assert not build_assembly(spec, k_max=1, depth=2).certified


class TestSerialization:
    def test_family_line_roundtrip(self):
        q = make_q(1, F(1, 2), F(2, 3), F(1, 4))
        text = spectrum_to_text(q)
        assert text.startswith("family=q ")
        back = spectrum_from_text(text)
        assert back.breakpoints == q.breakpoints
        assert back.values == q.values

    def test_raw_text_roundtrip(self):
        spec = spectrum_from_breakpoints(
            (0, F(1, 3), 1), (F(3, 4), F(1, 2), 0), 1
        )
        back = spectrum_from_text(spectrum_to_text(spec))
        assert back.breakpoints == spec.breakpoints
        assert back.values == spec.values
        assert back.alpha == spec.alpha

    def test_text_accepts_comments_and_blank_lines(self):
        text = "# target\n\nalpha=1\n0 1\n0.5 0.25\n1 0\n"
        spec = spectrum_from_text(text)
        assert spec.eval_exact(F(1, 2)) == F(1, 4)

    def test_malformed_text_raises_format_error(self):
        for bad in ("", "alpha=1\n0 1 2\n", "family=phi alpha=1\n", "nonsense\n",
                    "family=phi alpha=1 lambda=1/2 t=1/4 kappa=9 bogus=x",
                    "family=phi alpha=1 lambda=1/2 t=1/4\n0 1\n1 0\n",
                    "family=phi alpha=1 lambda=1/2 t=1/4\n"
                    "family=q alpha=1 a1=1/2 a2=2/3 kappa=1/4\n"):
            with pytest.raises(FormatError):
                spectrum_from_text(bad)


# ---------------------------------------------------------------------------
# the integer form: every reader of phi and of its lift u*phi(v/u) against
# the Fraction formulas it replaced

BIG_DENOMINATORS = [
    spectrum_from_breakpoints((0, F(1, 97), F(50, 97), 1),
                              (1, F(95, 97), F(30, 97), 0), 1),
    spectrum_from_breakpoints((0, F(1, 97), F(50, 97), F(3, 4), 1),
                              (F(7, 5), F(4, 3), F(50, 97), F(1, 11), 0), F(7, 5)),
    make_psi(1, F(50, 97), F(3, 97)),  # these two pass L and S, so they realize
    make_psi(F(3, 2), F(1, 97), F(1, 3)),
]
FORM_SPECTRA = list(ORACLE_SPECTRA.values()) + BIG_DENOMINATORS


def oracle_strip(spec, k, local_depth):
    """sets._strip_profile's old knots and Fraction values."""
    if local_depth == 0:
        return (F(0),), (F(0),)
    knots = {F(0), F(local_depth)}
    for b in spec.breakpoints:
        if b == 0:
            continue
        u = F(k, 1) / b - k
        if 0 < u < local_depth:
            knots.add(u)
    ordered = sorted(knots)
    return tuple(ordered), tuple((k + u) * oracle_eval_exact(spec, F(k) / (k + u))
                                 for u in ordered)


def oracle_realize(spec, pts, d=1):
    """realize_uniform_profile's old knots and Fraction values."""
    knots, values = [F(0)], [F(0)]

    def full(to):
        knots.append(to)
        values.append(values[-1] + d * (to - knots[-2]))

    full(pts[0])
    for i in range(1, len(pts)):
        if i % 2 == 0:
            full(pts[i])
            continue
        v_k, u_k = pts[i - 1], pts[i]
        base = values[-1] + u_k * oracle_eval_exact(spec, v_k / u_k)
        inner = sorted(b * u_k for b in spec.breakpoints if v_k < b * u_k < u_k)
        for u in inner + [u_k]:
            knots.append(u)
            values.append(base - u_k * oracle_eval_exact(spec, u / u_k))
    return tuple(knots), tuple(values)


def lift_probes(spec, u):
    """v = 0, v = u, v/u on every breakpoint, and a point inside each piece."""
    ts = list(spec.breakpoints)
    ts += [a + (b - a) / 3 for a, b in zip(ts, ts[1:])]
    return [t * u for t in ts]


def assert_form_matches(spec, u_max=F(29, 3)):
    outside = [F(-5, 2), F(-1, 97), F(98, 97), F(3, 2), F(7)]
    inside = [F(i, 23) for i in range(24)] + list(spec.breakpoints)
    for x in inside + outside:
        got = spec.eval_exact(x)
        assert type(got) is F
        assert got == oracle_profile_at(spec.breakpoints, spec.values, x)
    branch = LiftBranch(spec, u_max, False)
    for u in (F(1, 3), F(1), F(5, 2), 7, u_max):
        for v in lift_probes(spec, u):
            want = u * oracle_eval_exact(spec, F(v) / u)
            got, val = spec.lifted(u, v), branch.value(u, v)
            assert (got, val) == (want, want)
            assert type(got) is F and type(val) is F
    assert branch.value(0, 0) == 0 and type(branch.value(0, 0)) is F
    for u, v in ((7, 0), (7, 3), (7, 7), (97, 50)):  # int arguments
        assert spec.lifted(u, v) == u * oracle_eval_exact(spec, F(v, u))
    assert spec.piece_slopes() == tuple(
        (y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(
            spec.breakpoints, spec.breakpoints[1:], spec.values, spec.values[1:]))


class TestIntegerFormMatchesFractionFormulas:
    @pytest.mark.parametrize("spec", FORM_SPECTRA)
    def test_eval_and_lift(self, spec):
        assert_form_matches(spec)

    @settings(max_examples=60, deadline=None)
    @given(*SWEEP)
    def test_eval_and_lift_swept(self, knots, heights, alpha):
        assert_form_matches(swept_spectrum(knots, heights, alpha), u_max=F(48))

    def test_clamp_outside_the_unit_interval(self):
        phi = make_phi(1, F(1, 2), F(1, 4))
        assert phi.eval_exact(F(3, 2)) == 0
        assert phi.eval_exact(F(-1, 2)) == 1

    @pytest.mark.parametrize("spec", FORM_SPECTRA)
    def test_strip_profiles(self, spec):
        for k, local_depth in ((1, 0), (1, 5), (2, 7), (3, 13), (5, 11)):
            knots, values = oracle_strip(spec, k, local_depth)
            try:
                want = LipschitzProfile(knots, values, spec.alpha)
            except ParameterError as exc:
                with pytest.raises(ParameterError, match=re.escape(str(exc))):
                    _strip_profile(spec, k, local_depth)
                continue
            got = _strip_profile(spec, k, local_depth)
            assert (got.knots, got.values) == (want.knots, want.values)
            assert all(type(x) is F for x in got.values)

    @pytest.mark.parametrize("spec", [
        s for s in FORM_SPECTRA  # realization needs L and S
        if check_inequality(s, "L", 64).passed and check_inequality(s, "S", 64).passed])
    def test_realized_profiles(self, spec):
        d = math.ceil(spec.alpha)
        for pts in (geometric_schedule(3, 81), [F(1, 3), 1, F(7, 3), 5, F(97, 7)]):
            got = realize_uniform_profile(spec, pts, d=d)
            assert (got.knots, got.values) == oracle_realize(spec, pts, d)

    def test_fields_equality_hash_and_repr(self):
        assert [f.name for f in dataclasses.fields(Spectrum)] == \
            ["breakpoints", "values", "alpha", "params"]
        a = spectrum_from_breakpoints((0, F(1, 97), 1), (1, F(1, 2), 0), 1)
        b = spectrum_from_breakpoints(("0", "1/97", "1"), ("1", "0.5", "0"), "1")
        assert a == b and hash(a) == hash(b)
        assert a != spectrum_from_breakpoints((0, F(1, 97), 1), (1, F(1, 3), 0), 1)
        assert repr(a) == (
            "Spectrum(breakpoints=(Fraction(0, 1), Fraction(1, 97), Fraction(1, 1)), "
            "values=(Fraction(1, 1), Fraction(1, 2), Fraction(0, 1)), "
            "alpha=Fraction(1, 1), params=None)")
