"""Unit tests for two-scale branch functions and their operations."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchdim._num import lipschitz_minorant
from branchdim.branch import (
    BranchFn,
    BranchReport,
    EtaBound,
    GridBranch,
    LipschitzProfile,
    check_branch,
    lambda_limit,
    lift,
    PreconditionReport,
    regularize,
)
from branchdim.errors import DomainError, ParameterError
from branchdim.spectra import (
    make_phi,
    make_psi,
    make_q,
    spectrum_from_breakpoints,
)
from test_num import oracle_profile_at


def brute_force_minorant(values, alpha_delta):
    """Independent oracle: pointwise max over all feasible lattice profiles.

    Enumerates every non-decreasing, step-bounded profile below the input
    on the 1/4-value lattice and takes the pointwise maximum.  Exponential,
    so callers keep instances tiny.
    """
    lattice = [F(i, 4) for i in range(0, 4 * 4 + 1)]
    n = len(values)
    best = [F(0)] * n
    feasible_any = False

    def extend(prefix):
        nonlocal feasible_any
        k = len(prefix)
        if k == n:
            feasible_any = True
            for i, x in enumerate(prefix):
                if x > best[i]:
                    best[i] = x
            return
        for x in lattice:
            if x > values[k]:
                break
            if prefix and (x < prefix[-1] or x > prefix[-1] + alpha_delta):
                continue
            extend(prefix + [x])

    extend([])
    assert feasible_any
    return best


class TestLift:
    def test_segment_lift_is_difference(self):
        L = lift(make_phi(1, 1, 0), 12)
        for u in range(13):
            for v in range(u + 1):
                assert L.value(u, v) == u - v

    def test_phi_lift_frozen_value(self):
        L = lift(make_phi(1, F(1, 2), F(1, 4)), 16)
        assert L.value(8, 4) == 2
        assert L.value(0, 0) == 0

    def test_zero_spectrum_lifts_to_zero(self):
        zero = spectrum_from_breakpoints((0, 1), (0, 0), 1)
        L = lift(zero, 10)
        assert all(L.value(u, v) == 0 for u in range(11) for v in range(u + 1))

    def test_uncertified_when_spectrum_breaks_superadditivity(self):
        flat = spectrum_from_breakpoints((0, 1), (F(1, 2), F(1, 2)), 1)
        L = lift(flat, 8)
        assert not L.certified
        assert L.value(8, 8) == 4  # still evaluable off the certified class

    def test_domain_errors(self):
        L = lift(make_phi(1, 1, 0), 8)
        with pytest.raises(DomainError):
            L.value(4, 5)
        with pytest.raises(DomainError):
            L.value(9, 0)


RAMP = LipschitzProfile((F(0), F(3), F(13)), (F(0), F(0), F(10)), F(1))


class TestStripEnvelope:
    """The strip envelopes of the oracle below, at frozen values."""

    def test_zero_profile_gives_two_branch_formula(self):
        g = LipschitzProfile((F(0), F(10)), (F(0), F(0)), F(1))
        assert oracle_strip(g, 4, 1, 9, 2) == 7  # alpha * (u - v) below z
        assert oracle_strip(g, 4, 1, 9, 5) == 0

    def test_ramp_profile_frozen_values(self):
        assert oracle_strip(RAMP, 3, 1, 10, 5) == 5
        assert oracle_strip(RAMP, 3, 1, 10, 2) == 8

    def test_certified_and_passes_checks(self):
        # an envelope lies in the certified class, so regularize keeps it
        h = GridBranch.from_function(lambda u, v: oracle_strip(RAMP, 3, 1, u, v), 13)
        assert check_branch(h, 1).passed
        reg = regularize(h, 1, EtaBound.const(0))
        assert reg.certified
        assert all(reg.value(u, v) == h.value(u, v)
                   for u in range(14) for v in range(u + 1))


class TestMaxLipschitzMinorant:
    def test_frozen_small_cases(self):
        assert lipschitz_minorant([0, 2, 2, 4], 1) == [0, 1, 2, 3]
        assert lipschitz_minorant([0, 0, 5, 0, 5], 1) == [0, 0, 0, 0, 1]

    def test_fixed_point_on_feasible_input(self):
        values = [F(0), F(1, 2), F(1), F(1)]
        assert lipschitz_minorant(values, 1) == values

    def test_negative_values_rejected(self):
        f = GridBranch({(0, 0): 0, (1, 0): -1, (1, 1): 0}, 1)
        with pytest.raises(ParameterError, match="sample values must be non-negative"):
            regularize(f, 1, EtaBound.const(0))
        # the slice at z = 0 is checked whole before the one at z = 1
        f = GridBranch({(0, 0): 1, (1, 0): 1, (1, 1): -1}, 1)
        with pytest.raises(ParameterError, match="profile must vanish at 0"):
            regularize(f, 1, EtaBound.const(1))
        assert (regularize_outcome(f, 1, EtaBound.const(1))
                == oracle_regularize_outcome(f, 1, EtaBound.const(1)))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 16), min_size=2, max_size=5),
        st.sampled_from([F(1, 4), F(1, 2), F(1), F(2)]),
    )
    def test_matches_brute_force_on_lattice(self, raw, alpha):
        values = [F(x, 4) for x in raw]
        values[0] = F(0)
        assert lipschitz_minorant(values, alpha) == brute_force_minorant(values, alpha)


class TestRegularize:
    def test_certified_input_is_fixed_point(self):
        L = lift(make_phi(1, F(1, 2), F(1, 4)), 12)
        reg = regularize(L, 1, EtaBound.const(0))
        assert reg.precondition.passed
        assert reg.certified
        assert all(
            reg.value(u, v) == L.value(u, v)
            for u in range(13)
            for v in range(u + 1)
        )

    def test_unit_jump_flattens_to_difference(self):
        jump = GridBranch.from_function(
            lambda u, v: F(0) if u == v else F(u - v + 1), 10
        )
        reg = regularize(jump, 1, EtaBound.const(1))
        # the jump breaks superadditivity on the samples, which is reported,
        # not raised, and the envelope construction still runs
        assert not reg.precondition.passed
        assert reg.precondition.superadd_witness is not None
        assert all(
            reg.value(u, v) == u - v for u in range(11) for v in range(u + 1)
        )

    def test_zero_function_stays_zero(self):
        zero = GridBranch.from_function(lambda u, v: F(0), 8)
        reg = regularize(zero, 1, EtaBound.const(0))
        assert all(reg.value(u, v) == 0 for u in range(9) for v in range(u + 1))

    def test_output_certified_and_sandwiched_for_perturbed_lift(self):
        # f = lift + J(u) - J(v) with J a couple of unit jumps keeps the
        # diagonal and superadditivity exact and is Lipschitz up to eta=2
        L = lift(make_psi(1, F(1, 2), F(1, 4)), 14)

        def jumps(u):
            return (1 if u >= 4 else 0) + (1 if u >= 9 else 0)

        f = GridBranch.from_function(
            lambda u, v: L.value(u, v) + jumps(u) - jumps(v), 14
        )
        eta = EtaBound.const(2)
        reg = regularize(f, 1, eta)
        assert reg.precondition.passed
        assert reg.certified
        assert check_branch(reg, 1, tolerance=0.0).passed
        for u in range(15):
            for v in range(u + 1):
                fv = f.value(u, v)
                gv = reg.value(u, v)
                assert fv - eta.at(u) <= gv <= fv

    def test_eta_gate(self):
        L = lift(make_phi(1, 1, 0), 8)
        with pytest.raises(ParameterError):
            regularize(L, 1, EtaBound.const(100, threshold=1))

    def test_inf_of_strips_matches_regularize_output(self):
        # the infimum of the strips built by hand reproduces regularize's
        # value on the sample grid
        L = lift(make_phi(1, F(1, 2), F(1, 4)), 10)
        reg = regularize(L, 1, EtaBound.const(0))
        manual = EnvelopeOracle(L, 1)
        assert all(
            manual.value(u, v) == reg.value(u, v)
            for u in range(11)
            for v in range(u + 1)
        )

    def test_builds_no_profile(self, monkeypatch):
        def refuse(self):
            raise AssertionError("regularize built a LipschitzProfile")

        monkeypatch.setattr(LipschitzProfile, "__post_init__", refuse)
        reg = regularize(_perturbed_lift(), 1, EtaBound.const(2))
        assert reg.certified


class TestLambdaLimit:
    def test_round_trip_for_all_families(self):
        specs = [
            make_phi(1, F(1, 2), F(1, 4)),
            make_psi(1, F(1, 2), F(1, 4)),
            make_q(1, F(1, 2), F(2, 3), F(1, 4)),
        ]
        for spec in specs:
            L = lift(spec, 48)
            for i in range(1, 13):
                theta = F(i, 12)
                assert lambda_limit(L, theta, 7, 48) == spec.eval_exact(theta)

    def test_diagonal_limit_vanishes(self):
        L = lift(make_phi(1, F(1, 2), F(1, 4)), 16)
        assert lambda_limit(L, 1, 2, 16) == 0

    def test_window_validation(self):
        L = lift(make_phi(1, 1, 0), 16)
        with pytest.raises(ParameterError):
            lambda_limit(L, F(1, 2), 10, 5)
        with pytest.raises(ParameterError):
            lambda_limit(L, 0, 2, 16)
        with pytest.raises(ParameterError):
            lambda_limit(L, F(1, 2), 2, 32)

    def test_equivalence_bounds_normalized_limits(self):
        # when the shifted sandwich f(u, v+z) - z <= g(u, v) and its mirror
        # hold, the windowed limits differ by at most z * (1 + slope bound) / u_min
        u_min, z, slope_bound = 5, 1, 1
        f = GridBranch.from_function(lambda u, v: F(u - v), 20)
        g = GridBranch.from_function(lambda u, v: F(max(0, u - v - 1)), 20)
        for u in range(21):
            for v in range(u - z + 1):
                assert f.value(u, v + z) - z <= g.value(u, v)
                assert g.value(u, v + z) - z <= f.value(u, v)
        for i in range(1, 5):
            theta = F(i, 4)
            lf = lambda_limit(f, theta, u_min, 20)
            lg = lambda_limit(g, theta, u_min, 20)
            assert abs(lf - lg) <= F(z * (1 + slope_bound), u_min)


class TestCheckBranch:
    def test_lift_passes_at_zero_tolerance(self):
        for spec in (make_phi(1, F(1, 2), F(1, 4)), make_q(1, F(1, 2), F(2, 3), F(1, 4))):
            rep = check_branch(lift(spec, 12), 1)
            assert rep.passed
            assert rep.superadd_violation == 0.0
            assert rep.lipschitz_violation == 0.0

    def test_broken_function_is_caught_with_witness(self):
        bad = GridBranch.from_function(
            lambda u, v: F(0) if u == v else F(u - v + 1), 6
        )
        rep = check_branch(bad, 1)
        assert not rep.passed
        u, w, v = rep.superadd_witness
        assert v <= w <= u

    def test_lipschitz_violation_detected(self):
        steep = GridBranch.from_function(lambda u, v: F(2 * (u - v)), 6)
        rep = check_branch(steep, 1)
        assert not rep.passed
        # worst margin f(u,v) - f(w,v) - (u-w) = u - w peaks at the full span
        assert rep.lipschitz_violation == pytest.approx(6.0)
        assert check_branch(steep, 2).passed

    def test_negative_alpha_rejected(self):
        f = lift(make_phi(1, F(1, 2), F(1, 4)), 8)
        with pytest.raises(ParameterError, match="alpha must be non-negative"):
            check_branch(f, -1)


class TestGridBranch:
    def test_samples_and_ceiling_lookup(self):
        g = GridBranch({(0, 0): 0, (1, 0): F(3, 2), (1, 1): 0}, 1)
        assert not g.certified
        assert g.value(1, 0) == F(3, 2)
        assert g.value(1, F(1, 2)) == 0  # fractional v rounds up

    def test_integral_non_int_keys_accepted(self):
        g = GridBranch({(F(0), 0): 0, (F(1), 0.0): 1, (1, F(1)): 0}, 1)
        assert g.samples == {(0, 0): 0, (1, 0): 1, (1, 1): 0}

    def test_non_integral_key_rejected(self):
        # int() would fold (1/2, 0) onto the origin and overwrite its sample
        samples = {(0, 0): 0, (F(1, 2), 0): 1, (1, 0): 1, (1, 1): 0}
        with pytest.raises(ParameterError,
                           match=r"key \(1/2, 0\) is not an integer point"):
            GridBranch(samples, 1)
        with pytest.raises(ParameterError, match="not an integer point"):
            GridBranch({(0, 0): 0, (1, 0.5): 1, (1, 0): 1, (1, 1): 0}, 1)

    @pytest.mark.parametrize("key", [(1, 2), (9, 0), (-1, -1), (0, -1)])
    def test_out_of_domain_key_rejected(self, key):
        samples = {(0, 0): 0, (1, 0): 1, (1, 1): 0, key: 5}
        with pytest.raises(ParameterError,
                           match=rf"key \({key[0]}, {key[1]}\) outside 0 <= v <= u <= 1"):
            GridBranch(samples, 1)

    def test_missing_sample_rejected(self):
        with pytest.raises(ParameterError, match=r"missing at \(1, 1\)"):
            GridBranch({(0, 0): 0, (1, 0): 1}, 1)


class TestEtaBound:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ParameterError, match="threshold must be non-negative, got -1"):
            EtaBound.const(0, threshold=-1)
        profile = LipschitzProfile((F(0), F(4)), (F(0), F(1)), F(1))
        with pytest.raises(ParameterError, match="threshold must be non-negative"):
            EtaBound(profile=profile, threshold=F(-1, 2))

    def test_zero_threshold_admits_zero_eta_only(self):
        EtaBound.const(0, threshold=0).validate(10)
        with pytest.raises(ParameterError, match="sublinearity threshold 0"):
            EtaBound.const(1, threshold=0).validate(10)

    def test_profile_on_thirds(self):
        ks = (F(1, 3), F(4, 3), F(7, 3), F(13, 3))
        vs = (F(1, 3), F(1, 3), F(5, 3), F(2))
        eta = EtaBound(profile=LipschitzProfile(ks, vs, F(4, 3)), threshold=F(1, 2))
        for u in (0, F(1, 6), F(1, 3), 1, F(11, 6), F(7, 3), 3, F(13, 3), 6):
            assert eta.at(u) == oracle_profile_at(ks, vs, u)
        assert eta.at(F(10, 3)) == F(11, 6)
        eta.validate(F(13, 3))  # 2 / (13/3) = 6/13
        eta.validate(6)  # clamped: 2 / 6
        with pytest.raises(ParameterError,
                           match=r"eta\(10/3\) / 10/3 exceeds the sublinearity threshold 1/2"):
            eta.validate(F(10, 3))  # (11/6) / (10/3) = 11/20


# ---------------------------------------------------------------------------
# The separate scans that the single triple scan replaced, kept as oracles.

def oracle_preconditions(f, alpha, eta):
    """Regularization preconditions by the former dedicated triple loop."""
    alpha = F(alpha)
    top = int(f.u_max)
    us = list(range(0, top + 1))
    vals = {}
    for u in us:
        for v in us:
            if v <= u:
                vals[(u, v)] = f.value(u, v)
    diag = next(((u,) for u in us if vals[(u, u)] != 0), None)
    worst_s, wit_s = F(0), None
    worst_l, wit_l = F(0), None
    for u in us:
        eta_u = eta.at(u)
        for w in us:
            if w > u:
                break
            for v in us:
                if v > w:
                    break
                m_s = vals[(u, w)] + vals[(w, v)] - vals[(u, v)]
                if m_s > worst_s:
                    worst_s, wit_s = m_s, (u, w, v)
                m_l = vals[(u, v)] - vals[(w, v)] - alpha * (u - w) - eta_u
                if m_l > worst_l:
                    worst_l, wit_l = m_l, (u, w, v)
    return PreconditionReport(
        passed=diag is None and worst_s == 0 and worst_l == 0,
        diagonal_witness=diag,
        superadd_violation=float(worst_s),
        superadd_witness=wit_s,
        lipschitz_violation=float(worst_l),
        lipschitz_witness=wit_l,
    )


def oracle_minorants(f, alpha):
    """The per-height minorants of the envelopes, each slice sampled anew.

    Each is validated as a ``LipschitzProfile`` over its knots z..u_max,
    so a slice with a negative sample, or a first minorant not vanishing
    at 0, raises the errors regularize raises.
    """
    a = F(alpha)
    top = int(f.u_max)
    out = []
    for z in range(top + 1):
        samples = [f.value(u, z) for u in range(z, top + 1)]
        if any(x < 0 for x in samples):
            raise ParameterError("sample values must be non-negative")
        out.append(LipschitzProfile(tuple(F(u) for u in range(z, top + 1)),
                                    tuple(lipschitz_minorant(samples, a)), a))
    return out


def oracle_strip(profile, z, alpha, u, v):
    """The strip envelope: g(u) - g(v) from the base height z up, else alpha*(u - v)."""
    u, v = F(u), F(v)
    if v >= z:
        return profile.at(u) - profile.at(v)
    return F(alpha) * (u - v)


class EnvelopeOracle(BranchFn):
    """The infimum over base heights z of the strip envelopes of the minorants."""

    def __init__(self, f, alpha):
        super().__init__(f.u_max, True)
        self.alpha = F(alpha)
        self.minorants = oracle_minorants(f, alpha)

    def value(self, u, v):
        self._domain(u, v)
        return min(oracle_strip(m, z, self.alpha, u, v)
                   for z, m in enumerate(self.minorants))


def sample_points(u_max):
    """Every point with u and v on the half-integers, and u = u_max.

    Integer coordinates are ints, so a regularized output reads its table
    there; the others are Fractions.
    """
    top = F(u_max)
    xs = [F(k, 2) for k in range(int(2 * top) + 1)]
    if xs[-1] != top:
        xs.append(top)
    xs = [int(x) if x.denominator == 1 else x for x in xs]
    return [(u, v) for u in xs for v in xs if v <= u]


def regularize_outcome(f, alpha, eta):
    """The precondition report and every sampled value, or the error raised."""
    try:
        reg = regularize(f, alpha, eta)
    except ParameterError as exc:
        return str(exc)
    return reg.precondition, [reg.value(u, v) for u, v in sample_points(f.u_max)]


def oracle_regularize_outcome(f, alpha, eta):
    try:
        report = oracle_preconditions(f, alpha, eta)
        oracle = EnvelopeOracle(f, alpha)
    except ParameterError as exc:
        return str(exc)
    return report, [oracle.value(u, v) for u, v in sample_points(f.u_max)]


def oracle_check_branch(f, alpha, tolerance=0.0):
    """check_branch by its former own triple loop."""
    a = F(alpha)
    top = int(f.u_max)
    us = list(range(0, top + 1))
    vals = {(u, v): f.value(u, v) for u in us for v in us if v <= u}
    worst_s, wit_s = None, None
    worst_l, wit_l = None, None
    for u in us:
        for w in us:
            if w > u:
                break
            for v in us:
                if v > w:
                    break
                m_s = vals[(u, w)] + vals[(w, v)] - vals[(u, v)]
                m_l = vals[(u, v)] - vals[(w, v)] - a * (u - w)
                if worst_s is None or m_s > worst_s:
                    worst_s, wit_s = m_s, (u, w, v)
                if worst_l is None or m_l > worst_l:
                    worst_l, wit_l = m_l, (u, w, v)
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


def oracle_lambda_limit(f, theta, u_min, u_max, step=1):
    """lambda_limit by its former stepping loop."""
    th, u, hi, st_ = F(theta), F(u_min), F(u_max), F(step)
    best = None
    while u <= hi:
        ratio = f.value(u, th * u) / u
        if best is None or ratio < best:
            best = ratio
        u += st_
    return best


def _two_jumps(u):
    return (1 if u >= 4 else 0) + (1 if u >= 9 else 0)


def _perturbed_lift(u_max=14):
    L = lift(make_psi(1, F(1, 2), F(1, 4)), u_max)
    return GridBranch.from_function(
        lambda u, v: L.value(u, v) + _two_jumps(u) - _two_jumps(v), u_max
    )


SCAN_CASES = {
    "phi": lambda: lift(make_phi(1, F(1, 2), F(1, 4)), 12),
    "psi": lambda: lift(make_psi(1, F(1, 2), F(1, 4)), 12),
    "q": lambda: lift(make_q(1, F(1, 2), F(2, 3), F(1, 4)), 12),
    "unit_jump": lambda: GridBranch.from_function(
        lambda u, v: F(0) if u == v else F(u - v + 1), 10),
    "zero": lambda: GridBranch.from_function(lambda u, v: F(0), 8),
    "nonzero_diagonal": lambda: GridBranch.from_function(
        lambda u, v: F(u + v, 3), 7),
    "constant_one": lambda: GridBranch.from_function(lambda u, v: F(1), 5),
    "perturbed_lift": _perturbed_lift,
}

# Too small for the unit jump at u = 4, enough for the one at u = 9.
PROFILE_ETA = EtaBound(profile=LipschitzProfile(
    (F(0), F(5), F(10), F(14)), (F(0), F(0), F(1), F(1)), F(1)))


@st.composite
def grid_branches(draw):
    """Random non-negative integer-grid samples.

    The diagonal is zero everywhere, only at the origin (which regularize
    needs), or random.
    """
    u_max = draw(st.integers(1, 12))
    den = draw(st.sampled_from([1, 2, 3]))
    zeros = draw(st.sampled_from(["diagonal", "origin", "none"]))
    cells = [(u, v) for u in range(u_max + 1) for v in range(u + 1)]
    nums = draw(st.lists(st.integers(0, 12), min_size=len(cells),
                         max_size=len(cells)))
    samples = {}
    for (u, v), n in zip(cells, nums):
        zero = (zeros == "diagonal" and u == v) or (zeros == "origin" and u == 0)
        samples[(u, v)] = F(0) if zero else F(n, den)
    return GridBranch(samples, u_max)


class TestTripleScanMatchesOracle:
    """One scan serves regularize and check_branch; reports stay the same."""

    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    @pytest.mark.parametrize("alpha", [F(1, 2), 1, 2])
    def test_check_branch(self, name, alpha):
        f = SCAN_CASES[name]()
        for tolerance in (0.0, 0.5):
            assert (check_branch(f, alpha, tolerance=tolerance)
                    == oracle_check_branch(f, alpha, tolerance))

    @pytest.mark.parametrize("name", sorted(SCAN_CASES))
    @pytest.mark.parametrize("eta", [EtaBound.const(0, threshold=2),
                                     EtaBound.const(1, threshold=2),
                                     EtaBound.const(2, threshold=2)])
    def test_regularize(self, name, eta):
        f = SCAN_CASES[name]()
        assert regularize_outcome(f, 1, eta) == oracle_regularize_outcome(f, 1, eta)

    def test_regularized_output_checks_the_same(self):
        reg = regularize(_perturbed_lift(), 1, EtaBound.const(2))
        assert check_branch(reg, 1) == oracle_check_branch(reg, 1)

    def test_nonzero_origin_still_raises(self):
        f = SCAN_CASES["constant_one"]()
        eta = EtaBound.const(0)
        assert regularize_outcome(f, 1, eta) == oracle_regularize_outcome(f, 1, eta)
        with pytest.raises(ParameterError, match="vanish at 0"):
            regularize(f, 1, eta)

    @pytest.mark.parametrize("eta", [EtaBound.const(0), EtaBound.const(1),
                                     EtaBound.const(2), PROFILE_ETA])
    def test_perturbed_lift_under_each_eta(self, eta):
        f = _perturbed_lift()
        outcome = regularize_outcome(f, 1, eta)
        assert outcome == oracle_regularize_outcome(f, 1, eta)
        report = outcome[0]
        assert report.passed == (eta.constant in (1, 2))
        assert (report.lipschitz_witness is None) == report.passed

    @settings(max_examples=80, deadline=None)
    @given(grid_branches(), st.sampled_from([F(1, 2), 1, 2]),
           st.integers(0, 2))
    def test_random_grid_samples(self, f, alpha, c):
        eta = EtaBound.const(c, threshold=3)
        assert (regularize_outcome(f, alpha, eta)
                == oracle_regularize_outcome(f, alpha, eta))
        assert check_branch(f, alpha) == oracle_check_branch(f, alpha)

    @settings(max_examples=40, deadline=None)
    @given(grid_branches(), st.integers(1, 12), st.integers(1, 12))
    def test_lambda_limit_on_grid_samples(self, f, theta_num, u_min):
        theta = F(theta_num, 12)
        if u_min > f.u_max:
            return
        assert (lambda_limit(f, theta, u_min)
                == oracle_lambda_limit(f, theta, u_min, f.u_max))

    @pytest.mark.parametrize("u_min, u_max", [(F(1, 2), 12), (F(7, 3), F(23, 2)),
                                              (5, F(11, 2)), (3, 3)])
    def test_lambda_limit_fractional_window(self, u_min, u_max):
        f = lift(make_q(1, F(1, 2), F(2, 3), F(1, 4)), 12)
        for i in range(1, 13):
            theta = F(i, 12)
            assert (lambda_limit(f, theta, u_min, u_max)
                    == oracle_lambda_limit(f, theta, u_min, u_max))


# ---------------------------------------------------------------------------
# regularize's output against the envelope infimum it evaluates, and the
# integer triple scan against the Fraction loops above.

def assert_matches_envelopes(reg, f, alpha):
    """Every point equals the envelope oracle, as a Fraction; integer
    points given as Fractions equal the table; domain errors, limits and
    checks behave as on the oracle.
    """
    oracle = EnvelopeOracle(f, alpha)
    top = int(reg.u_max)
    samples = {}
    for u, v in sample_points(reg.u_max):
        got = reg.value(u, v)
        assert type(got) is F and got == oracle.value(u, v)
        if type(u) is int and type(v) is int:
            samples[(u, v)] = got
            assert reg.value(F(u), F(v)) == got
    for bad in ((top + 1, 0), (0, 1), (-1, -1)):
        with pytest.raises(DomainError):
            reg.value(*bad)
    with pytest.raises(TypeError):
        reg.value(True, False)
    for theta in (F(1, 4), F(1, 2), F(2, 3), F(1)):
        assert lambda_limit(reg, theta, 1) == lambda_limit(oracle, theta, 1)
    assert check_branch(reg, 1) == oracle_check_branch(GridBranch(samples, top), 1)


# constant_one has a nonzero origin, which regularize rejects
# (test_nonzero_origin_still_raises).
TABLE_CASES = sorted(set(SCAN_CASES) - {"constant_one"})


class PastLastInteger(BranchFn):
    """Grid samples on a domain reaching half a step past the last integer."""

    def __init__(self, grid):
        super().__init__(grid.u_max + F(1, 2), False)
        self.grid = grid

    def value(self, u, v):
        return self.grid.value(u, v)


class TestRegularizeTable:
    @pytest.mark.parametrize("name", TABLE_CASES)
    @pytest.mark.parametrize("alpha", [F(1, 2), 1, 2])
    @pytest.mark.parametrize("eta", [EtaBound.const(0, threshold=2),
                                     EtaBound.const(1, threshold=2),
                                     EtaBound.const(2, threshold=2), PROFILE_ETA])
    def test_scan_cases(self, name, alpha, eta):
        f = SCAN_CASES[name]()
        assert (regularize_outcome(f, alpha, eta)
                == oracle_regularize_outcome(f, alpha, eta))
        assert_matches_envelopes(regularize(f, alpha, eta), f, alpha)

    @settings(max_examples=40, deadline=None)
    @given(grid_branches(), st.sampled_from([F(1, 2), 1, 2]),
           st.integers(0, 2))
    def test_random_grid_samples(self, f, alpha, c):
        try:
            reg = regularize(f, alpha, EtaBound.const(c, threshold=3))
        except ParameterError:
            return  # a nonzero origin; the scan tests cover the error
        assert_matches_envelopes(reg, f, alpha)

    @settings(max_examples=40, deadline=None)
    @given(grid_branches(), st.sampled_from([F(1, 2), 1, 2]),
           st.sampled_from([EtaBound.const(0, threshold=3),
                            EtaBound.const(1, threshold=3),
                            EtaBound.const(2, threshold=3), PROFILE_ETA]),
           st.booleans())
    def test_values_are_envelope_fractions(self, grid, alpha, eta, past_top):
        f = PastLastInteger(grid) if past_top else grid
        outcome = regularize_outcome(f, alpha, eta)
        assert outcome == oracle_regularize_outcome(f, alpha, eta)
        if not isinstance(outcome, str):
            assert all(type(x) is F for x in outcome[1])

    def test_fractional_u_max(self):
        f = lift(make_phi(1, F(1, 2), F(1, 4)), F(21, 2))
        reg = regularize(f, 1, EtaBound.const(0))
        assert len(reg.minorants) == 11
        assert_matches_envelopes(reg, f, 1)
        assert reg.value(F(21, 2), 10) == EnvelopeOracle(f, 1).value(F(21, 2), 10)


class TestIntegerScanDenominator:
    # Integer samples and alpha = 1/2: the thirds of eta(u) reach the
    # common denominator only through eta.
    THIRDS_ETA = EtaBound(profile=LipschitzProfile((F(0), F(12)), (F(0), F(4)),
                                                   F(1, 3)))

    def test_denominator_from_eta(self):
        f = GridBranch.from_function(lambda u, v: F(u - v), 12)
        outcome = regularize_outcome(f, F(1, 2), self.THIRDS_ETA)
        assert outcome == oracle_regularize_outcome(f, F(1, 2), self.THIRDS_ETA)
        report = outcome[0]
        # (u - w)/2 - u/3 peaks at u = 12, w = 0
        assert report.lipschitz_violation == 2.0
        assert report.lipschitz_witness == (12, 0, 0)

    def test_zero_worst_margin_passes(self):
        # every superadditivity and Lipschitz margin of u - v is exactly 0
        f = GridBranch.from_function(lambda u, v: F(u - v), 9)
        report = check_branch(f, 1)
        assert report == oracle_check_branch(f, 1)
        assert report.passed
        assert report.superadd_witness == report.lipschitz_witness == (0, 0, 0)
        outcome = regularize_outcome(f, 1, EtaBound.const(0))
        assert outcome == oracle_regularize_outcome(f, 1, EtaBound.const(0))
        assert outcome[0].passed
