"""Crossing-time integral, envelope inversion, conservativeness heuristics,
dyadic bounds, and drift-majorant envelopes."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from escrate import rate_solver
from escrate.errors import (
    DomainError,
    ExtrapolationError,
    FiniteTotalIntegral,
    NonPositiveDenominator,
)
from escrate.profiles import GrowthProfile, RadialCoefficient, catalogue_case, profile_from_radial
from escrate.rate_solver import (
    PROOF_SCALE_C,
    RateFunction,
    catalogue_numeric_rate,
    catalogue_profile,
    conservativeness,
    drift_envelope,
    dyadic_scheme,
    effective_lower_limit,
    euclidean_rate,
    phi,
    psi,
    rate_table,
)


def euclid(n):
    return GrowthProfile(log_volume=lambda r: n * np.log(r),
                         energy_bound=lambda r: 1.0,
                         r_min=1.0, r_max=math.inf, label=f"euclid{n}")


class TestPhi:
    def test_zero_at_lower_limit(self):
        assert phi(euclid(3), 2.0, 2.0) == 0.0

    def test_strictly_increasing(self):
        p = euclid(2)
        vals = [phi(p, R, 2.0) for R in (5.0, 10.0, 50.0, 500.0)]
        assert np.all(np.diff(vals) > 0)

    def test_additive_over_subintervals(self):
        p = euclid(3)
        whole = phi(p, 100.0, 2.0)
        split = phi(p, 10.0, 2.0) + phi(p, 100.0, 10.0)
        assert whole == pytest.approx(split, rel=1e-9)

    def test_denominator_must_be_positive(self):
        # V + log log r < 0 near r = 1 for a shrinking profile
        p = GrowthProfile(log_volume=lambda r: -10.0,
                          energy_bound=lambda r: 1.0,
                          r_min=1.0, r_max=math.inf, label="bad")
        with pytest.raises(NonPositiveDenominator):
            phi(p, 10.0, 2.0)

    def test_wide_domain(self):
        # stays accurate across ten decades of radius
        p = euclid(1)
        v = phi(p, 1e12, 2.0)
        assert math.isfinite(v) and v > 0


class TestPsi:
    def test_zero_time(self):
        assert psi(euclid(3), 0.0, 2.0) == 2.0

    def test_inverts_phi(self):
        p = euclid(2)
        for t in (0.5, 10.0, 1e4):
            R = psi(p, t, 2.0)
            assert phi(p, R, 2.0) == pytest.approx(t, rel=1e-9)

    def test_monotone_in_t(self):
        p = euclid(3)
        vals = [psi(p, t, 2.0) for t in (1.0, 10.0, 100.0)]
        assert np.all(np.diff(vals) > 0)

    def test_finite_total_integral(self):
        prof = profile_from_radial(RadialCoefficient.power(3.0), 2, "unit_energy")
        with pytest.raises(FiniteTotalIntegral):
            psi(prof, 1.0, 2.0)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            psi(euclid(2), -1.0, 2.0)


class TestRateTable:
    def test_scaled_envelope(self):
        p = euclid(1)
        grid = np.array([1.0, 2.0, 5.0])
        rate = rate_table(p, grid, scale_c=PROOF_SCALE_C)
        direct = [psi(p, PROOF_SCALE_C * t, rate.r_star) for t in grid]
        assert np.allclose(rate.values, direct, rtol=1e-9)

    def test_extrapolation_guard(self):
        rate = rate_table(euclid(1), np.array([1.0, 2.0]), scale_c=1.0)
        with pytest.raises(ExtrapolationError):
            rate(10.0)

    def test_interpolation_between_samples(self):
        rate = rate_table(euclid(1), np.array([1.0, 4.0]), scale_c=1.0)
        mid = rate(2.5)
        assert rate.values[0] < mid < rate.values[1]

    def test_euclidean_conversion(self):
        coeff = RadialCoefficient.power(1.0)
        prof = profile_from_radial(coeff, 1, "unit_energy")
        rate = rate_table(prof, np.geomspace(1e7, 1e9, 9), scale_c=1.0)
        er = euclidean_rate(rate, coeff)
        # fitted slope of the converted envelope tracks the closed-form
        # companion (t log t)^{1/(2-alpha)} on the same window
        lt = np.log(rate.times)
        slope = np.polyfit(lt, np.log(er.values), 1)[0]
        ref = np.polyfit(lt, np.log(rate.times * np.log(rate.times)), 1)[0]
        assert abs(slope / ref - 1.0) <= 0.05

    def test_rejects_unsorted_grid(self):
        with pytest.raises(DomainError):
            rate_table(euclid(1), np.array([2.0, 1.0]))


# a(r) = 1 + sqrt(r) on radii 0, 2^0, ..., 2^30, as in the benchmark's table
_TAB_RADII = np.array([0.0] + [2.0 ** k for k in range(31)])


class TestOnePassTable:
    @pytest.mark.parametrize("coeff,knots", [
        (RadialCoefficient.power(1.0), []),
        (RadialCoefficient.tabulated(_TAB_RADII, 1.0 + np.sqrt(_TAB_RADII)),
         list(_TAB_RADII)),
    ], ids=["power1", "tabulated"])
    def test_matches_per_row_psi(self, coeff, knots):
        prof = profile_from_radial(coeff, 3, "coefficient_energy")
        grid = np.geomspace(1.0, 1e6, 100)
        rate = rate_table(prof, grid)
        targets = rate.scale_c * grid
        direct = [psi(prof, t, rate.r_star) for t in targets]
        assert np.allclose(rate.values, direct, rtol=1e-9, atol=0.0)
        # phi split at the table's knots, where the integrand is smooth: one
        # quad across the PCHIP knots is off by up to 2.8e-9 on this grid
        back = []
        for R in rate.values:
            pts = [rate.r_star] + [k for k in knots if rate.r_star < k < R] + [R]
            back.append(sum(phi(prof, b, a) for a, b in zip(pts, pts[1:])))
        assert np.allclose(back, targets, rtol=1e-9, atol=0.0)

    def test_phi_walks_forward(self, monkeypatch):
        lower = []
        real_phi = rate_solver.phi

        def recording_phi(profile, R, r_lo):
            lower.append(r_lo)
            return real_phi(profile, R, r_lo)

        monkeypatch.setattr(rate_solver, "phi", recording_phi)
        prof = profile_from_radial(RadialCoefficient.constant(), 3, "unit_energy")
        rate_table(prof, np.geomspace(1.0, 1e6, 200))
        assert np.all(np.diff(lower) >= 0)
        assert len(lower) <= 10 * 200


class TestEffectiveLowerLimit:
    def test_euclidean_starts_at_two(self):
        assert effective_lower_limit(euclid(3)) == 2.0

    def test_shifts_past_dead_zone(self):
        # V negative until r ~ 20: denominator only positive later
        p = GrowthProfile(log_volume=lambda r: np.log(r) - 3.0,
                          energy_bound=lambda r: 1.0,
                          r_min=1.0, r_max=math.inf, label="shifted")
        r_star = effective_lower_limit(p)
        assert r_star > 2.0
        assert p.V(r_star) + math.log(math.log(r_star)) > 0


class TestConservativeness:
    def test_symbolic_families(self):
        assert conservativeness(RadialCoefficient.power(1.5)).kind == "Conservative"
        assert conservativeness(RadialCoefficient.power(2.1)).kind == "NonConservative"
        assert conservativeness(RadialCoefficient.squared_log(0.9)).kind == "Conservative"

    def test_catalogue_cases(self):
        assert conservativeness(catalogue_case("diri2", alpha=1.0)).kind == "Conservative"

    def test_heuristic_is_inconclusive_with_leaning(self):
        grow = profile_from_radial(RadialCoefficient.constant(), 3,
                                   "coefficient_energy")
        v = conservativeness(grow)
        assert v.kind == "Inconclusive"
        assert v.leaning == "Conservative"
        shrink = profile_from_radial(RadialCoefficient.power(2.5), 1,
                                     "coefficient_energy")
        v = conservativeness(shrink)
        assert v.kind == "Inconclusive"
        assert v.leaning == "NonConservative"


class TestDyadicScheme:
    def test_radii_double(self):
        scheme = dyadic_scheme(euclid(2), c=3.0, N=8)
        assert np.allclose(scheme.R, 3.0 * 2.0 ** np.arange(1, 9))
        assert np.allclose(np.diff(scheme.R), scheme.r[1:])

    def test_times_accumulate(self):
        scheme = dyadic_scheme(euclid(2), c=3.0, N=8)
        assert np.allclose(scheme.T, np.cumsum(scheme.t))

    def test_bounds_positive_and_summable_at_depth(self):
        scheme = dyadic_scheme(catalogue_profile(catalogue_case("diri1")),
                               c=4.0, N=25)
        assert np.all(scheme.bound > 0)
        assert scheme.partial_sums[-1] < np.inf
        assert np.all(scheme.lemma_rhs >= 0)

    def test_rejects_bad_level_count(self):
        with pytest.raises(DomainError):
            dyadic_scheme(euclid(2), c=3.0, N=0)


class TestDriftEnvelope:
    def test_constant_majorant_is_linear(self):
        g = drift_envelope(lambda x: 2.0, 5.0)
        assert g == pytest.approx(10.0, rel=1e-9)

    def test_linear_majorant_is_exponential(self):
        # b(x) = max(x, 1): t = 1 + log(g) for g > 1
        g = drift_envelope(lambda x: max(x, 1.0), 4.0)
        assert g == pytest.approx(math.exp(3.0), rel=1e-8)

    def test_integrable_reciprocal_diverges(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            with pytest.raises(FiniteTotalIntegral):
                drift_envelope(lambda x: (1.0 + x) ** 2, 2.0)


class TestCatalogueNumeric:
    def test_g_alpha_zero_is_linear(self):
        case = catalogue_case("g_alpha", alpha=0.0)
        assert catalogue_numeric_rate(case, 50.0) == pytest.approx(50.0, rel=1e-9)

    def test_volume_route_monotone(self):
        case = catalogue_case("diri1")
        v1 = catalogue_numeric_rate(case, 1e3)
        v2 = catalogue_numeric_rate(case, 1e4)
        assert 0 < v1 < v2
