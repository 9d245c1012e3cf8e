"""Crossing-time integral, envelope inversion, conservativeness heuristics,
dyadic bounds, and drift-majorant envelopes."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.integrate import IntegrationWarning

from escrate import rate_solver
from escrate.errors import (
    DomainError,
    ExtrapolationError,
    FiniteTotalIntegral,
    NonPositiveDenominator,
    OutOfRange,
    QuadratureFailure,
)
from escrate.profiles import GrowthProfile, RadialCoefficient, catalogue_case, profile_from_radial
from escrate.rate_solver import (
    PROOF_SCALE_C,
    RateFunction,
    catalogue_numeric_rate,
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
                         r_max=math.inf)


# a(r) = 1 + sqrt(r) on radii 0, 2^0, ..., 2^30, as in the benchmark's table
_TAB_RADII = np.array([0.0] + [2.0 ** k for k in range(31)])


@pytest.fixture
def phi_calls(monkeypatch):
    """Each call of the rows form of phi, as its rows (r_lo, R); phi itself
    makes one-row calls."""
    calls = []
    real_rows = rate_solver._phi_rows

    def recording_rows(profile, r_lo, R):
        calls.append(list(zip(r_lo.tolist(), R.tolist())))
        return real_rows(profile, r_lo, R)

    monkeypatch.setattr(rate_solver, "_phi_rows", recording_rows)
    return calls


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
                          r_max=math.inf)
        with pytest.raises(NonPositiveDenominator) as exc:
            phi(p, 10.0, 2.0)
        # the first offending radius: the lowest node of the first rule
        lo, hi = math.log(2.0), math.log(10.0)
        first = math.exp(0.5 * (lo + hi) - 0.5 * (hi - lo) * 0.9956571630258081)
        assert exc.value.radius == pytest.approx(first, rel=1e-14)

    def test_integrand_takes_node_arrays(self, monkeypatch):
        # V and lambda see one (m, 21) array of nodes per lockstep iteration:
        # first the 20 panels between the knots inside [1.42, 1e6], then the
        # two halves of the part the row bisects (the denominator is small
        # at 1.42), so m sums to the panel count
        coeff = RadialCoefficient.tabulated(_TAB_RADII, 1.0 + np.sqrt(_TAB_RADII))
        base = profile_from_radial(coeff, 3, "coefficient_energy")
        expected = phi(base, 1e6, 1.42)
        shapes = {"V": [], "lam": []}

        def seen(name, f):
            return lambda r: shapes[name].append(np.shape(r)) or f(r)

        prof = GrowthProfile(seen("V", base.V), seen("lam", base.lam),
                             r_max=base.r_max, knots=base.knots)
        assert phi(prof, 1e6, 1.42) == expected
        calls = len(shapes["V"])
        assert calls > 1
        assert shapes["V"] == shapes["lam"] == [(20, 21)] + [(2, 21)] * (calls - 1)

    _ROWS = {  # a profile, and what its rows below give: values or errors
        "euclid3": (lambda: euclid(3), {"value"}),
        "dead_zone": (lambda: GrowthProfile(log_volume=lambda r: np.log(r) - 3.0,
                                            energy_bound=lambda r: 1.0),
                      {"value", "NonPositiveDenominator"}),
        "tabulated_unit": (lambda: profile_from_radial(RadialCoefficient.tabulated(
            _TAB_RADII, 1.0 + np.sqrt(_TAB_RADII)), 3, "unit_energy"), {"value"}),
        "tabulated_coefficient": (lambda: profile_from_radial(
            RadialCoefficient.tabulated(_TAB_RADII, 1.0 + np.sqrt(_TAB_RADII)),
            3, "coefficient_energy"), {"value"}),
        "shrinking": (lambda: GrowthProfile(log_volume=lambda r: 2.0 - 0.5 * r,
                                            energy_bound=lambda r: 1.0),
                      {"value", "NonPositiveDenominator"}),
        # r*r/den overflows, and lambda underflows to 0 at 1e60
        "overflowing": (lambda: GrowthProfile(log_volume=lambda r: np.log(r),
                                              energy_bound=lambda r: 1e-300 / r),
                        {"value", "QuadratureFailure", "NonPositiveDenominator"}),
    }

    @pytest.mark.parametrize("name", list(_ROWS))
    def test_rows_are_one_row_phi(self, name):
        # empty intervals, knots inside, bisecting rows, and rows that fail:
        # each row's value, and the first failing row's error, as phi gives
        # them alone (warnings are errors)
        make, kinds = self._ROWS[name]
        prof = make()
        lo = 2.0 * np.array([1.0, 1.0, 1.0, 2.0, 3.7, 40.0, 1e3, 1.5, 8.0, 1e60])
        R = lo * np.array([1.0, 1.5, 2.0, 2.0, 1.01, 1.9, 2.0, 37.0, 1e4, 1e15])
        lo, R = lo[R <= prof.r_max], R[R <= prof.r_max]

        def alone(a, b):
            try:
                return phi(prof, b, a)
            except Exception as exc:
                return type(exc), str(exc)

        solo = [alone(a, b) for a, b in zip(lo, R)]
        assert {v[0].__name__ if isinstance(v, tuple) else "value"
                for v in solo} == kinds
        for n in range(1, lo.size + 1):
            failed = [v for v in solo[:n] if isinstance(v, tuple)]
            if not failed:
                assert rate_solver._phi_rows(prof, lo[:n], R[:n]).tolist() == solo[:n]
                continue
            with pytest.raises(Exception) as exc:
                rate_solver._phi_rows(prof, lo[:n], R[:n])
            assert (exc.type, str(exc.value)) == failed[0]

    @pytest.mark.parametrize("R", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_R_refused(self, R):
        # refused before any integrand call, with no warning
        calls = []
        p = GrowthProfile(log_volume=lambda r: calls.append(r) or 3.0 * np.log(r),
                          energy_bound=lambda r: 1.0)
        with pytest.raises(DomainError, match=f"R={R} must be finite"):
            phi(p, R)
        assert calls == []

    def test_wide_domain(self):
        # stays accurate across ten decades of radius
        p = euclid(1)
        v = phi(p, 1e12, 2.0)
        assert math.isfinite(v) and v > 0

    def test_tabulated_breaks_at_knots(self):
        # one quadrature across the PCHIP knots was off by up to 2.8e-9 here
        coeff = RadialCoefficient.tabulated(_TAB_RADII, 1.0 + np.sqrt(_TAB_RADII))
        prof = profile_from_radial(coeff, 3, "coefficient_energy")
        rate = rate_table(prof, np.geomspace(1.0, 1e6, 100))

        def integrand(u):
            r = math.exp(u)
            return r * r / (prof.lam(r) * (prof.V(r) + math.log(math.log(r))))

        def reference(a, b):
            return integrate.quad(integrand, math.log(a), math.log(b),
                                  epsrel=1e-13, epsabs=0.0, limit=200)[0]

        knots = [k for k in _TAB_RADII if k > rate.r_star]
        edges = [rate.r_star] + knots
        cum = np.concatenate(([0.0], np.cumsum(
            [reference(a, b) for a, b in zip(edges, edges[1:])])))
        for R in rate.values:
            j = int(np.searchsorted(edges, R, side="right")) - 1
            ref = cum[j] + reference(edges[j], R)
            assert phi(prof, R, rate.r_star) == pytest.approx(ref, rel=1e-10)


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

    @pytest.mark.parametrize("call", [
        lambda p: psi(p, math.nan),
        lambda p: rate_table(p, [math.nan]),
        lambda p: rate_table(p, [1.0, 2.0], scale_c=math.nan),
        lambda p: drift_envelope(lambda x: 1.0, math.nan),
    ], ids=["psi", "rate_table_grid", "rate_table_scale_c", "drift_envelope"])
    def test_nan_target_rejected(self, call):
        # a NaN target is not >= 0: refused, not answered with the lower limit
        with pytest.raises(DomainError, match="t must be nonnegative"):
            call(euclid(3))

    def test_infinite_target_unreachable(self):
        with pytest.raises(FiniteTotalIntegral, match="not representable"):
            psi(euclid(3), math.inf, 2.0)

    @pytest.mark.parametrize("call", [
        lambda p: psi(p, 0.0, r_lo=-1),
        lambda p: psi(p, 1.0, r_lo=-1),
        lambda p: phi(p, 5.0, r_lo=-1),
        lambda p: phi(p, 5.0, r_lo=0),
    ], ids=["psi_zero_time", "psi", "phi_negative", "phi_zero"])
    def test_nonpositive_lower_limit_rejected(self, call):
        # phi integrates in log r: r_lo <= 0 is refused before any quadrature,
        # and psi refuses it even where it would return r_lo unsolved
        profile = profile_from_radial(RadialCoefficient.constant(), 3,
                                      "unit_energy")
        with pytest.raises(DomainError, match="must be positive"):
            call(profile)

    @pytest.mark.parametrize("lam_power,r_max,message", [
        # phi grows like log log R: still below t at 1e150
        (2, math.inf, "envelope radius for t=100 not representable "
                      "(phi = 5.5599 at 1.6367e+150)"),
        # the cap ends the walk past 1e150 too: "on the domain" comes first
        (2, 1.5e150, "phi bounded by 5.55965 on the domain, below t=100"),
        # shells shrink like R^-4
        (6, math.inf, "phi numerically bounded by 0.0234356 < t=100"),
    ], ids=["not_representable", "capped", "numerically_bounded"])
    def test_unreachable_target_messages(self, lam_power, r_max, message):
        prof = GrowthProfile(log_volume=lambda r: np.log(r),
                             energy_bound=lambda r: np.asarray(r) ** lam_power,
                             r_max=r_max)
        with pytest.raises(FiniteTotalIntegral) as exc:
            psi(prof, 100.0, 2.0)
        assert str(exc.value) == message


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

    @pytest.mark.parametrize("times, values", [
        ([1.0, math.nan], [1.0, 2.0]), ([math.nan], [1.0]),
        ([1.0, 2.0], [math.nan, 2.0]), ([1.0, 2.0], [1.0, math.nan])],
        ids=["time", "only_time", "first_value", "last_value"])
    def test_nan_sample_refused(self, times, values):
        with pytest.raises(DomainError, match="must not be NaN"):
            RateFunction(times, values, 1.0)

    def test_nan_time_is_outside_the_range(self):
        rate = rate_table(euclid(1), np.array([1.0, 2.0]), scale_c=1.0)
        for t in (math.nan, [1.5, math.nan]):
            with pytest.raises(ExtrapolationError):
                rate(t)

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

    def test_euclidean_conversion_beyond_float_range(self):
        # two inf rows: the table's monotonicity check must not form inf - inf
        coeff = RadialCoefficient.squared_log(0.5)
        prof = profile_from_radial(coeff, 3, "unit_energy")
        er = euclidean_rate(rate_table(prof, [100.0, 200.0]), coeff)
        assert er.values.tolist() == [math.inf, math.inf]

    def test_rejects_unsorted_grid(self):
        with pytest.raises(DomainError):
            rate_table(euclid(1), np.array([2.0, 1.0]))


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
        targets = PROOF_SCALE_C * grid
        direct = [psi(prof, t, rate.r_star) for t in targets]
        assert np.allclose(rate.values, direct, rtol=1e-9, atol=0.0)
        # phi split at the table's knots, where the integrand is smooth: one
        # quad across the PCHIP knots is off by up to 2.8e-9 on this grid
        back = []
        for R in rate.values:
            pts = [rate.r_star] + [k for k in knots if rate.r_star < k < R] + [R]
            back.append(sum(phi(prof, b, a) for a, b in zip(pts, pts[1:])))
        assert np.allclose(back, targets, rtol=1e-9, atol=0.0)

    def test_phi_walks_forward(self, phi_calls):
        # every evaluation starts at the shell below its R: in order of R,
        # the lower ends never go back
        prof = profile_from_radial(RadialCoefficient.constant(), 3, "unit_energy")
        rate_table(prof, np.geomspace(1.0, 1e6, 200))
        lower = [r_lo for R, r_lo in sorted((R, r_lo) for call in phi_calls
                                            for r_lo, R in call)]
        assert np.all(np.diff(lower) >= 0)
        assert len(lower) <= 10 * 200

    def test_no_phi_call_repeats(self, phi_calls):
        # Brent gets each bracket's end values from the carried F(lo), F(hi)
        prof = profile_from_radial(RadialCoefficient.constant(), 3, "unit_energy")
        rate_table(prof, np.geomspace(1.0, 1e6, 200))
        pairs = [row for call in phi_calls for row in call]
        assert len(set(pairs)) == len(pairs)

    @pytest.mark.parametrize("coeff,mode", [
        (RadialCoefficient.constant(), "unit_energy"),
        (RadialCoefficient.tabulated(_TAB_RADII, 1.0 + np.sqrt(_TAB_RADII)),
         "unit_energy"),
    ], ids=["constant", "tabulated"])
    def test_end_values_change_no_bit(self, monkeypatch, coeff, mode):
        prof = profile_from_radial(coeff, 3, mode)
        grid = np.geomspace(1.0, 1e6, 40 if coeff.family == "constant" else 3)
        hinted = rate_table(prof, grid).values
        real_brentq = rate_solver.brentq

        def unhinted(f, a, b, rtol, xtol, maxiter, fa=None, fb=None):
            return real_brentq(f, a, b, rtol, xtol, maxiter)

        monkeypatch.setattr(rate_solver, "brentq", unhinted)
        assert np.array_equal(rate_table(prof, grid).values, hinted)

    @pytest.mark.parametrize("coeff,mode", [
        (RadialCoefficient.constant(), "unit_energy"),
        (RadialCoefficient.power(1.0), "coefficient_energy"),
        (RadialCoefficient.tabulated(_TAB_RADII, 1.0 + np.sqrt(_TAB_RADII)),
         "unit_energy"),
    ], ids=["constant", "power1", "tabulated"])
    def test_rows_equal_psi_alone(self, coeff, mode):
        # each row of the lockstep solve is psi of its target alone, to the
        # bit; the tabulated profile's knots send rows to phi itself
        prof = profile_from_radial(coeff, 3, mode)
        grid = np.geomspace(1.0, 1e6, 40 if coeff.family != "tabulated" else 3)
        rate = rate_table(prof, grid)
        alone = [psi(prof, t, rate.r_star) for t in PROOF_SCALE_C * grid]
        assert rate.values.tolist() == alone


class TestEffectiveLowerLimit:
    def test_euclidean_starts_at_two(self):
        assert effective_lower_limit(euclid(3)) == 2.0

    def test_shifts_past_dead_zone(self):
        # V negative until r ~ 20: denominator only positive later
        p = GrowthProfile(log_volume=lambda r: np.log(r) - 3.0,
                          energy_bound=lambda r: 1.0,
                          r_max=math.inf)
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

    @pytest.mark.parametrize("values,leaning", [
        (np.ones_like(_TAB_RADII), "Conservative"),
        (1.0 + np.sqrt(_TAB_RADII), "Conservative"),
        ((1.0 + _TAB_RADII) ** 2, "Conservative"),
        ((1.0 + _TAB_RADII) ** 3, "NonConservative"),
    ], ids=["constant", "sqrt", "square", "cube"])
    def test_table_read_by_its_trend(self, values, leaning):
        # the shells reach the last knot, where the data ends, not the space
        v = conservativeness(RadialCoefficient.tabulated(_TAB_RADII, values))
        assert v.report["increments"].size == 29
        assert (v.kind, v.leaning) == ("Inconclusive", leaning)

    def test_increments_that_reach_zero_lean_non_conservative(self):
        # V is beyond float range from shell 10 on, so the increments are
        # exactly 0 there: the trend is read without forming 0/0
        prof = profile_from_radial(RadialCoefficient.squared_log(2.0), 1,
                                   "unit_energy")
        v = conservativeness(prof)
        assert v.report["increments"][-5:].tolist() == [0.0] * 5
        assert (v.kind, v.leaning) == ("Inconclusive", "NonConservative")

    def test_one_phi_call_over_capped_shells(self, phi_calls):
        # the bench's table: shells r_lo 2^k, capped at the last knot 2^30
        v = conservativeness(RadialCoefficient.tabulated(
            _TAB_RADII, 1.0 + np.sqrt(_TAB_RADII)))
        r_lo = v.report["r_star"]
        assert phi_calls == [[(r_lo * 2.0 ** k, min(r_lo * 2.0 ** (k + 1), 2.0 ** 30))
                              for k in range(29)]]
        assert v.report["total"] == np.cumsum(v.report["increments"])[-1]

    @pytest.mark.parametrize("lam,error", [
        (math.nan, QuadratureFailure), (-1.0, NonPositiveDenominator)],
        ids=["nan", "negative"])
    def test_failing_shell_is_its_error(self, lam, error):
        # a profile that breaks its contract past r = 100: the first shell
        # beyond it raises what phi raises there, not a leaning from the
        # shells before it
        prof = GrowthProfile(
            log_volume=lambda r: 3.0 * np.log(r),
            energy_bound=lambda r: np.where(np.asarray(r) > 100.0, lam, 1.0))
        with pytest.raises(error) as alone:
            phi(prof, 128.0, 64.0)
        with pytest.raises(error, match=f"^{re.escape(str(alone.value))}$"):
            conservativeness(prof)

    def test_covered_finite_domain_leans_non_conservative(self):
        # unit-energy power 2.5: rho_tilde is bounded by 4
        prof = profile_from_radial(RadialCoefficient.power(2.5), 1, "unit_energy")
        v = conservativeness(prof)
        assert v.report["increments"].size == 1
        assert v.report["total"] == v.report["increments"][0]
        assert (v.kind, v.leaning) == ("Inconclusive", "NonConservative")


class TestDyadicScheme:
    def test_radii_double(self):
        scheme = dyadic_scheme(euclid(2), c=3.0, N=8)
        assert np.allclose(scheme.R, 3.0 * 2.0 ** np.arange(1, 9))
        assert np.allclose(np.diff(scheme.R), scheme.r[1:])

    def test_times_accumulate(self):
        scheme = dyadic_scheme(euclid(2), c=3.0, N=8)
        assert np.allclose(scheme.T, np.cumsum(scheme.t))

    def test_bounds_positive_and_summable_at_depth(self):
        scheme = dyadic_scheme(catalogue_case("diri1").profile,
                               c=4.0, N=25)
        assert np.all(scheme.bound > 0)
        assert scheme.partial_sums[-1] < np.inf
        assert np.all(scheme.lemma_rhs >= 0)

    def test_slack_against_whole_integral(self):
        # the acceptance scheme: each level's phi is a sum of shells from 2c
        profile = catalogue_case("diri1").profile
        scheme = dyadic_scheme(profile, c=4.0, N=30)
        whole = np.array([scheme.T[n - 1] - phi(profile, 2.0 ** (n + 1) * 4.0, 8.0)
                          / 256.0 for n in range(1, 31)])
        assert np.allclose(scheme.slack, whole, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("profile", [
        catalogue_case("diri1").profile,
        profile_from_radial(RadialCoefficient.tabulated(
            _TAB_RADII, 1.0 + np.sqrt(_TAB_RADII)), 3, "coefficient_energy"),
    ], ids=["constant", "tabulated"])
    def test_levels_match_per_level_loop(self, profile):
        # reference: the levels one at a time, in math's scalar functions
        scheme = dyadic_scheme(profile, c=4.0, N=25)
        T, t, bound, lemma = 0.0, [], [], []
        for Rn, rn in zip(scheme.R.tolist(), scheme.r.tolist()):
            lam, Vn = float(profile.lam(Rn)), float(profile.V(Rn))
            loglog = math.log(math.log(Rn))
            t.append(rn * rn / (32.0 * lam * (Vn + loglog)))
            T += t[-1]
            bound.append(2.0 / math.sqrt(2.0 * math.pi) / scheme.mu_b1
                         / (Vn + loglog) * (Rn / rn) * math.exp(-2.0 * loglog))
            lemma.append(math.exp(
                math.log(16.0 / math.sqrt(2.0 * math.pi)) + Vn
                - math.log(scheme.mu_b1) + math.log(T) + 0.5 * math.log(lam)
                - 0.5 * math.log(t[-1]) - math.log(rn)
                - rn * rn / (8.0 * lam * t[-1])))
        assert scheme.t.tolist() == t
        assert scheme.T.tolist() == np.cumsum(t).tolist()
        # np.exp and math.exp may round differently in the last place
        assert np.allclose(scheme.bound, bound, rtol=1e-15, atol=0.0)
        assert np.allclose(scheme.lemma_rhs, lemma, rtol=1e-13, atol=0.0)

    def test_one_phi_per_level(self, phi_calls):
        dyadic_scheme(euclid(2), c=3.0, N=8)
        assert phi_calls == [[(3.0 * 2.0 ** n, 3.0 * 2.0 ** (n + 1))
                              for n in range(1, 9)]]

    @pytest.mark.parametrize("profile,c,N,message", [
        # power 2.5 caps the intrinsic radius at 4: the slack needs phi to 6
        (profile_from_radial(RadialCoefficient.power(2.5), 1, "unit_energy"),
         1.5, 1, "R=6.0 beyond profile domain r_max=4.0"),
        (GrowthProfile(log_volume=lambda r: np.log(r),
                       energy_bound=lambda r: 1.0, r_max=50.0),
         4.0, 3, "R=64.0 beyond profile domain r_max=50.0"),
    ], ids=["power_unit", "r_max_50"])
    def test_slack_beyond_the_domain_named(self, phi_calls, profile, c, N,
                                           message):
        # the shells inside the domain are integrated before it is named
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            dyadic_scheme(profile, c, N)
        inside = [(c * 2.0 ** n, c * 2.0 ** (n + 1)) for n in range(1, N + 1)
                  if c * 2.0 ** (n + 1) <= profile.r_max]
        assert [row for call in phi_calls for row in call] == inside

    def test_log_log_undefined_at_first_level(self):
        # c = 0.5 puts R_1 at 1, where log log R is undefined
        with pytest.raises(NonPositiveDenominator, match="undefined at r=1.0"):
            dyadic_scheme(euclid(1), c=0.5, N=4)

    def test_level_beyond_sup_named(self):
        # power 2.5 caps the intrinsic radius at 4: the first level radius
        # at or above it is named, as NonPositiveDenominator names its first
        profile = profile_from_radial(RadialCoefficient.power(2.5), 1,
                                      "unit_energy")
        with pytest.raises(OutOfRange, match="intrinsic radius 4 >= sup "
                                             "rho_tilde = 4$"):
            dyadic_scheme(profile, 1.0, 5)

    def test_rejects_bad_level_count(self):
        with pytest.raises(DomainError):
            dyadic_scheme(euclid(2), c=3.0, N=0)

    @pytest.mark.parametrize("c", [0.0, -0.0, -1.0])
    def test_rejects_nonpositive_scale(self, c):
        # refused before V(2c) = n log(2c) is evaluated
        profile = profile_from_radial(RadialCoefficient.power(1.0), 2,
                                      "coefficient_energy")
        with pytest.raises(DomainError, match="c=-?[01] must be positive"):
            dyadic_scheme(profile, c=c, N=2)

    def test_level_with_overflowing_lambda_named(self):
        # lambda = (1 + R)^1e20 is inf at every level: no level is computed
        profile = profile_from_radial(RadialCoefficient.power(1e20), 2,
                                      "coefficient_energy")
        with pytest.raises(DomainError, match="level 1 at R=8 needs a finite V "
                                              "and a positive finite lambda"):
            dyadic_scheme(profile, c=4.0, N=2)

    def test_rejects_radii_beyond_float_range(self):
        # the slack needs phi at 2^(N+1) c: 2^497 * 4 passes 1e150, where
        # the level terms r_n * r_n are close to overflowing; 2^496 * 4 not
        profile = catalogue_case("diri1").profile
        for N in (496, 600):
            with pytest.raises(DomainError, match="not representable"):
                dyadic_scheme(profile, c=4.0, N=N)
        assert np.isfinite(dyadic_scheme(profile, c=4.0, N=495).partial_sums[-1])


class TestDriftEnvelope:
    def test_constant_majorant_is_linear(self):
        g = drift_envelope(lambda x: 2.0, 5.0)
        assert g == pytest.approx(10.0, rel=1e-9)

    def test_linear_majorant_is_exponential(self):
        # b(x) = max(x, 1): t = 1 + log(g) for g > 1
        g = drift_envelope(lambda x: max(x, 1.0), 4.0)
        assert g == pytest.approx(math.exp(3.0), rel=1e-8)

    def test_divergent_integral_raises_quietly(self, capfd):
        # 1/b_tilde = 1/x is not integrable at 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureFailure, match="1/b_tilde integral"):
                drift_envelope(lambda x: x, 1.0)
        assert capfd.readouterr().err == ""

    def test_integrable_reciprocal_diverges(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            with pytest.raises(FiniteTotalIntegral):
                drift_envelope(lambda x: (1.0 + x) ** 2, 2.0)


class TestCatalogueNumeric:
    def test_g_alpha_zero_is_linear(self):
        case = catalogue_case("g_alpha", alpha=0.0)
        assert catalogue_numeric_rate(case, 50.0) == pytest.approx(50.0, rel=1e-9)

    @pytest.mark.parametrize("n, K", [(2, 1.0), (3, 0.25), (5, 4.0)])
    def test_hyperbolic_linear_majorant_is_its_formula(self, n, K):
        # the majorant as written before it called hyperbolic_majorant,
        # constant below radius 1
        case = catalogue_case("hyperbolic_linear", n=n, K=K, eps=0.1)
        majorant = case.drift
        sk = math.sqrt(K)
        base = (n - 1) * sk
        grid = np.concatenate((np.geomspace(1e-4, 1.0, 41)[:-1],
                               np.geomspace(1.0, 1e4, 41)))
        for x in grid:
            expected = base * (1.0 + 1.0 / (sk * max(float(x), 1.0)))
            assert majorant(x) == expected
            assert type(majorant(x)) is float
        assert majorant(0.25) == majorant(1.0)

    def test_volume_route_monotone(self):
        case = catalogue_case("diri1")
        v1 = catalogue_numeric_rate(case, 1e3)
        v2 = catalogue_numeric_rate(case, 1e4)
        assert 0 < v1 < v2
