"""Coefficient families, intrinsic-radius transforms, manifold models,
the closed-form rate catalogue, and the transformed-drift rate conditions."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize

from escrate import profiles
from escrate.errors import (
    DomainError,
    NonPositiveCoefficient,
    OutOfRange,
)
from escrate.profiles import (
    CATALOGUE,
    CatalogueCase,
    RadialCoefficient,
    catalogue_case,
    check_prop5_conditions,
    closed_form_rate,
    coefficient_drift,
    drift_L_rho,
    euclidean_mean_curvature,
    hyperbolic_majorant,
    hyperbolic_mean_curvature,
    log_rho_tilde_inverse,
    profile_from_radial,
    rho_tilde,
    rho_tilde_inverse,
)
from escrate.rate_solver import rate_table
from escrate.sde import IsotropicNd, Sde1D


class TestRadialCoefficient:
    def test_constant_is_one(self):
        c = RadialCoefficient.constant()
        assert c.a(0.0) == 1.0
        assert c.a(57.3) == 1.0
        assert c.a_prime(3.0) == 0.0

    def test_power_values(self):
        c = RadialCoefficient.power(2.0)
        assert c.a(0.0) == 1.0
        assert c.a(1.0) == 4.0
        # derivative of (1+r)^2 is 2(1+r)
        assert c.a_prime(1.0) == pytest.approx(4.0)

    def test_squared_log_positive_at_origin(self):
        c = RadialCoefficient.squared_log(0.5)
        assert c.a(0.0) == 1.0
        assert c.a(10.0) > 0.0

    def test_tabulated_rejects_nonpositive(self):
        with pytest.raises(NonPositiveCoefficient):
            RadialCoefficient.tabulated([0.0, 1.0, 2.0], [1.0, -1.0, 1.0])

    @pytest.mark.parametrize("radii,values,message", [
        ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], "strictly increasing"),
        ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], "strictly increasing"),
        ([0.0], [1.0], "strictly increasing"),
        ([0.0, 1.0], [1.0, 2.0, 3.0], "2 radii but 3 values"),
        ([0.0, 1.0, 2.0], [1.0, 2.0], "3 radii but 2 values"),
        ([0.0, math.nan, 2.0], [1.0, 2.0, 3.0], "finite"),
        ([0.0, 1.0, math.inf], [1.0, 2.0, 3.0], "finite"),
        ([0.0, 1.0, 2.0], [1.0, math.nan, 3.0], "finite"),
        ([0.0, 1.0, 2.0], [1.0, 2.0, math.inf], "finite"),
    ], ids=["unordered", "repeated", "one_point", "more_values",
            "fewer_values", "nan_radius", "inf_radius", "nan_value",
            "inf_value"])
    def test_tabulated_rejects_malformed_tables(self, radii, values, message):
        with pytest.raises(DomainError, match=message):
            RadialCoefficient.tabulated(radii, values)

    def test_tabulated_interpolates(self):
        c = RadialCoefficient.tabulated([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert c.a(0.5) == pytest.approx(1.5, abs=0.1)

    @pytest.mark.parametrize("radii,values", [
        ([0.0, 1.0], [5.0, 6.0]), ([0.0, 2.0], [1.0, 2.0]),
        ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])],
        ids=["other_values", "other_knots", "more_knots"])
    def test_tables_compare_by_their_table(self, radii, values):
        table = RadialCoefficient.tabulated([0.0, 1.0], [1.0, 2.0])
        other = RadialCoefficient.tabulated(radii, values)
        assert table != other
        assert hash(table) != hash(other)
        assert len({table, other}) == 2
        same = RadialCoefficient.tabulated(np.array([0, 1]), (1, 2))
        assert same == table and hash(same) == hash(table)
        assert repr(other) == "RadialCoefficient(family='tabulated', param=None)"

    def test_families_compare_by_value(self):
        assert RadialCoefficient.power(2) == RadialCoefficient.power(2.0)
        assert len({RadialCoefficient.squared_log(0.5),
                    RadialCoefficient.squared_log(0.5)}) == 1
        assert RadialCoefficient.constant() == RadialCoefficient.constant()
        assert RadialCoefficient.power(1.0) != RadialCoefficient.power(2.0)
        assert RadialCoefficient.constant() != RadialCoefficient.tabulated(
            [0.0, 1.0], [1.0, 1.0])
        assert repr(RadialCoefficient.power(2)) == (
            "RadialCoefficient(family='power', param=2.0)")


@pytest.mark.parametrize("make, name", [
    (RadialCoefficient.constant, "family"),
    (lambda: profile_from_radial(RadialCoefficient.constant(), 1,
                                 "unit_energy"), "r_max"),
    (lambda: catalogue_case("diri1"), "kind"),
    (lambda: Sde1D(floor=0.01), "floor"),
    (lambda: IsotropicNd(RadialCoefficient.constant(), 2), "floor")],
    ids=["RadialCoefficient", "GrowthProfile", "CatalogueCase", "Sde1D",
         "IsotropicNd"])
def test_value_classes_are_frozen(make, name):
    # a chain's kernel trusts the floor its constructor checked
    value = make()
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, -1.0)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == before


def _quad_rho_tilde(coeff, s):
    """Reference intrinsic radius: quad of a^{-1/2} over [0, s]."""
    return integrate.quad(lambda u: float(coeff.a(u)) ** -0.5, 0.0, s,
                          epsrel=1e-13, epsabs=0.0, limit=200)[0]


class TestRhoTilde:
    def test_constant_identity(self):
        c = RadialCoefficient.constant()
        assert rho_tilde(c, 5.0) == pytest.approx(5.0)
        assert rho_tilde_inverse(c, 5.0) == pytest.approx(5.0)

    def test_matches_closed_form(self):
        # rho_tilde is the families' closed forms; the reference is quadrature
        for c in (RadialCoefficient.power(1.0), RadialCoefficient.power(2.0),
                  RadialCoefficient.squared_log(0.5)):
            for s in (0.5, 3.0, 40.0):
                assert rho_tilde(c, s) == pytest.approx(
                    _quad_rho_tilde(c, s), rel=1e-10)

    def test_family_inverse_matches_quadrature(self):
        # brentq over quad is reliable on [1e-3, 1e6]
        svals = np.geomspace(1e-3, 1e6, 12)
        for c in (RadialCoefficient.constant(), RadialCoefficient.power(0.5),
                  RadialCoefficient.power(1.0), RadialCoefficient.power(2.0),
                  RadialCoefficient.power(3.0), RadialCoefficient.squared_log(0.5),
                  RadialCoefficient.squared_log(2.0)):
            rvals = np.array([_quad_rho_tilde(c, s) for s in svals])
            oracle = [optimize.brentq(lambda x, r=r: _quad_rho_tilde(c, x) - r,
                                      0.0, 2.0 * s, xtol=1e-300, rtol=1e-13)
                      for s, r in zip(svals, rvals)]
            got = rho_tilde_inverse(c, rvals)
            assert got.shape == svals.shape
            assert np.allclose(got, oracle, rtol=1e-10, atol=0.0), c.family

    def test_tabulated_round_trip_below_sup(self):
        # the intrinsic radius 4.5 lies in the table's last knot interval,
        # just below the supremum 4.633
        radii = np.linspace(0.0, 10.0, 11)
        c = RadialCoefficient.tabulated(radii, 1.0 + radii)
        assert c.rho_tilde_sup() == pytest.approx(_quad_rho_tilde(c, 10.0),
                                                  rel=1e-10)
        assert rho_tilde(c, rho_tilde_inverse(c, 4.5)) == pytest.approx(
            4.5, rel=1e-12)
        with pytest.raises(OutOfRange):
            rho_tilde_inverse(c, 4.7)

    def test_round_trip(self):
        c = RadialCoefficient.power(0.7)
        for s in (0.1, 2.0, 100.0):
            assert rho_tilde_inverse(c, rho_tilde(c, s)) == pytest.approx(s, rel=1e-9)

    def test_bounded_range_raises(self):
        c = RadialCoefficient.power(3.0)  # intrinsic radius capped at 2
        assert c.rho_tilde_sup() == pytest.approx(2.0)
        with pytest.raises(OutOfRange):
            rho_tilde_inverse(c, 2.5)

    def test_log_inverse_handles_huge_values(self):
        c = RadialCoefficient.squared_log(1.0)
        # inverse grows doubly exponentially; log stays finite
        lv = log_rho_tilde_inverse(c, 50.0)
        assert math.isfinite(lv) and lv > 100.0

    @pytest.mark.parametrize("coeff,radii", [
        (RadialCoefficient.constant(), [0.0, 1e-9, 0.5, 3.0, 1e6]),
        (RadialCoefficient.power(1.0), [0.0, 1e-9, 0.5, 3.0, 1e6]),
        (RadialCoefficient.power(3.0), [0.0, 1e-9, 0.5, 1.9]),
        # beta = 1 at r = 50: log s = 675; at r = 100, s is beyond float range
        (RadialCoefficient.squared_log(1.0), [0.0, 1e-9, 0.5, 50.0, 100.0]),
        (RadialCoefficient.tabulated([0.0, 1.0, 4.0, 16.0], [1.0, 2.0, 3.0, 5.0]),
         [0.0, 1e-9, 0.5, 3.0, 6.0]),
    ], ids=["constant", "power1", "power3", "squared_log1", "tabulated"])
    def test_log_inverse_array_matches_scalars(self, coeff, radii):
        out = log_rho_tilde_inverse(coeff, np.array(radii))
        each = [log_rho_tilde_inverse(coeff, r) for r in radii]
        assert all(type(v) is float for v in each)
        assert out.tolist() == each
        assert out[0] == -math.inf
        assert np.all(np.isfinite(out[1:])) and np.all(np.diff(out) > 0)

    def test_monotone(self):
        c = RadialCoefficient.squared_log(0.25)
        svals = np.linspace(0.0, 20.0, 25)
        rvals = [rho_tilde(c, s) for s in svals]
        assert np.all(np.diff(rvals) > 0)


_TAB_RADII = np.array([0.0] + [2.0 ** k for k in range(31)])


def _bench_table():
    """a(r) = 1 + sqrt(r) on radii 0, 2^0, ..., 2^30, as in the benchmark."""
    return RadialCoefficient.tabulated(_TAB_RADII, 1.0 + np.sqrt(_TAB_RADII))


class TestTabulatedRows:
    """The tabulated transform makes one lockstep quadrature where it
    loops over values: each row as its one-row call gives it."""

    @pytest.mark.parametrize("make", [
        _bench_table,
        lambda: RadialCoefficient.tabulated(
            [0.0, 0.3, 1.7, 2.0, 5.5, 9.0, 40.0, 1e3],
            [1.0, 0.5, 3.0, 2.0, 7.0, 1.5, 30.0, 2.0]),
    ], ids=["benchmark_table", "up_and_down"])
    def test_rows_are_one_row_calls(self, make):
        c = make()
        knots = np.concatenate(([0.0], c._table[0][1:]))
        cum = c._rho_knots()
        # the knot table: one call over every knot interval
        pieces = [profiles._integral(c, np.array([lo]), np.array([hi]))[0]
                  for lo, hi in zip(knots[:-1], knots[1:])]
        assert cum.tolist() == [0.0, *np.cumsum(pieces).tolist()]
        rng = np.random.default_rng(8)
        s = np.concatenate((knots, rng.uniform(0.0, knots[-1], 300),
                            np.geomspace(1e-9, knots[-1], 200)))
        r = np.concatenate((cum[:-1], rng.uniform(0.0, cum[-1], 300)))
        for transform, x in ((rho_tilde, s), (rho_tilde_inverse, r),
                             (log_rho_tilde_inverse, r[1:])):
            x = x[:x.size // 2 * 2]
            assert transform(c, x).tolist() == [transform(c, v) for v in x.tolist()]
            assert transform(c, x.reshape(-1, 2)).tolist() == \
                transform(c, x).reshape(-1, 2).tolist()

    def test_errors_are_the_first_failing_rows(self):
        # a(u) = 1 - u is not positive from u = 1 on: rows after the first
        # failing one never run, and its error text is its one-row call's
        c = RadialCoefficient("falling", None, lambda u: 1.0 - u)
        lo, hi = np.array([0.0, 0.5, 0.0, 2.0, 0.0]), np.array([0.5, 3.0, 0.9, 4.0, 7.0])

        def alone(a, b):
            try:
                return profiles._integral(c, np.array([a]), np.array([b]))[0]
            except NonPositiveCoefficient as exc:
                return str(exc)

        solo = [alone(a, b) for a, b in zip(lo, hi)]
        assert isinstance(solo[0], float) and isinstance(solo[2], float)
        assert solo[1].startswith("coefficient not positive at u=")
        with pytest.raises(NonPositiveCoefficient) as exc:
            profiles._integral(c, lo, hi)
        assert str(exc.value) == solo[1] != solo[3]
        assert profiles._integral(c, lo[[0, 2]], hi[[0, 2]]).tolist() == \
            [solo[0], solo[2]]

    def test_calls_count_iterations_not_values(self, monkeypatch):
        # the per-value loops made one a(r) call per value and more (2031
        # for the knot table and these 2000 values, 6467 for the table
        # below); measured here: 2 calls (one for the knot table, one for
        # the values), and 121 a(r) calls with 24 V calls for the table
        calls = {"a": 0, "V": 0}

        def counted(name, f):
            def wrapper(self, r):
                calls[name] += 1
                return f(self, r)
            return wrapper

        monkeypatch.setattr(RadialCoefficient, "a", counted("a", RadialCoefficient.a))
        monkeypatch.setattr(profiles.GrowthProfile, "V",
                            counted("V", profiles.GrowthProfile.V))
        s = np.random.default_rng(3).uniform(0.0, 2.0 ** 30, 2000)
        rho_tilde(_bench_table(), s)
        assert calls["a"] <= 4
        calls["a"] = 0
        rate_table(profile_from_radial(_bench_table(), 3, "unit_energy"),
                   np.geomspace(1.0, 1e6, 3))
        assert calls["a"] <= 180 and calls["V"] <= 40


class TestGrowthProfile:
    def test_unit_energy_has_unit_lambda(self):
        p = profile_from_radial(RadialCoefficient.power(1.0), 2, "unit_energy")
        assert p.lam(7.0) == 1.0

    def test_coefficient_energy_volume(self):
        p = profile_from_radial(RadialCoefficient.power(1.0), 3,
                                "coefficient_energy")
        assert p.V(10.0) == pytest.approx(3.0 * math.log(10.0))
        assert p.lam(4.0) == pytest.approx((1.0 + 4.0) ** 1.0)

    def test_constant_unit_energy_is_euclidean(self):
        p = profile_from_radial(RadialCoefficient.constant(), 2, "unit_energy")
        assert p.V(5.0) == pytest.approx(2.0 * math.log(5.0))


class TestDrifts:
    def test_euclidean_mean_curvature(self):
        assert euclidean_mean_curvature(3)(2.0) == pytest.approx(1.0)  # (n-1)/r

    def test_hyperbolic_mean_curvature_is_coth(self):
        m = hyperbolic_mean_curvature(2, 1.0)
        assert m(1.0) == pytest.approx(1.0 / math.tanh(1.0))

    def test_hyperbolic_stable_at_large_radius(self):
        assert hyperbolic_mean_curvature(2, 1.0)(1000.0) == pytest.approx(1.0)

    def test_constant_coefficient_matches_euclidean(self):
        c = RadialCoefficient.constant()
        assert drift_L_rho(c, 3, 2.0) == pytest.approx(
            euclidean_mean_curvature(3)(2.0))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("coeff", [RadialCoefficient.power(1.0),
                                       RadialCoefficient.squared_log(0.5)],
                             ids=["power1", "squared_log05"])
    def test_coefficient_drift_is_generator_of_rho(self, coeff, n):
        # L = div(a grad) on radial f: a f'' + ((n-1) a/r + a') f', applied
        # to rho_tilde by central differences
        r = np.array([0.3, 1.0, 2.0, 7.5, 40.0, 300.0])
        h = 1e-4 * r
        f_minus, f_0, f_plus = (rho_tilde(coeff, r + k * h) for k in (-1, 0, 1))
        f1 = (f_plus - f_minus) / (2.0 * h)
        f2 = (f_plus - 2.0 * f_0 + f_minus) / h ** 2
        a, ap = coeff.a(r), coeff.a_prime(r)
        L_rho = a * f2 + ((n - 1) * a / r + ap) * f1
        assert np.allclose(drift_L_rho(coeff, n, r), L_rho, rtol=1e-6, atol=0.0)


_NAN = math.nan


@pytest.mark.parametrize("make, message", [
    (lambda: RadialCoefficient.power(_NAN), "alpha must be finite, got nan"),
    (lambda: RadialCoefficient.squared_log(_NAN), "beta must be finite, got nan"),
    (lambda: profile_from_radial(RadialCoefficient.constant(), _NAN, "unit_energy"),
     "dimension n must be >= 1"),
    (lambda: euclidean_mean_curvature(_NAN), "dimension n must be >= 1"),
    (lambda: hyperbolic_mean_curvature(_NAN, 1.0), "dimension n must be >= 1"),
    (lambda: hyperbolic_mean_curvature(2, _NAN), "curvature K must be > 0"),
    (lambda: hyperbolic_majorant(_NAN, 1.0), "majorant needs n >= 2, K > 0"),
    (lambda: hyperbolic_majorant(2, _NAN), "majorant needs n >= 2, K > 0"),
    (lambda: coefficient_drift(RadialCoefficient.constant(), _NAN),
     "dimension n must be >= 1"),
], ids=["power_alpha", "squared_log_beta", "profile_n", "euclidean_n",
        "hyperbolic_n", "hyperbolic_K", "majorant_n", "majorant_K",
        "coefficient_drift_n"])
def test_nan_parameter_refused_when_built(make, message):
    # every comparison with NaN is false: refused here, not by a nan value
    # or a NonFiniteState later
    with pytest.raises(DomainError, match=message):
        make()


@pytest.mark.parametrize("transform, coeff, message", [
    (rho_tilde, RadialCoefficient.power(1.0), "s must be nonnegative"),
    (rho_tilde, RadialCoefficient.squared_log(0.5), "s must be nonnegative"),
    (rho_tilde, _bench_table(), "s must be nonnegative"),
    (rho_tilde_inverse, _bench_table(), "r must be nonnegative"),
    (rho_tilde_inverse, RadialCoefficient.power(1.0), "r must be nonnegative"),
    (rho_tilde_inverse, RadialCoefficient.constant(), "r must be nonnegative"),
    (log_rho_tilde_inverse, _bench_table(), "r must be nonnegative"),
    (log_rho_tilde_inverse, RadialCoefficient.squared_log(0.5),
     "r must be nonnegative"),
], ids=["rho_power", "rho_squared_log", "rho_tabulated", "inverse_tabulated",
        "inverse_power", "inverse_constant", "log_inverse_tabulated",
        "log_inverse_squared_log"])
def test_nan_radius_refused(transform, coeff, message):
    # NaN fails the range check itself, not later as a nan or an IndexError
    for r in (_NAN, np.array([1.0, _NAN])):
        with pytest.raises(DomainError, match=message):
            transform(coeff, r)


class TestCatalogue:
    def test_case_validation(self):
        with pytest.raises(DomainError):
            catalogue_case("diri2", alpha=2.5)
        with pytest.raises(DomainError):
            catalogue_case("geo3", beta=1.5)
        with pytest.raises(DomainError):
            catalogue_case("g_alpha", alpha=2.0)
        with pytest.raises(DomainError):
            catalogue_case("hyperbolic_linear", n=1, K=1.0, eps=0.1)

    @pytest.mark.parametrize("kind, params, takes", [
        ("diri2", {"alpha": math.nan}, "alpha"),
        ("diri3", {"beta": math.nan}, "beta"),
        ("geo3", {"beta": -math.inf}, "beta"),
        ("hyperbolic_linear", {"n": 3, "K": 1.0, "eps": math.inf}, "n, K, eps"),
        ("hyperbolic_linear", {"n": 3, "K": 1.0}, "n, K, eps"),
        ("diri1", {"alpha": 1.0}, "no parameters"),
        ("diri1", {"gamma": 1}, "no parameters"),
        ("diri2", {"alpha": True}, "alpha"),
        ("hyperbolic_linear", {"n": 2.5, "K": 1.0, "eps": 0.1}, "n, K, eps"),
    ], ids=["diri2_nan", "diri3_nan", "geo3_minus_inf", "eps_inf",
            "eps_missing", "diri1_alpha", "diri1_gamma", "diri2_bool",
            "n_fractional"])
    def test_parameters_checked_as_a_set(self, kind, params, takes):
        # a missing, extra, non-finite or bool parameter, or a fractional
        # dimension, names what the case takes
        with pytest.raises(DomainError, match=f"^{kind} takes {takes};"):
            catalogue_case(kind, **params)

    # a parameter inside each printed row's range
    ROW_PARAMS = {
        ("diri1", ""): {}, ("diri2", "alpha<2"): {"alpha": 1.0},
        ("diri3", "beta<1"): {"beta": 0.5}, ("diri3", "beta=1"): {"beta": 1.0},
        ("geo1", ""): {}, ("geo2", "alpha<2"): {"alpha": 1.0},
        ("geo3", "beta<1"): {"beta": 0.5}, ("geo3", "beta=1"): {"beta": 1.0},
        ("g_alpha", "alpha=-1"): {"alpha": -1.0},
        ("g_alpha", "-1<alpha<1"): {"alpha": 0.5},
        ("g_alpha", "alpha=1"): {"alpha": 1.0},
        ("hyperbolic_linear", "n>=2, K>0"): {"n": 2, "K": 1.0, "eps": 0.1},
    }

    def test_table_cases_are_the_accepted_kinds(self):
        # the numpy-free table and the declarations are the two places the
        # catalogue lives: each row's case is accepted, with a finite
        # positive psi, a psi_tilde exactly where the row prints one, and a
        # finite numeric envelope; no kind outside the table is accepted
        from escrate.rate_solver import catalogue_numeric_rate

        assert set(self.ROW_PARAMS) == {row[:2] for row in CATALOGUE}
        assert len(CATALOGUE) == 12
        for kind, where, _, printed_tilde in CATALOGUE:
            case = catalogue_case(kind, **self.ROW_PARAMS[kind, where])
            assert isinstance(case, CatalogueCase)
            psi, psi_tilde = closed_form_rate(case, 100.0)
            assert math.isfinite(psi) and psi > 0, (kind, where)
            assert (psi_tilde is None) == (printed_tilde == ""), (kind, where)
            assert math.isfinite(catalogue_numeric_rate(case, 20.0)), (kind, where)
        assert len({row[0] for row in CATALOGUE}) == 8
        for kind in ("diri4", "geo", "hyperbolic", "custom"):
            with pytest.raises(DomainError):
                catalogue_case(kind)

    def test_diri1_closed_form(self):
        psi, psi_tilde = closed_form_rate(catalogue_case("diri1"), 100.0)
        assert psi == pytest.approx(math.sqrt(100.0 * math.log(100.0)))
        assert psi_tilde == psi

    def test_exp_case(self):
        psi, psi_tilde = closed_form_rate(catalogue_case("diri3", beta=1.0), 3.0)
        assert psi == pytest.approx(math.exp(3.0))
        assert psi_tilde == pytest.approx(math.exp(math.exp(3.0)))

    def test_exp_case_saturates(self):
        psi, psi_tilde = closed_form_rate(catalogue_case("diri3", beta=1.0), 1e4)
        assert psi_tilde == math.inf

    def test_hyperbolic_linear(self):
        case = catalogue_case("hyperbolic_linear", n=3, K=4.0, eps=0.1)
        psi, _ = closed_form_rate(case, 10.0)
        assert psi == pytest.approx(1.1 * 2 * 2.0 * 10.0)

    def test_small_t_raises(self):
        with pytest.raises(DomainError):
            closed_form_rate(catalogue_case("diri1"), 0.5)
        with pytest.raises(DomainError):
            closed_form_rate(catalogue_case("geo1"), 2.0)  # needs t > e


class TestProp5:
    def test_unit_drift_identity_transform(self):
        grid = np.linspace(0.5, 50.0, 200)
        rep = check_prop5_conditions(
            b=lambda z: 1.0, sigma=lambda z: 1.0,
            f=lambda z: z, f_prime=lambda z: 1.0, f_second=lambda z: 0.0,
            g=lambda x: x, grid=grid,
            b_tilde=lambda z: 1.0, b_tilde_prime=lambda z: 0.0, eps=0.5)
        assert rep.verdict == "VERIFIED"
        assert rep.b0 == pytest.approx(1.0)
        assert rep.c2 == 0.0
        assert rep.rate_constant == pytest.approx(1.0)
        # envelope is g((speed + eps) t) = 1.5 t
        assert rep.rate(10.0) == pytest.approx(15.0)

    def test_superlinear_noise_flagged(self):
        grid = np.linspace(1.0, 100.0, 100)
        rep = check_prop5_conditions(
            b=lambda z: 0.0, sigma=lambda z: 1.0 + z ** 2,
            f=lambda z: z, f_prime=lambda z: 1.0, f_second=lambda z: 0.0,
            g=lambda x: x, grid=grid)
        assert rep.verdict == "VIOLATED"
        assert rep.noise_alpha >= 1.0
