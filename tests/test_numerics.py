"""The numpy quadrature, Brent solver and PCHIP interpolant against the SciPy
routines they replace."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.interpolate import PchipInterpolator

from escrate._numerics import brentq, pchip, quad
from escrate.errors import QuadratureFailure
from escrate.rate_solver import effective_lower_limit, phi
from escrate.profiles import GrowthProfile


def on_nodes(g):
    return lambda xs: [g(x) for x in xs.tolist()]


# a(r) = 1 + sqrt(r) on radii 0, 2^0, ..., 2^30, as in the benchmark's table
_TAB_RADII = np.array([0.0] + [2.0 ** k for k in range(31)])

_INTEGRANDS = {
    "smooth": (lambda x: math.exp(-x) * math.cos(3.0 * x), 0.0, 4.0),
    "kink": (lambda x: abs(x - 0.3), 0.0, 1.0),
    # denominator down to 1e-6 at the left end, as phi's near r_star
    "near_pole": (lambda x: 1.0 / (x + 1e-6), 0.0, 1.0),
}

_BRACKETS = {
    "cubic": (lambda x: x ** 3 - 2.0, 0.0, 2.0),
    "cos": (lambda x: math.cos(x) - x, 0.0, 1.0),
    "steep": (lambda x: math.tanh(50.0 * (x - 0.123)), -1.0, 1.0),
    "wide": (lambda x: math.exp(x) - 1e6, 0.0, 40.0),
}


class TestAgainstScipy:
    @pytest.mark.parametrize("name", list(_INTEGRANDS))
    def test_quad(self, name):
        g, a, b = _INTEGRANDS[name]
        ref = integrate.quad(g, a, b, epsrel=1e-13, epsabs=0.0, limit=200)[0]
        assert quad(on_nodes(g), a, b, 1e-9, 400, name) == pytest.approx(ref, rel=1e-9)
        # at a tighter epsrel the two agree to rounding
        tight = quad(on_nodes(g), a, b, 1e-13, 400, name)
        assert tight == pytest.approx(ref, rel=1e-13 if name != "kink" else 1e-12)

    def test_quad_break_point_makes_kink_exact(self):
        g, a, b = _INTEGRANDS["kink"]
        assert quad(on_nodes(g), a, b, 1e-9, 400, "kink", points=[0.3]) == \
            pytest.approx(0.29, rel=1e-15)

    def test_phi_next_to_dead_zone(self):
        # V + log log r starts just above the 1e-6 floor at r_star
        p = GrowthProfile(log_volume=lambda r: np.log(r) - 3.0,
                          energy_bound=lambda r: 1.0)
        r_star = effective_lower_limit(p)

        def g(u):
            r = math.exp(u)
            return r * r / (p.V(r) + math.log(math.log(r)))

        ref = integrate.quad(g, math.log(r_star), math.log(2.0 * r_star),
                             epsrel=1e-13, epsabs=0.0, limit=200)[0]
        assert phi(p, 2.0 * r_star, r_star) == pytest.approx(ref, rel=1e-9)

    def test_quad_failures_are_typed(self):
        with pytest.raises(QuadratureFailure, match="divergent: .* 50 intervals"):
            quad(on_nodes(lambda x: 1.0 / x), 0.0, 1.0, 1e-9, 50, "divergent")
        with pytest.raises(QuadratureFailure, match="overflow: estimate inf"):
            quad(on_nodes(lambda x: 1e308 * (1.0 + x)), 0.0, 10.0, 1e-9, 50,
                 "overflow")

    @pytest.mark.parametrize("name", list(_BRACKETS))
    @pytest.mark.parametrize("rtol", [1e-10, 1e-12])
    def test_brentq(self, name, rtol):
        f, a, b = _BRACKETS[name]
        ref = optimize.brentq(f, a, b, rtol=rtol, xtol=1e-300, maxiter=200)
        root = brentq(f, a, b, rtol, 1e-300, 200)
        assert root == pytest.approx(ref, rel=4.0 * np.finfo(float).eps)
        # known end values give the same root
        assert brentq(f, a, b, rtol, 1e-300, 200, fa=f(a), fb=f(b)) == root

    def test_brentq_needs_a_sign_change(self):
        with pytest.raises(ValueError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10, 1e-300, 200)

    @pytest.mark.parametrize("x,y", [
        (_TAB_RADII, 1.0 + np.sqrt(_TAB_RADII)),
        (np.linspace(0.0, 10.0, 12),
         np.array([1.0, 2.0, 2.0, 1.0, 0.0, -1.0, -1.0, 3.0, 0.0, 0.0, 5.0, -2.0])),
        (np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 10.0, 11.0, 0.0])),
        (np.array([0.0, 1.0]), np.array([2.0, 5.0])),
    ], ids=["benchmark_table", "sign_changes_and_flats", "end_overshoot", "two_points"])
    def test_pchip(self, x, y):
        spline = PchipInterpolator(x, y, extrapolate=False)
        deriv = spline.derivative()
        value, derivative = pchip(x, y)
        rng = np.random.default_rng(5)
        inside = np.concatenate((x, rng.uniform(x[0], x[-1], 2000),
                                 np.linspace(x[0], x[-1], 1001)))
        for mine, ref in ((value, spline), (derivative, deriv)):
            got, want = mine(inside), ref(inside)
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)
            assert float(mine(inside[7])) == pytest.approx(float(want[7]), rel=1e-14)
        span = x[-1] - x[0]
        outside = np.array([x[0] - 1e-9 * span, x[-1] + 1e-9 * span, -np.inf,
                            np.inf, np.nan])
        assert np.all(np.isnan(value(outside)))
        assert np.all(np.isnan(derivative(outside)))
