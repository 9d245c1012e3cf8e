"""The numpy quadrature, Brent solver and PCHIP interpolant against the SciPy
routines they replace."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.interpolate import PchipInterpolator

from escrate import _numerics
from escrate._numerics import brentq, pchip, quad
from escrate.errors import QuadratureFailure
from escrate.rate_solver import effective_lower_limit, phi
from escrate.profiles import GrowthProfile


def on_nodes(g):
    """quad's f from a scalar function: one Python float per node."""
    return lambda xs: [[g(x) for x in row] for row in xs.tolist()]


def one_row(f, a, b, epsrel, limit, name, points=()):
    """quad over the single row [a, b]."""
    return quad(f, [a], [b], epsrel, limit, lambda i: name, points)[0]


def on_rows(fs):
    """brentq's f(rows, x) from one scalar function per row."""
    return lambda rows, x: [fs[k](v) for k, v in zip(rows.tolist(), x.tolist())]


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
        assert one_row(on_nodes(g), a, b, 1e-9, 400, name) == pytest.approx(ref, rel=1e-9)
        # at a tighter epsrel the two agree to rounding
        tight = one_row(on_nodes(g), a, b, 1e-13, 400, name)
        assert tight == pytest.approx(ref, rel=1e-13 if name != "kink" else 1e-12)

    def test_quad_break_point_makes_kink_exact(self):
        g, a, b = _INTEGRANDS["kink"]
        assert one_row(on_nodes(g), a, b, 1e-9, 400, "kink", points=[0.3]) == \
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
            one_row(on_nodes(lambda x: 1.0 / x), 0.0, 1.0, 1e-9, 50, "divergent")
        with pytest.raises(QuadratureFailure, match="overflow: estimate inf"):
            one_row(on_nodes(lambda x: 1e308 * (1.0 + x)), 0.0, 10.0, 1e-9, 50,
                    "overflow")

    def test_one_panel_is_the_kronrod_dot(self):
        # a row that one panel settles is half * (_W21 @ f(nodes)), each
        # panel's own dot, as a scalar qk21 rule takes it
        g = _INTEGRANDS["smooth"][0]
        half = 0.5 * (0.1 - 0.0)
        fv = np.array([g(x) for x in (0.05 + half * _numerics._NODES).tolist()])
        assert one_row(on_nodes(g), 0.0, 0.1, 1e-9, 400, "h") == \
            half * float(_numerics._W21 @ fv)

    def test_quad_rows_are_one_row_calls(self):
        # one call over rows that take one panel, bisect, are cut at a
        # break point, end non-finite, reach the limit or raise: each row's
        # value, and the first failing row's error, bitwise as its one-row
        # call gives them
        def g(x):
            if 40.0 < x < 41.0:
                raise ZeroDivisionError(f"raised at {x}")
            if x >= 20.0:
                return 1e308 * (x - 19.0)         # [20, 30]: estimate inf
            if x >= 5.0:
                return abs(x - 5.3)               # [5, 6]: break point 5.3
            if x < 0.0:
                return -1.0 / x                   # [-1, 0]: the limit
            return math.exp(-x) * math.cos(3.0 * x)

        rows = {"one_panel": (0.0, 0.1), "bisects": (0.0, 4.0),
                "break": (5.0, 6.0), "empty": (2.0, 2.0), "inf": (20.0, 30.0),
                "limit": (-1.0, 0.0), "raises": (40.0, 41.0)}
        calls = []

        def f(xs):
            calls.append(xs.shape)
            return on_nodes(g)(xs)

        def run(names):
            a, b = zip(*(rows[k] for k in names))
            return quad(f, a, b, 1e-9, 50, lambda i: names[i], points=[5.3])

        def alone(name):
            try:
                return run([name])[0]
            except Exception as exc:
                return type(exc), str(exc)

        solo = {name: alone(name) for name in rows}
        assert solo["inf"] == (QuadratureFailure, "inf: estimate inf")
        assert solo["limit"][1].startswith("limit: estimate ")
        assert solo["raises"][0] is ZeroDivisionError
        assert solo["break"] == pytest.approx(0.29, rel=1e-15)
        assert solo["empty"] == 0.0
        calls.clear()
        good = ["one_panel", "bisects", "break", "empty"]
        assert run(good).tolist() == [solo[k] for k in good]
        # one (m, 21) call per iteration: 1 + 1 + 2 panels, then two per
        # bisecting row
        assert calls[0] == (4, 21) and len(calls) > 1
        assert set(calls[1:]) <= {(2, 21), (4, 21)}
        for order in (["one_panel", "inf", "raises", "limit"],
                      ["bisects", "raises", "inf"], ["break", "limit", "raises"],
                      ["limit", "inf"]):
            with pytest.raises(Exception) as exc:
                run(order)
            # the limit is reached late, yet an earlier row's error comes first
            first = next(solo[k] for k in order if isinstance(solo[k], tuple))
            assert (exc.type, str(exc.value)) == first, order

    @pytest.mark.parametrize("name", list(_BRACKETS))
    @pytest.mark.parametrize("rtol", [1e-10, 1e-12])
    def test_brentq(self, name, rtol):
        f, a, b = _BRACKETS[name]
        ref = optimize.brentq(f, a, b, rtol=rtol, xtol=1e-300, maxiter=200)
        root, = brentq(on_rows([f]), [a], [b], rtol, 1e-300, 200)
        assert root == pytest.approx(ref, rel=4.0 * np.finfo(float).eps)
        # known end values give the same root
        assert brentq(on_rows([f]), [a], [b], rtol, 1e-300, 200,
                      fa=[f(a)], fb=[f(b)])[0] == root

    @pytest.mark.parametrize("rtol", [1e-10, 1e-12])
    def test_brentq_rows_in_lockstep(self, rtol):
        # one call over every bracket: each row's root is its one-row root
        # to the bit, though the rows converge after different iterations
        fs, a, b = zip(*_BRACKETS.values())
        calls = {k: 0 for k in range(len(fs))}

        def counted(rows, x):
            for k in rows.tolist():
                calls[k] += 1
            return on_rows(fs)(rows, x)

        roots = brentq(counted, a, b, rtol, 1e-300, 200)
        assert len(set(calls.values())) > 1
        for k, (f, lo, hi) in enumerate(_BRACKETS.values()):
            assert roots[k] == brentq(on_rows([f]), [lo], [hi], rtol, 1e-300, 200)[0]
            ref = optimize.brentq(f, lo, hi, rtol=rtol, xtol=1e-300, maxiter=200)
            assert roots[k] == pytest.approx(ref, rel=4.0 * np.finfo(float).eps)
        ends = dict(fa=[f(x) for f, x in zip(fs, a)], fb=[f(x) for f, x in zip(fs, b)])
        assert np.array_equal(brentq(on_rows(fs), a, b, rtol, 1e-300, 200, **ends),
                              roots)

    def test_brentq_needs_a_sign_change(self):
        with pytest.raises(ValueError):
            brentq(on_rows([lambda x: x * x + 1.0]), [-1.0], [1.0], 1e-10,
                   1e-300, 200)

    def test_brentq_no_convergence_comes_before_a_later_error(self):
        # row 0 runs out of iterations; row 1's missing sign change is later
        f = on_rows([_BRACKETS["wide"][0], lambda x: 1.0])
        with pytest.raises(RuntimeError, match="no convergence in 3 iterations"):
            brentq(f, [0.0, 0.0], [40.0, 1.0], 1e-12, 1e-300, 3)

    def test_brentq_raises_the_first_failing_row(self):
        # row 1 fails at its first step, row 2 has no sign change: solved
        # one after another, row 0 runs to its root, then row 1's error
        # comes first
        f0 = _BRACKETS["cubic"][0]
        fail = ZeroDivisionError("row 1")

        def f1(x):
            if 0.0 < x < 1.0:
                raise fail
            return x ** 3 - 0.1

        def steps(fs, record):
            def f(rows, x):
                record.extend(v for k, v in zip(rows.tolist(), x.tolist()) if k == 0)
                return on_rows(fs)(rows, x)
            return f

        solo, seen = [], []
        brentq(steps([f0], solo), [0.0], [2.0], 1e-10, 1e-300, 200)
        with pytest.raises(ZeroDivisionError) as exc:
            brentq(steps([f0, f1, lambda x: 1.0], seen), [0.0, 0.0, 0.0],
                   [2.0, 1.0, 1.0], 1e-10, 1e-300, 200)
        assert exc.value is fail
        # a batch that raises is evaluated again row by row
        assert list(dict.fromkeys(seen)) == solo

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
