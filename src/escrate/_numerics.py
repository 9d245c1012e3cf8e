"""Adaptive quadrature, Brent root-finding and PCHIP interpolation on numpy:
globally adaptive 21-point Gauss-Kronrod (QUADPACK's qk21 rule) and its
first panel over many intervals at once, Brent's method with an xtol +
rtol |x| stop over arrays of brackets in lockstep, and the Fritsch-Butland
monotone cubic with the three-point end rule, evaluated in each interval's
power basis.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailure

# qk21 on [-1, 1]: Kronrod abscissae x_0 > ... > x_10 = 0 (x_1, x_3, ..., x_9
# are the 10-point Gauss nodes), their Kronrod weights, and the Gauss weights.
_XK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
                0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
                0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
                0.14887433898163122, 0.0])
_WK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                0.14773910490133849, 0.1494455540029169])
_WG = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                0.26926671930999635, 0.29552422471475287])
_NODES = np.concatenate((-_XK[:-1], _XK[::-1]))
_W21 = np.concatenate((_WK[:-1], _WK[::-1]))
_W10 = np.zeros(21)
_W10[1::2] = np.concatenate((_WG, _WG[::-1]))


def _rule(f, lo: float, hi: float, label: str):
    """(|K21 - G10|, lo, hi, K21) of f over [lo, hi]; a non-finite K21
    raises."""
    half = 0.5 * (hi - lo)
    fv = np.asarray(f(0.5 * (lo + hi) + half * _NODES), dtype=float)
    k21 = half * float(_W21 @ fv)
    if not math.isfinite(k21):
        raise QuadratureFailure(f"{label}: estimate {k21}")
    return abs(k21 - half * float(_W10 @ fv)), lo, hi, k21


def quad(f, a: float, b: float, epsrel: float, limit: int, label: str,
         points=()) -> float:
    """Integral of f over [a, b], a <= b, starting from the intervals cut at
    the given break points; f maps an array of nodes to their values.

    Bisects the interval with the largest |K21 - G10| until the summed
    differences are at most epsrel |value|. QuadratureFailure, with
    ``label``, when an estimate is not finite or ``limit`` intervals do not
    get there."""
    if a == b:
        return 0.0
    edges = [a, *sorted(p for p in points if a < p < b), b]
    parts = [_rule(f, lo, hi, label) for lo, hi in zip(edges[:-1], edges[1:])]
    while True:
        total = math.fsum(part[3] for part in parts)
        err = math.fsum(part[0] for part in parts)
        if err <= epsrel * abs(total):
            return total
        if len(parts) >= limit:
            raise QuadratureFailure(
                f"{label}: estimate {total}, error {err} after {limit} intervals")
        worst = max(parts)
        parts.remove(worst)
        _, lo, hi, _ = worst
        parts += [_rule(f, lo, 0.5 * (lo + hi), label),
                  _rule(f, 0.5 * (lo + hi), hi, label)]


def one_panel(f, a: np.ndarray, b: np.ndarray, epsrel: float) -> np.ndarray:
    """quad's value on each [a_i, b_i] whose first 21-node panel meets
    epsrel, by _rule's arithmetic with its dot on each row; NaN on the
    others and where the estimate is not finite. f maps an (m, 21) array of
    nodes to their values in one call."""
    half = 0.5 * (b - a)
    fv = np.asarray(f((0.5 * (a + b))[:, None] + half[:, None] * _NODES), dtype=float)
    k21 = half * np.array([_W21 @ v for v in fv])
    err = np.abs(k21 - half * np.array([_W10 @ v for v in fv]))
    return np.where(np.isfinite(k21) & (err <= epsrel * np.abs(k21)), k21, np.nan)


def brentq(f, a, b, rtol: float, xtol: float, maxiter: int, fa=None, fb=None):
    """Roots of f in the brackets [a_i, b_i], where f(a_i) and f(b_i) differ
    in sign, each to within xtol + rtol |x|, solved in lockstep.

    f(rows, x) gives the values at x[k] of the rows[k] still running (an
    index array into a and b). Each row takes exactly the steps of a one-row
    solve, so no root depends on the other rows. ``fa``/``fb`` are f at a/b
    when the caller has them. A row that fails (f raises, its bracket has no
    sign change, or it has not converged in maxiter iterations) ends every
    later row, and its error is raised once the earlier rows are solved: as
    solving the rows one after another would.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    roots = np.empty(a.size)
    rows = np.arange(a.size)
    first, error = a.size, None  # the first failing row, and its error

    def fail(row, exc):
        nonlocal first, error
        if row < first:
            first, error = row, exc

    def values(x):
        """f at x on the running rows; NaN from the first row f fails on."""
        try:
            return np.asarray(f(rows, x), dtype=float)
        except Exception:
            out = np.full(rows.size, np.nan)
            for k in range(rows.size):
                try:
                    out[k] = np.asarray(f(rows[k:k + 1], x[k:k + 1]), dtype=float)[0]
                except Exception as exc:
                    fail(rows[k], exc)
                    break
            return out

    xpre, xcur = a, b
    fpre = values(a) if fa is None else np.asarray(fa, dtype=float)
    fcur = values(b) if fb is None else np.asarray(fb, dtype=float)
    zero = (fpre == 0.0) | (fcur == 0.0)
    roots[zero] = np.where(fpre == 0.0, xpre, xcur)[zero]
    same = ~zero & ((fpre < 0.0) == (fcur < 0.0))
    if same.any():
        fail(int(np.argmax(same)),
             ValueError("f(a) and f(b) must have different signs"))
    keep = ~zero & (rows < first)
    rows, xpre, xcur, fpre, fcur = (v[keep] for v in (rows, xpre, xcur, fpre, fcur))
    xblk = fblk = spre = scur = np.zeros(rows.size)
    for _ in range(maxiter):
        new = (fpre != 0.0) & (fcur != 0.0) & ((fpre < 0.0) != (fcur < 0.0))
        xblk, fblk = np.where(new, xpre, xblk), np.where(new, fpre, fblk)
        spre, scur = np.where(new, xcur - xpre, spre), np.where(new, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)   # keep the best point in xcur
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = 0.5 * (xtol + rtol * np.abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        roots[rows[done]] = xcur[done]
        keep = ~done & (rows < first)
        (rows, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
         sbis) = (v[keep] for v in (rows, xpre, xcur, xblk, fpre, fcur, fblk,
                                    spre, scur, delta, sbis))
        if not rows.size:
            break
        with np.errstate(all="ignore"):  # a 0/0 step is refused below
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            quadratic = (-fcur * (fblk * dblk - fpre * dpre)
                         / (dblk * dpre * (fblk - fpre)))
        stry = np.where(xpre == xblk, secant, quadratic)
        room = 3.0 * np.abs(sbis) - delta
        room = np.where(room < np.abs(spre), room, np.abs(spre))  # Python's min
        # interpolate when the step is short enough, else bisect
        step = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                & (2.0 * np.abs(stry) < room))
        spre, scur = np.where(step, scur, sbis), np.where(step, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur,
                               np.where(sbis > 0, delta, -delta))
        fcur = values(xcur)
    if (rows < first).any():
        raise RuntimeError(f"brentq: no convergence in {maxiter} iterations")
    if error is not None:
        raise error
    return roots


def pchip(x: np.ndarray, y: np.ndarray):
    """Value and derivative callables of the monotone cubic through (x, y),
    x strictly increasing; NaN outside [x_0, x_last]."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full_like(y, m[0])
    if x.size > 2:
        # inside: weighted harmonic mean of the slopes, 0 at an extremum
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1] = np.where(flat, 0.0, 1.0 / mean)
        # ends: three-point slope, 0 or 3 m0 where it would break the shape
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        big = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0,
                              np.where(big, 3.0 * m0, e))
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    # power-basis coefficients of each interval, s^3 first, with a NaN row
    # on either side for points outside the knots
    nan = np.array([np.nan])
    c = [np.concatenate((nan, k, nan))
         for k in (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])]
    left = np.concatenate((x[:1], x[:-1], x[-1:]))

    def locate(r):
        """Row of r (interval i is row i + 1, the last one closed) and the
        offset of r from the row's left knot."""
        r = np.asarray(r, dtype=float)
        j = np.searchsorted(x[:-1], r, side="right") + (r > x[-1])
        return r - left[j], j

    def value(r):
        s, j = locate(r)
        return c[3][j] + c[2][j] * s + c[1][j] * (s * s) + c[0][j] * (s * s * s)

    def derivative(r):
        s, j = locate(r)
        return c[2][j] + (2.0 * c[1][j]) * s + (3.0 * c[0][j]) * (s * s)

    return value, derivative
