"""Adaptive quadrature, Brent root-finding and PCHIP interpolation on numpy:
globally adaptive 21-point Gauss-Kronrod (QUADPACK's qk21 rule), Brent's
method with an xtol + rtol |x| stop, and the Fritsch-Butland monotone cubic
with the three-point end rule, evaluated in each interval's power basis.
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


def brentq(f, a: float, b: float, rtol: float, xtol: float, maxiter: int,
           fa: float | None = None, fb: float | None = None) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to within
    xtol + rtol |x|. ``fa``/``fb`` are f(a)/f(b) when the caller has them."""
    xpre, xcur = a, b
    fpre = f(a) if fa is None else fa
    fcur = f(b) if fb is None else fb
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):        # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:             # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                        # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if not 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                stry = None              # too long: bisect
        spre, scur = (scur, stry) if stry is not None else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"brentq: no convergence in {maxiter} iterations")


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
