"""Adaptive quadrature, Brent root-finding and PCHIP interpolation on numpy:
globally adaptive 21-point Gauss-Kronrod (QUADPACK's qk21 rule) over arrays
of intervals and Brent's method with an xtol + rtol |x| stop over arrays of
brackets, each in lockstep with every row bitwise its one-row call, and the
Fritsch-Butland monotone cubic with the three-point end rule, evaluated in
each interval's power basis.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, OutOfRange, QuadratureFailure

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


class _FirstFailure:
    """The lowest row that has failed so far, and its error."""

    def __init__(self, rows: int):
        self.row, self.error = rows, None

    def __call__(self, row, error):
        if row < self.row:
            self.row, self.error = row, error


def _by_rows(f, rows, x, fail: _FirstFailure):
    """f(rows, x), x running along the sorted rows; when that raises, f
    again on each row's stretch of rows and x alone, in order, with NaN
    from the first row it raises on, whose error goes to fail."""
    try:
        return np.asarray(f(rows, x), dtype=float)
    except Exception:
        out = np.full(np.shape(x), np.nan)
        ends = np.flatnonzero(np.diff(rows, append=-1)) + 1
        for s, e in zip([0, *ends[:-1].tolist()], ends.tolist()):
            try:
                out[s:e] = f(rows[s:e], x[s:e])
            except Exception as exc:
                fail(rows[s], exc)
                break
        return out


def quad(f, a, b, epsrel: float, limit: int, label, points=()) -> np.ndarray:
    """Integrals of f over the rows [a_i, b_i], a_i <= b_i, each cut at the
    sorted break points inside it, in lockstep: f maps an (m, 21) array of
    nodes to their values, and one call takes every new panel.

    Each row bisects its part with the largest (|K21 - G10|, lo, hi, K21)
    until the fsum of its differences is at most epsrel |fsum of its K21|,
    each panel with its own dot, as ``_W21 @ v`` (a matrix-vector product
    sums in another order): each row is bitwise its one-row call.
    QuadratureFailure, with ``label(i)``, when a row's estimate is not
    finite or ``limit`` parts do not get there. A failing row ends the rows
    after it, and its error is raised once the rows before it are done;
    when f raises on a batch, it runs again row by row.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros(a.size)
    fail = _FirstFailure(a.size)
    own = np.flatnonzero(a != b)
    lo, hi = a[own], b[own]
    alone = np.ones(own.size, dtype=bool)  # the rows of one panel
    if len(points):  # each row's panels: a_i, the break points inside, b_i
        cut = np.searchsorted(points, lo, side="right")
        n = np.maximum(np.searchsorted(points, hi, side="left") - cut, 0) + 1
        own, alone = np.repeat(own, n), np.repeat(n == 1, n)
        at = np.arange(own.size) + np.repeat(cut - np.cumsum(n) + n, n)  # cut_i + j
        ends = np.concatenate(([-np.inf], points, [np.inf]))
        lo, hi = np.maximum(a[own], ends[at]), np.minimum(b[own], ends[at + 1])
    parts = {}  # each other row's parts [|K21 - G10|, lo, hi, K21], in order
    while own.size:
        half = 0.5 * (hi - lo)
        fv = _by_rows(lambda _, x: f(x), own,
                      (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES, fail=fail)
        with np.errstate(all="ignore"):  # an overflow ends non-finite
            k21 = half * (fv[:, None] @ _W21)[:, 0]  # (m, 1, 21) @ (21,): a dot each
            err = np.abs(k21 - half * (fv[:, None] @ _W10)[:, 0])
        for j in np.flatnonzero(~np.isfinite(k21))[:1]:  # the lowest row's first
            fail(own[j], QuadratureFailure(f"{label(own[j])}: estimate {k21[j]}"))
        alone &= err <= epsrel * np.abs(k21)  # a one-panel row meeting epsrel is done
        out[own[alone]] = k21[alone] + 0.0  # its fsum: its K21, and 0.0 for -0.0
        if alone.all():
            break
        for i, *part in zip(*(v[~alone].tolist() for v in (own, err, lo, hi, k21))):
            parts.setdefault(i, []).append(part)
        halves = []
        for i in sorted(parts):
            p = parts.pop(i)
            if i >= fail.row:
                continue
            total, errs = math.fsum(q[3] for q in p), math.fsum(q[0] for q in p)
            if errs <= epsrel * abs(total):
                out[i] = total
            elif len(p) >= limit:
                fail(i, QuadratureFailure(f"{label(i)}: estimate {total}, error "
                                          f"{errs} after {limit} intervals"))
            else:
                worst = max(p)
                p.remove(worst)
                parts[i] = p
                mid = 0.5 * (worst[1] + worst[2])
                halves += [(i, worst[1], mid), (i, mid, worst[2])]
        own, lo, hi = np.array(halves, dtype=float).reshape(-1, 3).T
        own, alone = own.astype(int), np.zeros(own.size, dtype=bool)
    if fail.error is not None:
        raise fail.error
    return out


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
    fail = _FirstFailure(a.size)
    xpre, xcur = a, b
    fpre = _by_rows(f, rows, a, fail=fail) if fa is None else np.asarray(fa, dtype=float)
    fcur = _by_rows(f, rows, b, fail=fail) if fb is None else np.asarray(fb, dtype=float)
    zero = (fpre == 0.0) | (fcur == 0.0)
    roots[zero] = np.where(fpre == 0.0, xpre, xcur)[zero]
    same = ~zero & ((fpre < 0.0) == (fcur < 0.0))
    if same.any():
        fail(int(np.argmax(same)),
             ValueError("f(a) and f(b) must have different signs"))
    keep = ~zero & (rows < fail.row)
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
        keep = ~done & (rows < fail.row)
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
        fcur = _by_rows(f, rows, xcur, fail=fail)
    if (rows < fail.row).any():
        r = int(rows[0])
        fail(r, OutOfRange(f"brentq: no convergence in {maxiter} iterations "
                           f"on [{float(a[r])}, {float(b[r])}]"))
    if fail.error is not None:
        raise fail.error
    return roots


@np.errstate(all="ignore")  # a slope or coefficient past float range is refused
def pchip(x: np.ndarray, y: np.ndarray):
    """Value and derivative callables of the monotone cubic through (x, y),
    x strictly increasing; NaN outside [x_0, x_last]. A DomainError when
    its slopes or coefficients are not finite."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full_like(y, m[0])
    if x.size > 2:
        # inside: weighted harmonic mean of the slopes, 0 at an extremum
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        mean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1] = np.where(flat, 0.0, 1.0 / mean)
        # ends: three-point slope, 0 or 3 m0 where it would break the shape
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        big = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0,
                              np.where(big, 3.0 * m0, e))
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    # power-basis coefficients of each interval, s^3 first
    k = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])
    if not (np.isfinite(d).all() and np.isfinite(k).all()):
        raise DomainError("tabulated slopes or spline coefficients are not finite")
    # a NaN row on either side for points outside the knots
    nan = np.array([np.nan])
    c = [np.concatenate((nan, row, nan)) for row in k]
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
