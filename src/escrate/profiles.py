"""Coefficient and volume-growth model families.

Defines the radial coefficient families, the intrinsic-radius transform
``rho_tilde`` and its inverse, growth profiles (log-volume plus energy-density
bound), the radial drifts (the Euclidean and hyperbolic mean curvatures,
the hyperbolic majorant and the coefficient drift L rho, each written once
by a builder), and the catalogue cases, each
declared once by ``catalogue_case`` with its closed-form escape envelopes
and numeric route (the printed table, ``CATALOGUE``, is defined in
``escrate.basics``).

The transform, its inverse and log-inverse, the growth profiles and the
drift formulas take floats or numpy arrays. The families use their
closed-form antiderivatives; a ``tabulated`` coefficient integrates a^{-1/2}
once per knot interval, on first use, and keeps the cumulative table. Only
a tabulated coefficient imports ``escrate._numerics``.
"""

from __future__ import annotations

import math
import numbers
from functools import cache, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .basics import CATALOGUE, _Frozen
from .errors import (
    DomainError,
    NonMonotoneTransform,
    NonPositiveCoefficient,
    OutOfRange,
)

__all__ = [
    "RadialCoefficient",
    "GrowthProfile",
    "CatalogueCase",
    "CATALOGUE",
    "Prop5Report",
    "rho_tilde",
    "rho_tilde_inverse",
    "log_rho_tilde_inverse",
    "profile_from_radial",
    "drift_L_rho",
    "euclidean_mean_curvature",
    "hyperbolic_mean_curvature",
    "coefficient_drift",
    "hyperbolic_majorant",
    "closed_form_rate",
    "check_prop5_conditions",
    "catalogue_case",
]


# ---------------------------------------------------------------------------
# Radial coefficient families
# ---------------------------------------------------------------------------

def _finite(name: str, value) -> float:
    """value as a float; DomainError unless it is finite (NaN included)."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


class RadialCoefficient(_Frozen):
    """A strictly positive radial coefficient a(r) with derivative a'(r).

    Families:

    * ``constant``    -- a(r) = 1
    * ``power``       -- a(r) = (1+r)^alpha
    * ``squared_log`` -- a(r) = (1+r)^2 * (1 + log(1+r))^beta
    * ``tabulated``   -- monotonicity-preserving cubic through given samples

    The squared-log family uses 1 + log(1+r) rather than log(1+r) so the
    coefficient stays strictly positive at the origin; the two agree to
    leading order for large r, which is all the rate asymptotics depend on.

    Each constructor declares its whole family: a and a', and the
    intrinsic-radius transform that ``rho_tilde``, ``rho_tilde_inverse`` and
    ``log_rho_tilde_inverse`` call once their arguments are range-checked.
    ``a`` and ``a_prime`` are inf past float range, without a warning.
    Coefficients compare and hash by family, parameter and table.
    """

    # what a constructor passes: a and a' (_a, _a_prime); _rho, rho_tilde of
    # an array s >= 0; _inverse, its inverse on an array in [0, sup);
    # _log_inverse, the log of the inverse; _sup, () -> sup rho_tilde (may be
    # +inf); a tabulated coefficient's (radii, values) as _table and
    # _rho_knots, () -> rho_tilde at 0 and the radii
    def __init__(self, family: str, param: Optional[float] = None, _a=None,
                 _a_prime=None, _rho=None, _inverse=None, _log_inverse=None,
                 _sup=None, _table: Optional[tuple] = None, _rho_knots=None):
        vars(self).update(family=family, param=param, _a=_a, _a_prime=_a_prime,
                          _rho=_rho, _inverse=_inverse, _log_inverse=_log_inverse,
                          _sup=_sup, _table=_table, _rho_knots=_rho_knots)

    def _key(self) -> tuple:
        return self.family, self.param, self._table

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"RadialCoefficient(family={self.family!r}, param={self.param!r})"

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant() -> "RadialCoefficient":
        return RadialCoefficient(
            "constant", None,
            lambda r: np.ones_like(np.asarray(r, dtype=float)),
            lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            _rho=lambda s: s + 0.0, _inverse=lambda r: r + 0.0,
            _log_inverse=np.log, _sup=lambda: math.inf)

    @staticmethod
    def power(alpha: float) -> "RadialCoefficient":
        alpha = _finite("power exponent alpha", alpha)

        def a(r):
            return (1.0 + np.asarray(r, dtype=float)) ** alpha

        def a_prime(r):
            return alpha * (1.0 + np.asarray(r, dtype=float)) ** (alpha - 1.0)

        p = 1.0 - alpha / 2.0
        if alpha == 2.0:
            rho, log1p_inverse = np.log1p, lambda r: r    # s = e^r - 1
        else:
            rho = lambda s: ((1.0 + s) ** p - 1.0) / p
            log1p_inverse = lambda r: np.log1p(p * r) / p
        return RadialCoefficient("power", alpha, a, a_prime, _rho=rho,
                                 **_log1p_transform(alpha, log1p_inverse))

    @staticmethod
    def squared_log(beta: float) -> "RadialCoefficient":
        beta = _finite("squared_log exponent beta", beta)

        def a(r):
            r = np.asarray(r, dtype=float)
            return (1.0 + r) ** 2 * (1.0 + np.log1p(r)) ** beta

        def a_prime(r):
            r = np.asarray(r, dtype=float)
            ell = 1.0 + np.log1p(r)
            return (1.0 + r) * ell ** (beta - 1.0) * (2.0 * ell + beta)

        # with ell = 1 + log(1+s): rho_tilde = log ell, or (ell^p - 1)/p
        p = 1.0 - beta / 2.0
        if beta == 2.0:
            rho = lambda s: np.log(1.0 + np.log1p(s))
            log1p_inverse = lambda r: np.exp(r) - 1.0
        else:
            rho = lambda s: ((1.0 + np.log1p(s)) ** p - 1.0) / p
            log1p_inverse = lambda r: np.exp(np.log1p(p * r) / p) - 1.0
        return RadialCoefficient("squared_log", beta, a, a_prime, _rho=rho,
                                 **_log1p_transform(beta, log1p_inverse))

    @staticmethod
    def tabulated(radii, values) -> "RadialCoefficient":
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(radii)) or not np.all(np.isfinite(values)):
            raise DomainError("tabulated radii and values must be finite")
        if radii.ndim != 1 or radii.size < 2 or np.any(np.diff(radii) <= 0):
            raise DomainError("tabulated radii must be strictly increasing, >= 2 points")
        if values.shape != radii.shape:
            raise DomainError(f"tabulated coefficient has {radii.size} radii "
                              f"but {values.size} values")
        if np.any(values <= 0):
            raise NonPositiveCoefficient("tabulated coefficient samples must be > 0")
        from ._numerics import brentq, pchip

        spline, deriv = pchip(radii, values)

        def a(r):
            out = spline(np.asarray(r, dtype=float))
            if np.any(np.isnan(out)):
                raise OutOfRange("tabulated coefficient evaluated outside its grid")
            return out

        def a_prime(r):
            out = deriv(np.asarray(r, dtype=float))
            if np.any(np.isnan(out)):
                raise OutOfRange("tabulated coefficient evaluated outside its grid")
            return out

        @cache
        def knot_table():
            """Knots 0 = k_0 < k_1 < ... and rho_tilde at each: one
            quadrature over the knot intervals, on first use."""
            knots = np.concatenate(([0.0], radii[radii > 0.0]))
            pieces = _integral(coeff, knots[:-1], knots[1:])
            return knots, np.concatenate(([0.0], np.cumsum(pieces)))

        def rho(s):
            # the knot table plus one quadrature from the knot below each s
            knots, cum = knot_table()
            if np.any(s > knots[-1]):
                raise OutOfRange("tabulated coefficient evaluated outside its grid")
            i = (np.searchsorted(knots, s, side="right") - 1).ravel()
            return (cum[i] + _integral(coeff, knots[i], s.ravel())).reshape(s.shape)

        def inverse(r):
            # one lockstep Brent solve, each row inside the knot interval
            # holding it, with one quadrature per iteration
            knots, cum = knot_table()
            j = (np.searchsorted(cum, r, side="right") - 1).ravel()
            v = r.ravel()

            def f(rows, x):
                return cum[j[rows]] + _integral(coeff, knots[j[rows]], x) - v[rows]

            return brentq(f, knots[j], knots[j + 1], rtol=1e-12, xtol=1e-300,
                          maxiter=200, fa=cum[j] - v,
                          fb=cum[j + 1] - v).reshape(r.shape)

        coeff = RadialCoefficient(
            "tabulated", None, a, a_prime, _rho=rho, _inverse=inverse,
            _log_inverse=lambda r: np.log(inverse(r)),
            _sup=lambda: float(knot_table()[1][-1]),
            _table=(tuple(radii), tuple(values)), _rho_knots=lambda: knot_table()[1])
        return coeff

    # -- evaluation ---------------------------------------------------------

    def a(self, r):
        with np.errstate(over="ignore"):  # past float range: inf
            return self._a(r)

    def a_prime(self, r):
        with np.errstate(over="ignore"):
            return self._a_prime(r)

    def rho_tilde_sup(self) -> float:
        """Supremum of rho_tilde over [0, inf) (may be +inf)."""
        return self._sup()


def _log1p_transform(param: float, log1p_inverse: Callable) -> dict:
    """The inverse, log-inverse and sup of a power or squared-log family,
    from y(r) = log(1 + rho_tilde^{-1}(r)); rho_tilde is bounded, by
    2/(param - 2), when param > 2."""
    sup = 2.0 / (param - 2.0) if param > 2.0 else math.inf

    def inverse(r):
        with np.errstate(over="ignore"):    # an s beyond float range is inf
            return np.expm1(log1p_inverse(r))

    def log_inverse(r):
        y = log1p_inverse(r)
        # log s = y + log(1 - e^{-y}), or log(e^y - 1) for small y
        return np.where(y > 1e-8, y + np.log1p(-np.exp(-y)), np.log(np.expm1(y)))

    return dict(_inverse=inverse, _log_inverse=log_inverse, _sup=lambda: sup)


# ---------------------------------------------------------------------------
# Intrinsic radius transform
# ---------------------------------------------------------------------------

def _integral(coeff: RadialCoefficient, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral of a(u)^{-1/2} over each [lo_i, hi_i], in one quadrature."""
    from ._numerics import quad

    def integrand(u):
        au = coeff.a(u)
        if np.any(au <= 0.0):
            raise NonPositiveCoefficient(
                f"coefficient not positive at u={u.flat[np.argmax(au <= 0.0)]}")
        return au ** -0.5

    return quad(integrand, lo, hi, epsrel=1e-11, limit=200,
                label=lambda i: f"rho_tilde integral on [{lo[i]}, {hi[i]}]")


def _scalar_or_array(out: np.ndarray):
    """A 0-d result as a Python float, any other as the array."""
    return float(out) if out.ndim == 0 else out


def rho_tilde(coeff: RadialCoefficient, s):
    """Intrinsic radius of Euclidean radius s: integral of a(u)^{-1/2} over [0,s].

    Takes a float or an array. Closed forms for the families; for
    ``tabulated``, the knot table plus one quadrature from the knot below s.
    Strictly increasing in s; rho_tilde(coeff, 0) = 0.
    """
    s = np.asarray(s, dtype=float)
    if not (s >= 0).all():  # NaN too
        raise DomainError("s must be nonnegative")
    return _scalar_or_array(coeff._rho(s))


def _intrinsic_radius(coeff: RadialCoefficient, r) -> np.ndarray:
    """r as an array, checked to lie in [0, sup rho_tilde); OutOfRange names
    the first radius at or above the sup."""
    r = np.asarray(r, dtype=float)
    if not (r >= 0).all():  # NaN too
        raise DomainError("r must be nonnegative")
    sup = coeff.rho_tilde_sup()
    above = r >= sup
    if above.any():
        raise OutOfRange(f"intrinsic radius {float(r.flat[np.argmax(above)]):.6g}"
                         f" >= sup rho_tilde = {sup:.6g}")
    return r


def rho_tilde_inverse(coeff: RadialCoefficient, r):
    """The s with rho_tilde(coeff, s) = r, for a float or an array r.

    Closed forms for the families (an s beyond float range is inf); for
    ``tabulated``, one lockstep Brent solve, each r inside the knot
    interval holding it.
    Raises OutOfRange when r >= the supremum of rho_tilde.
    """
    return _scalar_or_array(coeff._inverse(_intrinsic_radius(coeff, r)))


def log_rho_tilde_inverse(coeff: RadialCoefficient, r):
    """log of rho_tilde_inverse for a float or an array r, finite where the
    inverse itself is beyond float range; -inf at r = 0."""
    r = _intrinsic_radius(coeff, r)
    with np.errstate(divide="ignore", over="ignore"):
        return _scalar_or_array(coeff._log_inverse(r))


# ---------------------------------------------------------------------------
# Growth profiles
# ---------------------------------------------------------------------------

class GrowthProfile(_Frozen):
    """Log-volume V(r) and energy-density bound lambda(r) for radii below r_max.

    V and lambda take a float or an array of radii; lambda may return a
    scalar that broadcasts against them. On the valid domain 1 < r < r_max,
    V is nondecreasing and lambda positive and nondecreasing. Radii are in
    the profile's own metric, and so are ``knots``, where V or lambda is only
    piecewise smooth (a tabulated coefficient's knots): quadratures break there.
    """

    def __init__(self, log_volume: Callable, energy_bound: Callable,
                 r_max: float = math.inf, knots: Optional[np.ndarray] = None):
        vars(self).update(log_volume=log_volume, energy_bound=energy_bound,
                          r_max=r_max, knots=knots)

    def V(self, r):
        return self.log_volume(r)

    def lam(self, r):
        return self.energy_bound(r)


def profile_from_radial(coeff: RadialCoefficient, n: int, mode: str) -> GrowthProfile:
    """Growth profile of the radial elliptic form with coefficient a and dim n.

    mode "unit_energy": intrinsic-metric profile, V(r) = n*log(rho_tilde^{-1}(r)),
    lambda = 1. mode "coefficient_energy": Euclidean-radius profile,
    V(r) = n*log(r), lambda(r) = a(r). The mode is case-insensitive.
    """
    if not n >= 1:
        raise DomainError("dimension n must be >= 1")
    mode = mode.lower()
    if mode == "unit_energy":
        knots = None if coeff._rho_knots is None else coeff._rho_knots()
        return GrowthProfile(lambda r: n * log_rho_tilde_inverse(coeff, r),
                             lambda r: 1.0, r_max=coeff.rho_tilde_sup(),
                             knots=knots)
    if mode == "coefficient_energy":
        knots = None if coeff._table is None else np.array(coeff._table[0])
        r_max = math.inf if knots is None else float(knots[-1])
        return GrowthProfile(lambda r: n * np.log(r), coeff.a, r_max=r_max, knots=knots)
    raise DomainError(f"unknown profile mode {mode!r}")


# ---------------------------------------------------------------------------
# Radial drifts
# ---------------------------------------------------------------------------

def drift_L_rho(coeff: RadialCoefficient, n: int, r):
    """Radial drift of the elliptic diffusion with coefficient a(|x|) and dim n.

    L rho, rho = rho_tilde(r), at Euclidean radius r > 0 (a float or an
    array) for the Dirichlet form's generator L = div(a grad) = a Laplacian
    + a'(r) d/dr: a'(r)/(2 sqrt(a(r))) + (n-1) sqrt(a(r))/r. A chain's floor
    keeps r > 0; nothing here checks it.
    """
    r = np.asarray(r, dtype=float)
    sq = np.sqrt(np.asarray(coeff.a(r), dtype=float))
    ap = np.asarray(coeff.a_prime(r), dtype=float)
    return _scalar_or_array(ap / (2.0 * sq) + (n - 1) * sq / r)


def euclidean_mean_curvature(n: int) -> Callable:
    """The Euclidean mean curvature (n-1)/r, the radial Laplacian drift, at
    a float or an array r > 0. A chain's floor keeps r > 0; nothing here
    checks it."""
    if not n >= 1:
        raise DomainError("dimension n must be >= 1")
    return lambda r: _scalar_or_array((n - 1) * (1.0 / np.asarray(r, dtype=float)))


def hyperbolic_mean_curvature(n: int, K: float) -> Callable:
    """The mean curvature (n-1) sqrt(K) coth(sqrt(K) r) of the warp
    sinh(sqrt(K) r)/sqrt(K), at a float or an array r > 0, computed without
    forming the warp, which overflows at large radius."""
    if not K > 0:
        raise DomainError("hyperbolic curvature K must be > 0")
    if not n >= 1:
        raise DomainError("dimension n must be >= 1")
    sk = math.sqrt(K)
    return lambda r: _scalar_or_array(
        (n - 1) * (sk / np.tanh(sk * np.asarray(r, dtype=float))))


def hyperbolic_majorant(n: int, K: float) -> Callable:
    """The drift theta(r) = (n-1) sqrt(K) (1 + 1/(sqrt(K) r)) at a float or
    an array r > 0: a pointwise upper bound for the hyperbolic mean
    curvature (n-1) sqrt(K) coth(sqrt(K) r)."""
    if not (n >= 2 and K > 0):
        raise DomainError("hyperbolic majorant needs n >= 2, K > 0")
    sk = math.sqrt(K)
    base = (n - 1) * sk
    return lambda r: base * (1.0 + 1.0 / (sk * r))


def coefficient_drift(coeff: RadialCoefficient, n: int) -> Callable:
    """The radial drift of the Dirichlet-form diffusion in its intrinsic
    radius: rho -> drift_L_rho at the Euclidean radius rho_tilde_inverse(rho),
    for a float or an array rho > 0.

    It overflows quietly, and a non-finite state gets a NaN drift (the
    kernel raises NonFiniteState for both). Its chain needs
    a floor away from 0: at floor 0.01 its law agrees with the radial law
    of the Dirichlet form's diffusion (power 1 and squared_log 0.5,
    n = 2 and 3, from |x0| = 1, T = 0.2, dt = 1e-3); at the default 1e-6 it
    overshoots near the origin, and a squared_log 0.5 run from x0 = 0.8
    ends in NonFiniteState.
    """
    if not isinstance(coeff, RadialCoefficient):
        raise DomainError("coefficient_drift needs a RadialCoefficient")
    if not n >= 1:
        raise DomainError("dimension n must be >= 1")

    def drift(rho):
        rho = np.asarray(rho, dtype=float)
        out = np.full(rho.shape, np.nan)
        live = np.isfinite(rho)   # rho_tilde_inverse refuses NaN and inf
        with np.errstate(over="ignore", invalid="ignore"):
            out[live] = drift_L_rho(coeff, n, rho_tilde_inverse(coeff, rho[live]))
        return _scalar_or_array(out)
    return drift


# ---------------------------------------------------------------------------
# Closed-form rate catalogue
# ---------------------------------------------------------------------------

class CatalogueCase(_Frozen):
    """A catalogue case as ``catalogue_case`` declares it: its parameters,
    its closed forms t -> (psi, psi_tilde), and its numeric route, either the
    intrinsic growth ``profile`` (a volume-route case) or the dominating
    ``drift`` b_tilde (a comparison-route case)."""

    def __init__(self, kind: str, params: dict, forms: Callable,
                 profile: Optional[GrowthProfile] = None,
                 drift: Optional[Callable] = None):
        vars(self).update(kind=kind, params=params, forms=forms,
                          profile=profile, drift=drift)


def _safe_exp(x: float) -> float:
    """exp that saturates to inf instead of raising on overflow."""
    return math.exp(x) if x < 709.0 else math.inf


def _sqrt_t_log_t(t: float) -> float:
    if t <= 1.0:
        raise DomainError(f"t={t} too small: needs log t > 0")
    return math.sqrt(t * math.log(t))


def _sqrt_t_loglog_t(t: float) -> float:
    if t <= math.e:
        raise DomainError(f"t={t} too small: needs log log t > 0")
    return math.sqrt(t * math.log(math.log(t)))


def _beta_forms(beta: float) -> Callable:
    """The closed forms of diri3 and geo3."""
    if beta == 1.0:
        return lambda t: (_safe_exp(t), _safe_exp(_safe_exp(t)))
    return lambda t: (t ** (1.0 + beta / (2.0 - 2.0 * beta)),
                      _safe_exp(t ** (1.0 / (1.0 - beta))))


def _take(kind: str, params: dict, *names: str, integers=()) -> list:
    """The values of ``params``, which must be exactly ``names``, each a
    finite number, not a bool, and an integer if named in ``integers``."""
    takes = f"{kind} takes {', '.join(names) or 'no parameters'}"
    if set(params) != set(names):
        raise DomainError(f"{takes}; got {', '.join(params) or 'none'}")
    for name, value in params.items():
        if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                           and math.isfinite(value)):
            raise DomainError(f"{takes}; {name}={value!r} is not a finite number")
        if name in integers and not isinstance(value, numbers.Integral):
            raise DomainError(f"{takes}; {name}={value!r} is not an integer")
    return [params[name] for name in names]


def _require(ok: bool, kind: str, condition: str) -> None:
    if not ok:
        raise DomainError(f"{kind} requires {condition}")


def catalogue_case(kind: str, **params) -> CatalogueCase:
    """The catalogue case ``kind`` (a case of ``CATALOGUE``): the one
    declaration of each case's parameters, their range, its closed forms
    and its numeric route. A missing, extra, non-finite, bool or
    out-of-range parameter, or a fractional dimension n, is a
    DomainError."""
    kind = kind.lower()
    take = partial(_take, kind, params)

    # The volume route runs in dimension 1, and in dimension 3 for diri3 at
    # beta = 1: the closed forms suppress dimension-dependent constants, and
    # these choices keep those constants small enough that finite-time
    # exponent comparisons are meaningful at desk scale.
    def volume(forms, coeff, n=1):
        profile = profile_from_radial(coeff, n, "unit_energy")
        return CatalogueCase(kind, params, forms, profile=profile)

    # b_tilde is held constant below radius 1, so 1/b_tilde is integrable at 0
    def comparison(forms, b_tilde):
        drift = lambda x: b_tilde(max(float(x), 1.0))
        return CatalogueCase(kind, params, forms, drift=drift)

    if kind == "diri1":
        take()
        return volume(lambda t: (_sqrt_t_log_t(t),) * 2, RadialCoefficient.constant())
    if kind == "diri2":
        alpha, = take("alpha")
        _require(alpha < 2, kind, "alpha < 2")
        return volume(lambda t: (_sqrt_t_log_t(t),
                                 (t * math.log(t)) ** (1.0 / (2.0 - alpha))),
                      RadialCoefficient.power(alpha))
    if kind == "diri3":
        beta, = take("beta")
        _require(beta <= 1, kind, "beta <= 1")
        return volume(_beta_forms(beta), RadialCoefficient.squared_log(beta),
                      3 if beta == 1.0 else 1)
    if kind == "geo1":
        take()
        return comparison(lambda t: (_sqrt_t_loglog_t(t),) * 2, lambda r: 1.0 / r)
    if kind == "geo2":
        alpha, = take("alpha")
        _require(alpha < 2, kind, "alpha < 2")
        return comparison(lambda t: (_sqrt_t_loglog_t(t),
                                     (t * math.log(math.log(t))) ** (1.0 / (2.0 - alpha))),
                          lambda r: 1.0 / r)
    if kind == "geo3":
        beta, = take("beta")
        _require(beta <= 1, kind, "beta <= 1")
        p = beta / (2.0 - beta)
        return comparison(_beta_forms(beta), lambda r: r ** p)
    if kind == "g_alpha":
        alpha, = take("alpha")
        _require(-1 <= alpha <= 1, kind, "-1 <= alpha <= 1")
        if alpha == -1.0:
            forms = lambda t: (_sqrt_t_loglog_t(t), None)
        elif alpha == 1.0:
            forms = lambda t: (_safe_exp(t), None)
        else:
            forms = lambda t: (t ** (1.0 / (1.0 - alpha)), None)
        return comparison(forms, lambda r: r ** alpha)
    if kind == "hyperbolic_linear":
        n, K, eps = take("n", "K", "eps", integers=("n",))
        _require(n >= 2 and K > 0 and eps > 0, kind, "n >= 2, K > 0, eps > 0")
        return comparison(lambda t: ((1.0 + eps) * (n - 1) * math.sqrt(K) * t, None),
                          hyperbolic_majorant(n, K))
    raise DomainError(f"unknown catalogue case {kind!r}")


def closed_form_rate(case: CatalogueCase, t: float):
    """The case's closed forms (psi, psi_tilde) at t > 0; psi_tilde is None
    when the case does not define a Euclidean-metric companion."""
    t = float(t)
    if not t > 0:  # NaN too
        raise DomainError("t must be positive")
    return case.forms(t)


# ---------------------------------------------------------------------------
# One-dimensional Ito rate conditions
# ---------------------------------------------------------------------------

class Prop5Report(NamedTuple):
    """Empirical check of the transformed-drift rate conditions on a grid.

    ``b0`` is the supremum of b(g(x)) f'(g(x)) + sigma^2(g(x)) f''(g(x))/2,
    ``noise_sup`` the supremum of sigma(g(x)) f'(g(x)); ``noise_alpha`` and
    ``noise_C`` are the fitted growth envelope sigma f' <= C (1 + x^alpha).
    When a dominating drift b_tilde is supplied, ``c2`` is the supremum of
    -(sigma/b_tilde)^2 b_tilde' and ``rate_constant`` = 1 + c2/2.
    ``rate`` is t -> g((s + eps) t), s the rate constant if any, else b0.
    """

    b0: float
    noise_sup: float
    noise_alpha: float
    noise_C: float
    drift_verified: bool
    noise_verified: bool
    c2: Optional[float]
    rate_constant: Optional[float]
    rate: Callable

    @property
    def verdict(self) -> str:
        return "VERIFIED" if (self.drift_verified and self.noise_verified) else "VIOLATED"


def check_prop5_conditions(b, sigma, f, f_prime, f_second, g, grid,
                           b_tilde=None, b_tilde_prime=None,
                           eps: float = 0.1) -> Prop5Report:
    """Evaluate the linear-rate conditions for dz = b dt + sigma dw under the
    increasing transform f (with inverse g) on the given grid of transformed
    coordinates."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("grid must be nonempty")
    grid = np.sort(grid)
    z = np.array([float(g(x)) for x in grid])
    fz = np.array([float(f(v)) for v in z])
    if np.any(np.diff(fz) <= 0) or np.any(np.diff(z) < 0):
        bad = z[min(int(np.argmin(np.diff(fz) > 0)), z.size - 1)]
        raise NonMonotoneTransform(f"f not strictly increasing near z={bad:.6g}")

    fp = np.array([float(f_prime(v)) for v in z])
    fpp = np.array([float(f_second(v)) for v in z])
    bz = np.array([float(b(v)) for v in z])
    sz = np.array([float(sigma(v)) for v in z])

    drift_term = bz * fp + 0.5 * sz ** 2 * fpp
    noise_term = sz * fp
    b0 = float(np.max(drift_term)) if drift_term.size else 0.0
    noise_sup = float(np.max(noise_term))

    # fit sigma f' <= C (1 + x^alpha): slope of log(noise) vs log(x) on the
    # upper half of the grid, then the tightest C for that exponent
    mask = (noise_term > 0) & (grid > 0)
    if np.count_nonzero(mask) >= 2:
        lx = np.log(grid[mask])
        ly = np.log(noise_term[mask])
        upper = lx >= np.median(lx)
        slope = float(np.polyfit(lx[upper], ly[upper], 1)[0]) if np.count_nonzero(upper) >= 2 else 0.0
        alpha_fit = max(0.0, slope)
    else:
        alpha_fit = 0.0
    with np.errstate(divide="ignore"):
        C_fit = float(np.max(noise_term / (1.0 + grid ** alpha_fit))) if noise_term.size else 0.0

    drift_ok = bool(np.all(np.isfinite(drift_term)))
    noise_ok = bool(np.all(np.isfinite(noise_term))) and alpha_fit < 1.0

    c2 = None
    rate_constant = None
    if b_tilde is not None and b_tilde_prime is not None:
        bt = np.array([float(b_tilde(v)) for v in z])
        btp = np.array([float(b_tilde_prime(v)) for v in z])
        if np.any(bt <= 0):
            raise DomainError("b_tilde must be strictly positive on the grid")
        c2 = max(0.0, float(np.max(-((sz / bt) ** 2) * btp)))
        rate_constant = 1.0 + 0.5 * c2

    speed = rate_constant if rate_constant is not None else b0

    def rate(t, _g=g, _speed=speed, _eps=eps):
        return float(_g((_speed + _eps) * float(t)))

    return Prop5Report(b0=b0, noise_sup=noise_sup, noise_alpha=alpha_fit,
                       noise_C=C_fit, drift_verified=drift_ok,
                       noise_verified=noise_ok, c2=c2,
                       rate_constant=rate_constant, rate=rate)
