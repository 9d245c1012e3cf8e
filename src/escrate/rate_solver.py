"""Upper rate functions from volume growth.

Computes the cumulative crossing-time integral phi, inverts it to the escape
envelope psi, converts intrinsic envelopes to Euclidean ones, classifies
conservativeness, and builds the dyadic radius/time scheme with its
per-level crossing-probability bounds.

One helper, _invert_increasing, inverts phi (psi, rate_table) and the
integral of 1/b_tilde (drift_envelope), a whole sorted grid in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy import integrate, optimize

from .errors import (
    DomainError,
    ExtrapolationError,
    FiniteTotalIntegral,
    NonPositiveDenominator,
    QuadratureFailure,
)
from .profiles import (
    CatalogueCase,
    GrowthProfile,
    RadialCoefficient,
    profile_from_radial,
    rho_tilde_inverse,
)

# The proof of the volume-growth theorem yields this envelope time constant.
PROOF_SCALE_C = 512.0

# Default lower endpoint of the rate integral.
PAPER_LOWER_LIMIT = 2.0

# Denominator must exceed this before integration may start.
DENOMINATOR_FLOOR = 1e-6

# Largest radius an inversion doubles past: phi's integrand r*r overflows a
# float beyond about 1.3e154.
_REPRESENTABLE = 1e150

__all__ = [
    "PROOF_SCALE_C",
    "RateFunction",
    "DyadicScheme",
    "Verdict",
    "phi",
    "psi",
    "effective_lower_limit",
    "rate_table",
    "euclidean_rate",
    "conservativeness",
    "dyadic_scheme",
    "drift_envelope",
    "catalogue_numeric_rate",
]


# ---------------------------------------------------------------------------
# phi and its inverse
# ---------------------------------------------------------------------------

def _denominator(profile: GrowthProfile, r: float) -> float:
    if r <= 1.0:
        raise NonPositiveDenominator(r, f"log log r undefined at r={r}")
    return float(profile.lam(r)) * (float(profile.V(r)) + math.log(math.log(r)))


def phi(profile: GrowthProfile, R: float, r_lo: float = PAPER_LOWER_LIMIT) -> float:
    """Crossing-time integral of r / (lambda(r) (V(r) + log log r)) over [r_lo, R].

    Integrated in log-radius so that envelopes spanning many decades stay
    cheap; strictly increasing in R; phi(profile, r_lo, r_lo) = 0.
    """
    R = float(R)
    r_lo = float(r_lo)
    if R < r_lo:
        raise DomainError(f"R={R} below lower limit {r_lo}")
    if R == r_lo:
        return 0.0
    if R > profile.r_max:
        raise DomainError(f"R={R} beyond profile domain r_max={profile.r_max}")

    def integrand(u):
        r = math.exp(u)
        den = _denominator(profile, r)
        if den <= 0.0:
            raise NonPositiveDenominator(r)
        return r * r / den

    value, err = integrate.quad(integrand, math.log(r_lo), math.log(R),
                                epsrel=1e-9, epsabs=0.0, limit=400)
    if not np.isfinite(value) or (value > 0 and err > 1e-6 * value):
        raise QuadratureFailure(
            f"phi on [{r_lo}, {R}]: estimate {value}, error {err}")
    return value


def effective_lower_limit(profile: GrowthProfile,
                          start: float = PAPER_LOWER_LIMIT) -> float:
    """Smallest scanned radius >= start where the rate denominator exceeds the
    positivity floor. Upper rate functions are insensitive to the constant
    time shift this introduces."""
    r = float(start)
    cap = min(profile.r_max, 1e12)
    if cap <= r:
        raise FiniteTotalIntegral(
            f"profile domain ends at r_max={profile.r_max:.6g}, at or below "
            f"the lower limit {start:.6g}: the crossing-time integral is empty")
    while r < cap:
        try:
            if _denominator(profile, r) > DENOMINATOR_FLOOR:
                return r
        except NonPositiveDenominator:
            pass
        r *= 1.02
    raise FiniteTotalIntegral(
        f"no radius in [{start}, {cap:.4g}] with positive rate denominator")


def _invert_increasing(piece: Callable, start: float, first_hi: float,
                       targets, cap: float, what: str) -> np.ndarray:
    """The x with F(x) = t for each of the nondecreasing targets t, where
    F(x) = piece(start, x) is an increasing integral; start for t = 0.

    One pass: the segments [start, first_hi], [first_hi, 2 first_hi], ... are
    integrated once each by piece(lo, hi) while F(lo) is carried, and each
    target gets one Brent solve of F(lo) + piece(lo, x) = t inside the
    segment that holds it. FiniteTotalIntegral when F stays below a target at
    the cap, after a doubling that adds under 1e-13 F, or beyond 1e150.
    """
    targets = [float(t) for t in targets]
    if targets and targets[0] < 0:
        raise DomainError("t must be nonnegative")
    top = cap * (1.0 - 1e-13)
    roots = np.full(len(targets), float(start))
    lo = hi = start
    F_lo = F_hi = 0.0
    for i, t in enumerate(targets):
        while F_hi < t:
            if hi >= top:
                raise FiniteTotalIntegral(
                    f"{what} bounded by {F_hi:.6g} on the domain, below t={t:.6g}")
            if hi > _REPRESENTABLE:
                raise FiniteTotalIntegral(
                    f"envelope radius for t={t:.6g} not representable "
                    f"({what} = {F_hi:.6g} at {hi:.6g})")
            lo, F_lo = hi, F_hi
            hi = min(max(2.0 * lo, first_hi), top)
            step = piece(lo, hi)
            F_hi = F_lo + step
            if step < 1e-13 * max(F_hi, 1.0) and F_hi < t:
                raise FiniteTotalIntegral(
                    f"{what} numerically bounded by {F_hi:.6g} < t={t:.6g}")
        if t > 0.0:
            roots[i] = optimize.brentq(lambda x: F_lo + piece(lo, x) - t, lo, hi,
                                       rtol=1e-10, xtol=1e-300, maxiter=200)
    return roots


def psi(profile: GrowthProfile, t: float, r_lo: float = PAPER_LOWER_LIMIT) -> float:
    """The radius R with phi(profile, R, r_lo) = t.

    One target of the doubling-then-Brent inversion that rate_table runs
    over a whole grid; monotone in t and psi(profile, 0) = r_lo. Raises
    FiniteTotalIntegral when phi converges to a finite limit below t
    (non-conservative regime) or the required radius is not representable.
    """
    r_lo = float(r_lo)
    return float(_invert_increasing(lambda a, b: phi(profile, b, a), r_lo,
                                    2.0 * r_lo, [t], profile.r_max, "phi")[0])


# ---------------------------------------------------------------------------
# Sampled rate functions
# ---------------------------------------------------------------------------

@dataclass
class RateFunction:
    """A strictly increasing envelope t -> psi(scale_c * t), as a sample table.

    Evaluation between samples is monotone (linear) interpolation;
    extrapolation beyond the sampled range raises ExtrapolationError.
    """

    times: np.ndarray
    values: np.ndarray
    r_star: float
    shift_note: str = ""
    scale_c: float = 1.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.size != self.values.size or self.times.size == 0:
            raise DomainError("rate table needs matching nonempty samples")
        if np.any(np.diff(self.times) <= 0) or np.any(np.diff(self.values) < 0):
            raise DomainError("rate table samples must be increasing")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < self.times[0] - 1e-12) or np.any(t > self.times[-1] + 1e-12):
            raise ExtrapolationError(
                f"evaluation outside sampled range [{self.times[0]:.6g}, {self.times[-1]:.6g}]")
        out = np.interp(t, self.times, self.values)
        return float(out) if out.ndim == 0 else out

    @property
    def domain(self):
        return float(self.times[0]), float(self.times[-1])


def rate_table(profile: GrowthProfile, t_grid, scale_c: float = PROOF_SCALE_C,
               r_lo: Optional[float] = None) -> RateFunction:
    """Sample t -> psi(scale_c * t) on the given increasing time grid, in one
    pass: each doubling segment of phi is integrated once for all rows."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or np.any(np.diff(t_grid) <= 0):
        raise DomainError("t_grid must be nonempty and strictly increasing")
    if scale_c <= 0:
        raise DomainError("scale_c must be positive")
    if r_lo is None:
        r_lo = effective_lower_limit(profile)
        note = ("" if r_lo == PAPER_LOWER_LIMIT else
                f"lower limit shifted from {PAPER_LOWER_LIMIT} to {r_lo:.6g} "
                "to keep the denominator positive")
    else:
        note = "" if r_lo == PAPER_LOWER_LIMIT else f"caller-supplied lower limit {r_lo:.6g}"
    values = _invert_increasing(lambda a, b: phi(profile, b, a), float(r_lo),
                                2.0 * r_lo, scale_c * t_grid, profile.r_max, "phi")
    return RateFunction(t_grid, values, r_star=float(r_lo), shift_note=note,
                        scale_c=float(scale_c))


def euclidean_rate(rate: RateFunction, coeff: RadialCoefficient) -> RateFunction:
    """Convert an intrinsic-radius envelope to Euclidean radius via the
    inverse intrinsic transform."""
    values = rho_tilde_inverse(coeff, rate.values)
    return RateFunction(rate.times.copy(), values, r_star=rate.r_star,
                        shift_note=rate.shift_note, scale_c=rate.scale_c)


# ---------------------------------------------------------------------------
# Conservativeness
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    """Conservativeness classification.

    ``kind`` is one of Conservative / NonConservative / Inconclusive.
    Heuristic (profile-based) answers are always Inconclusive, with a
    ``leaning`` and the dyadic increment sequence in ``report``.
    """

    kind: str
    leaning: Optional[str] = None
    report: Optional[dict] = None

    def __str__(self):
        return self.kind


def _family_verdict(family: str, param) -> Optional[Verdict]:
    if family == "constant":
        return Verdict("Conservative")
    if family == "power":
        return Verdict("Conservative" if param <= 2.0 else "NonConservative")
    if family == "squared_log":
        return Verdict("Conservative" if param <= 1.0 else "NonConservative")
    return None


def conservativeness(obj: Union[RadialCoefficient, CatalogueCase, GrowthProfile],
                     k_max: int = 40) -> Verdict:
    """Classify conservativeness.

    Known coefficient families and catalogue cases get a symbolic verdict.
    Arbitrary profiles get a numeric heuristic over dyadic shells, always
    wrapped as Inconclusive with a leaning: divergence is not decidable
    numerically.
    """
    if isinstance(obj, RadialCoefficient):
        v = _family_verdict(obj.family, obj.param)
        if v is not None:
            return v
        # tabulated: fall through to the heuristic on its Euclidean profile
        obj = profile_from_radial(obj, 1, "coefficient_energy")
    if isinstance(obj, CatalogueCase):
        # catalogue parameter ranges are exactly the conservative ones
        return Verdict("Conservative")
    if not isinstance(obj, GrowthProfile):
        raise DomainError(f"cannot classify {type(obj).__name__}")

    profile = obj
    r_lo = effective_lower_limit(profile)
    increments = []
    lo = r_lo
    total = 0.0
    for k in range(k_max):
        hi = min(2.0 * lo, profile.r_max)
        if hi <= lo:
            break
        try:
            inc = phi(profile, hi, lo)
        except (NonPositiveDenominator, QuadratureFailure):
            break
        increments.append(inc)
        total += inc
        lo = hi
        if hi >= profile.r_max:
            break
    increments = np.array(increments)
    report = {"increments": increments, "total": total, "r_star": r_lo}
    if math.isfinite(profile.r_max) and lo >= profile.r_max:
        # whole domain covered: total crossing time is finite
        return Verdict("Inconclusive", leaning="NonConservative", report=report)
    if increments.size >= 5:
        ratios = increments[-4:] / increments[-5:-1]
        if np.all(ratios >= 0.9):
            # increments level off or grow: partial sums look divergent
            return Verdict("Inconclusive", leaning="Conservative", report=report)
        if np.all(ratios <= 0.75):
            # geometric decay: tail looks summable
            return Verdict("Inconclusive", leaning="NonConservative", report=report)
    return Verdict("Inconclusive", leaning=None, report=report)


# ---------------------------------------------------------------------------
# Dyadic scheme
# ---------------------------------------------------------------------------

@dataclass
class DyadicScheme:
    """Doubling radii R_n = 2^n c with crossing times and probability bounds.

    ``bound`` is the per-level Borel-Cantelli summand from the proof (the
    simplified crossing-probability bound whose n-th term behaves like
    (n log 2 + log c)^{-2}); ``lemma_rhs`` is the sharper per-level bound
    before the simplifications, kept for reference. ``slack`` is
    T_n - phi(2^{n+1} c)/256, nonnegative by the proof's Riemann-sum bound.
    """

    c: float
    mu_b1: float
    R: np.ndarray
    r: np.ndarray
    t: np.ndarray
    T: np.ndarray
    bound: np.ndarray
    lemma_rhs: np.ndarray
    partial_sums: np.ndarray
    slack: np.ndarray


def dyadic_scheme(profile: GrowthProfile, c: float, N: int,
                  mu_b1: Optional[float] = None) -> DyadicScheme:
    """Build the dyadic radius/time scheme for the given profile.

    Level n has R_n = 2^n c, r_n = R_n - R_{n-1},
    t_n = r_n^2 / (32 lambda(R_n) (V(R_n) + log log R_n)), cumulative
    T_n, the Borel-Cantelli summand, and the slack of the
    T_n >= phi(2^{n+1} c)/256 lower bound. mu_b1 defaults to exp(V(2c)).
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    c = float(c)
    if mu_b1 is None:
        mu_b1 = math.exp(float(profile.V(2.0 * c)))
    if mu_b1 <= 0:
        raise DomainError("mu_b1 must be positive")

    ns = np.arange(1, N + 1)
    R = (2.0 ** ns) * c
    r = np.diff(np.concatenate([[0.0], R]))
    t = np.empty(N)
    bound = np.empty(N)
    lemma_rhs = np.empty(N)
    T_run = 0.0
    T = np.empty(N)
    log_mu_b1 = math.log(mu_b1)
    pref = 2.0 / math.sqrt(2.0 * math.pi)
    lemma_pref = 16.0 / math.sqrt(2.0 * math.pi)

    for i, n in enumerate(ns):
        Rn, rn = R[i], r[i]
        lam = float(profile.lam(Rn))
        Vn = float(profile.V(Rn))
        loglog = math.log(math.log(Rn))
        den = Vn + loglog
        if den <= 0:
            raise NonPositiveDenominator(Rn, f"V + log log <= 0 at level {n}")
        t[i] = rn * rn / (32.0 * lam * den)
        T_run += t[i]
        T[i] = T_run
        # proof's per-level Borel-Cantelli summand
        bound[i] = pref / mu_b1 / den * (Rn / rn) * math.exp(-2.0 * loglog)
        # sharper pre-simplification bound, evaluated in logs
        log_rhs = (math.log(lemma_pref) + Vn - log_mu_b1
                   + math.log(T_run) + 0.5 * math.log(lam)
                   - 0.5 * math.log(t[i]) - math.log(rn)
                   - rn * rn / (8.0 * lam * t[i]))
        lemma_rhs[i] = math.exp(log_rhs) if log_rhs > -745 else 0.0

    slack = np.array([T[i] - phi(profile, (2.0 ** (n + 1)) * c, 2.0 * c) / 256.0
                      for i, n in enumerate(ns)])
    return DyadicScheme(c=c, mu_b1=float(mu_b1), R=R, r=r, t=t, T=T,
                        bound=bound, lemma_rhs=lemma_rhs,
                        partial_sums=np.cumsum(bound), slack=slack)


# ---------------------------------------------------------------------------
# Drift-majorant envelopes (one-dimensional Ito route)
# ---------------------------------------------------------------------------

def drift_envelope(b_tilde: Callable, t: float) -> float:
    """The g(t) with t = integral of 1/b_tilde over [0, g(t)].

    b_tilde must be positive with 1/b_tilde integrable at 0 (extend the
    majorant below some fixed radius as a constant if necessary). Inverted
    like psi: 1/b_tilde is integrated over [0, 1] and then once per doubling
    segment, and the root is found inside the segment that holds t.
    """
    def piece(a, b):
        value, _ = integrate.quad(lambda x: 1.0 / float(b_tilde(x)), a, b,
                                  epsrel=1e-11, epsabs=0.0, limit=400)
        if not np.isfinite(value):
            raise QuadratureFailure(f"1/b_tilde integral diverged on [{a}, {b}]")
        return value

    return float(_invert_increasing(piece, 0.0, 1.0, [t], math.inf,
                                    "1/b_tilde integral")[0])


# ---------------------------------------------------------------------------
# Numeric reproduction of the catalogue
# ---------------------------------------------------------------------------

# Dimension used when reproducing each catalogue case numerically. The
# closed forms suppress dimension-dependent constants; these choices keep
# those constants small enough that finite-time exponent comparisons are
# meaningful at desk scale.
_NUMERIC_DIM = {"diri1": 1, "diri2": 1, "diri3": 1, "diri3_exp": 3}


def catalogue_profile(case: CatalogueCase) -> GrowthProfile:
    """Intrinsic-metric growth profile whose envelope reproduces a volume-route
    catalogue case."""
    if case.kind == "diri1":
        coeff = RadialCoefficient.constant()
        n = _NUMERIC_DIM["diri1"]
    elif case.kind == "diri2":
        coeff = RadialCoefficient.power(case.alpha)
        n = _NUMERIC_DIM["diri2"]
    elif case.kind == "diri3":
        coeff = RadialCoefficient.squared_log(case.beta)
        n = _NUMERIC_DIM["diri3_exp" if case.beta == 1.0 else "diri3"]
    else:
        raise DomainError(f"case {case.kind!r} has no volume-route profile")
    return profile_from_radial(coeff, n, "unit_energy")


def catalogue_drift_majorant(case: CatalogueCase) -> Callable:
    """Dominating drift b_tilde for comparison-route catalogue cases, extended
    as a constant below radius 1 so 1/b_tilde is integrable at the origin."""
    k = case.kind
    if k in ("geo1", "geo2"):
        return lambda x: 1.0 / max(float(x), 1.0)
    if k == "geo3":
        p = case.beta / (2.0 - case.beta)
        return lambda x: max(float(x), 1.0) ** p
    if k == "g_alpha":
        a = case.alpha
        return lambda x: max(float(x), 1.0) ** a
    if k == "hyperbolic_linear":
        sk = math.sqrt(case.K)
        base = (case.n - 1) * sk
        return lambda x: base * (1.0 + 1.0 / (sk * max(float(x), 1.0)))
    raise DomainError(f"case {k!r} has no drift majorant")


def catalogue_numeric_rate(case: CatalogueCase, t: float) -> float:
    """Numeric envelope for a catalogue case, by the route the case comes
    from: volume-growth inversion for the diri cases, drift-majorant
    inversion for the geo / g_alpha / hyperbolic cases."""
    if case.kind.startswith("diri"):
        profile = catalogue_profile(case)
        r_lo = effective_lower_limit(profile)
        return psi(profile, float(t), r_lo)
    return drift_envelope(catalogue_drift_majorant(case), float(t))
