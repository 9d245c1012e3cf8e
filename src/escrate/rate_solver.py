"""Upper rate functions from volume growth.

Computes the cumulative crossing-time integral phi, inverts it to the escape
envelope psi, converts intrinsic envelopes to Euclidean ones, classifies
conservativeness, and builds the dyadic radius/time scheme with its
per-level crossing-probability bounds.

phi is integrated over doubling shells [R, 2R]: the inversion walks them one
at a time up to its targets; conservativeness and the dyadic slack integrate
theirs in one lockstep call.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from ._numerics import brentq, quad
from .basics import PROOF_SCALE_C, _check_count, family_verdict
from .errors import (
    DomainError,
    ExtrapolationError,
    FiniteTotalIntegral,
    NonPositiveDenominator,
)
from .profiles import (
    CatalogueCase,
    GrowthProfile,
    RadialCoefficient,
    profile_from_radial,
    rho_tilde_inverse,
)

# Default lower endpoint of the rate integral.
PAPER_LOWER_LIMIT = 2.0

# Denominator must exceed this before integration may start.
DENOMINATOR_FLOOR = 1e-6

# Relative tolerance of phi's quadrature.
_PHI_EPSREL = 1e-9

# Largest radius a doubling walk starts a shell from: phi's integrand r*r
# overflows a float beyond about 1.3e154.
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

def _loglog(r: np.ndarray) -> np.ndarray:
    """log log r; NonPositiveDenominator at the first radius r <= 1."""
    if (r <= 1.0).any():
        bad = float(r.flat[np.argmax(r <= 1.0)])
        raise NonPositiveDenominator(bad, f"log log r undefined at r={bad}")
    return np.log(np.log(r))


def _denominator(profile: GrowthProfile, r):
    """lambda(r) (V(r) + log log r) at a radius or an array of radii."""
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):  # past float range: inf, as phi reads it
        return profile.lam(r) * (profile.V(r) + _loglog(r))


def _check_r_lo(r_lo) -> float:
    """r_lo as a float; DomainError unless it is positive (phi integrates in
    log r)."""
    r_lo = float(r_lo)
    if not r_lo > 0:
        raise DomainError(f"lower limit r_lo={r_lo:.6g} must be positive")
    return r_lo


def phi(profile: GrowthProfile, R: float, r_lo: float = PAPER_LOWER_LIMIT) -> float:
    """Crossing-time integral of r / (lambda(r) (V(r) + log log r)) over [r_lo, R].

    Integrated in log-radius so that envelopes spanning many decades stay
    cheap, with a break at each of the profile's knots inside (r_lo, R);
    strictly increasing in R; phi(profile, r_lo, r_lo) = 0. An r_lo <= 0 or
    an R that is not finite is a DomainError.
    """
    r_lo = _check_r_lo(r_lo)
    R = float(R)
    if not math.isfinite(R):
        raise DomainError(f"R={R} must be finite")
    if R < r_lo:
        raise DomainError(f"R={R} below lower limit {r_lo}")
    if R == r_lo:
        return 0.0
    if R > profile.r_max:
        raise DomainError(f"R={R} beyond profile domain r_max={profile.r_max}")
    return float(_phi_rows(profile, np.array([r_lo]), np.array([R]))[0])


def _phi_rows(profile: GrowthProfile, r_lo: np.ndarray, R: np.ndarray) -> np.ndarray:
    """phi(profile, R[i], r_lo[i]) for each row, r_lo[i] <= R[i] <= r_max,
    in one lockstep quadrature, with phi's errors."""
    def integrand(us):
        r = np.exp(us)
        den = _denominator(profile, r)
        if (den <= 0.0).any():
            raise NonPositiveDenominator(float(r.flat[np.argmax(den <= 0.0)]))
        with np.errstate(over="ignore"):   # r*r past float range: inf
            return r * r / den

    knots = profile.knots
    breaks = () if knots is None else np.log(knots[knots > 0.0])
    # math.log on the ends: np.log may differ in an ulp
    ends = [np.array([math.log(v) for v in x.tolist()]) for x in (r_lo, R)]
    return quad(integrand, *ends, epsrel=_PHI_EPSREL, limit=400,
                label=lambda i: f"phi on [{r_lo[i]}, {R[i]}]", points=breaks)


def effective_lower_limit(profile: GrowthProfile) -> float:
    """Smallest scanned radius >= PAPER_LOWER_LIMIT where the rate
    denominator exceeds the positivity floor. Upper rate functions are
    insensitive to the constant time shift this introduces."""
    r = PAPER_LOWER_LIMIT
    cap = min(profile.r_max, 1e12)
    if cap <= r:
        raise FiniteTotalIntegral(
            f"profile domain ends at r_max={profile.r_max:.6g}, at or below "
            f"the lower limit {r:.6g}: the crossing-time integral is empty")
    while r < cap:  # log log r is defined from r = 2 on
        if _denominator(profile, r) > DENOMINATOR_FLOOR:
            return r
        r *= 1.02
    raise FiniteTotalIntegral(
        f"no radius in [{PAPER_LOWER_LIMIT}, {cap:.4g}] with positive rate denominator")


def _invert_increasing(rows: Callable, start: float, targets, cap: float,
                       what: str, first_hi: float = 0.0) -> np.ndarray:
    """The x with F(x) = t for each of the nondecreasing targets t, where
    F(x) = F(lo) + rows(lo, x) is an increasing integral from start, and
    rows(lo, x) integrates over each row [lo_i, x_i]; start for t = 0.

    Walking the shells [start, max(2 start, first_hi)], [hi, 2 hi], ...,
    capped at cap (1 - 1e-13), finds the shell [lo, hi] of each target.
    Then one lockstep Brent solve of F(lo) + rows(lo, x) = t takes every
    row with t > 0, handed the known end values F(lo) - t and F(hi) - t.
    FiniteTotalIntegral when F stays below a target at the cap, after a
    doubling that adds under 1e-13 F, or beyond 1e150. When the walk fails
    at a row, the rows before it are solved first, and their error comes first.
    """
    targets = np.array([float(t) for t in targets])
    if not (targets >= 0.0).all():  # a NaN target too
        raise DomainError("t must be nonnegative")
    top = cap * (1.0 - 1e-13)
    roots = np.full(targets.size, float(start))
    hi, F_hi = start, 0.0
    brackets, walk_error = [], None
    try:
        for i, t in enumerate(targets.tolist()):
            while F_hi < t:
                if hi >= top or hi > _REPRESENTABLE:
                    raise FiniteTotalIntegral(
                        f"{what} bounded by {F_hi:.6g} on the domain, below "
                        f"t={t:.6g}" if hi >= top else f"envelope radius for "
                        f"t={t:.6g} not representable ({what} = {F_hi:.6g} at "
                        f"{hi:.6g})")
                lo, F_lo = hi, F_hi
                hi = min(max(2.0 * lo, first_hi), top)
                step = float(rows(np.array([lo]), np.array([hi]))[0])
                F_hi = F_lo + step
                if step < 1e-13 * max(F_hi, 1.0) and F_hi < t:
                    raise FiniteTotalIntegral(
                        f"{what} numerically bounded by {F_hi:.6g} < t={t:.6g}")
            if t > 0.0:
                brackets.append((i, lo, hi, F_lo, F_hi))
    except Exception as error:  # raised once the rows before it are solved
        walk_error = error
    if brackets:
        i, lo, hi, F_lo, F_hi = (np.array(v) for v in zip(*brackets))
        t = targets[i]
        roots[i] = brentq(lambda k, x: F_lo[k] + rows(lo[k], x) - t[k],
                          lo, hi, rtol=1e-10, xtol=1e-300, maxiter=200,
                          fa=F_lo - t, fb=F_hi - t)
    if walk_error is not None:
        raise walk_error
    return roots


def _invert_phi(profile: GrowthProfile, r_lo: float, targets) -> np.ndarray:
    """The radii R with phi(profile, R, r_lo) = t for the nondecreasing
    targets t; an r_lo <= 0 is a DomainError."""
    return _invert_increasing(lambda a, b: _phi_rows(profile, a, b),
                              _check_r_lo(r_lo), targets, profile.r_max, "phi")


def psi(profile: GrowthProfile, t: float, r_lo: float = PAPER_LOWER_LIMIT) -> float:
    """The radius R with phi(profile, R, r_lo) = t.

    One target of the doubling-then-Brent inversion that rate_table runs
    over a whole grid; monotone in t and psi(profile, 0) = r_lo. Raises
    FiniteTotalIntegral when phi converges to a finite limit below t
    (non-conservative regime) or the required radius is not representable.
    """
    return float(_invert_phi(profile, r_lo, [t])[0])


# ---------------------------------------------------------------------------
# Sampled rate functions
# ---------------------------------------------------------------------------

class RateFunction:
    """A strictly increasing envelope t -> psi(C t), as a sample table
    (``rate_table`` takes the time constant C as scale_c).

    Evaluation between samples is monotone (linear) interpolation;
    extrapolation beyond the sampled range, or at a NaN t, raises
    ExtrapolationError. A NaN sample is a DomainError; an infinite value
    is a sample.
    """

    def __init__(self, times, values, r_star: float, shift_note: str = ""):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.r_star = r_star
        self.shift_note = shift_note
        if self.times.size != self.values.size or self.times.size == 0:
            raise DomainError("rate table needs matching nonempty samples")
        if np.isnan(self.times).any() or np.isnan(self.values).any():
            raise DomainError("rate table samples must not be NaN")
        # neighbours compared, not subtracted: inf - inf is nan (and a warning)
        if (np.any(self.times[1:] <= self.times[:-1])
                or np.any(self.values[1:] < self.values[:-1])):
            raise DomainError("rate table samples must be increasing")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if not (np.all(t >= self.times[0] - 1e-12)   # NaN too
                and np.all(t <= self.times[-1] + 1e-12)):
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
    pass: each doubling segment of phi is integrated once for all rows, and
    one lockstep Brent solve takes every row, each as psi of its target."""
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
    with np.errstate(over="ignore"):  # a target past float range is inf
        targets = scale_c * t_grid
    values = _invert_phi(profile, r_lo, targets)
    return RateFunction(t_grid, values, r_star=float(r_lo), shift_note=note)


def euclidean_rate(rate: RateFunction, coeff: RadialCoefficient) -> RateFunction:
    """Convert an intrinsic-radius envelope to Euclidean radius via the
    inverse intrinsic transform."""
    values = rho_tilde_inverse(coeff, rate.values)
    return RateFunction(rate.times.copy(), values, r_star=rate.r_star,
                        shift_note=rate.shift_note)


# ---------------------------------------------------------------------------
# Conservativeness
# ---------------------------------------------------------------------------

class Verdict(NamedTuple):
    """Conservativeness classification.

    ``kind`` is one of Conservative / NonConservative / Inconclusive.
    Heuristic (profile-based) answers are always Inconclusive, with a
    ``leaning`` and the dyadic increment sequence in ``report``.
    """

    kind: str
    leaning: Optional[str] = None
    report: Optional[dict] = None


def conservativeness(
        obj: Union[RadialCoefficient, CatalogueCase, GrowthProfile]) -> Verdict:
    """Classify conservativeness.

    Known coefficient families and catalogue cases get a symbolic verdict.
    Arbitrary profiles get a numeric heuristic over up to 40 dyadic shells
    of phi, integrated in one lockstep call, always wrapped as Inconclusive
    with a leaning: divergence is not decidable numerically. A shell that
    fails raises phi's typed error. The trend of the last increments
    decides, after the rule that a profile whose finite domain is covered
    leans NonConservative; a tabulated coefficient's domain ends with its data.
    """
    table = isinstance(obj, RadialCoefficient)
    if table:
        kind = family_verdict(obj.family, obj.param)
        if kind is not None:
            return Verdict(kind)
        # tabulated: fall through to the heuristic on its Euclidean profile
        obj = profile_from_radial(obj, 1, "coefficient_energy")
    if isinstance(obj, CatalogueCase):
        # catalogue parameter ranges are exactly the conservative ones
        return Verdict("Conservative")
    if not isinstance(obj, GrowthProfile):
        raise DomainError(f"cannot classify {type(obj).__name__}")

    profile = obj
    r_lo = effective_lower_limit(profile)   # at most 1e12: no shell passes 1e150
    lo = r_lo * 2.0 ** np.arange(40)
    lo = lo[lo < profile.r_max]
    hi = np.minimum(2.0 * lo, profile.r_max)
    increments = _phi_rows(profile, lo, hi)
    report = {"increments": increments, "total": float(np.cumsum(increments)[-1]),
              "r_star": r_lo}
    if not table and math.isfinite(profile.r_max) and hi[-1] >= profile.r_max:
        # whole domain covered: total crossing time is finite
        return Verdict("Inconclusive", leaning="NonConservative", report=report)
    if increments.size >= 5:
        last, prev = increments[-4:], increments[-5:-1]
        # a zero increment (V beyond float range) adds nothing: 0/0 reads
        # as decay, and a positive increment after a zero as growth
        ratios = np.divide(last, prev, out=np.where(last > 0, np.inf, 0.0),
                           where=prev > 0)
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

class DyadicScheme(NamedTuple):
    """Doubling radii R_n = 2^n c with crossing times and probability bounds.

    ``bound`` is the per-level Borel-Cantelli summand from the proof (the
    simplified crossing-probability bound whose n-th term behaves like
    (n log 2 + log c)^{-2}); ``lemma_rhs`` is the sharper per-level bound
    before the simplifications, kept for reference. ``slack`` is
    T_n - phi(2^{n+1} c)/256, nonnegative by the proof's Riemann-sum bound.
    """

    mu_b1: float
    R: np.ndarray
    r: np.ndarray
    t: np.ndarray
    T: np.ndarray
    bound: np.ndarray
    lemma_rhs: np.ndarray
    partial_sums: np.ndarray
    slack: np.ndarray


def dyadic_scheme(profile: GrowthProfile, c: float, N: int) -> DyadicScheme:
    """Build the dyadic radius/time scheme for the given profile.

    Level n has R_n = 2^n c, r_n = R_n - R_{n-1},
    t_n = r_n^2 / (32 lambda(R_n) (V(R_n) + log log R_n)), cumulative
    T_n, the Borel-Cantelli summand, and the slack of the
    T_n >= phi(2^{n+1} c)/256 lower bound. The ball measure mu_b1 is
    exp(V(2c)). A c <= 0, a top radius 2^(N+1) c beyond 1e150, or a mu_b1
    that is not a positive float is a DomainError, raised before any level
    is computed; so is a level whose V is not finite or whose lambda is not
    a positive float.
    """
    _check_count(N, "N")
    c = float(c)
    if not c > 0:
        raise DomainError(f"dyadic radius scale c={c:.6g} must be positive")
    # the slack needs phi up to 2^(N+1) c; r_n * r_n overflows soon after
    if N + 1 + math.log2(c) > math.log2(_REPRESENTABLE):
        raise DomainError(f"dyadic radius 2^{N + 1} * {c:.6g} is not "
                          f"representable (above {_REPRESENTABLE:.6g})")
    R = (2.0 ** np.arange(1, N + 1)) * c
    with np.errstate(over="ignore"):  # past float range: inf, refused below
        V_2c = float(profile.V(2.0 * c))
        lam = np.broadcast_to(np.asarray(profile.lam(R), dtype=float), R.shape)
        V = profile.V(R)
    try:
        mu_b1 = math.exp(V_2c)
    except OverflowError:
        mu_b1 = math.inf
    if not 0 < mu_b1 < math.inf:
        raise DomainError(f"ball measure mu_b1 = exp(V({2.0 * c:.6g})) = "
                          f"{mu_b1:.6g} is not a positive float")
    bad = ~(np.isfinite(V) & (lam > 0) & (lam < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"level {i + 1} at R={R[i]:.6g} needs a finite V and "
                          f"a positive finite lambda, got V = {V[i]:.6g}, "
                          f"lambda = {lam[i]:.6g}")

    r = np.diff(np.concatenate([[0.0], R]))
    loglog = _loglog(R)
    den = V + loglog
    if (den <= 0).any():
        i = int(np.argmax(den <= 0))
        raise NonPositiveDenominator(R[i], f"V + log log <= 0 at level {i + 1}")
    t = r * r / (32.0 * lam * den)
    T = np.cumsum(t)
    # proof's per-level Borel-Cantelli summand
    bound = (2.0 / math.sqrt(2.0 * math.pi) / mu_b1 / den * (R / r)
             * np.exp(-2.0 * loglog))
    # sharper pre-simplification bound, evaluated in logs
    log_rhs = (math.log(16.0 / math.sqrt(2.0 * math.pi)) + V - math.log(mu_b1)
               + np.log(T) + 0.5 * np.log(lam) - 0.5 * np.log(t) - np.log(r)
               - r * r / (8.0 * lam * t))
    lemma_rhs = np.exp(np.where(log_rhs > -745, log_rhs, -np.inf))
    # phi(2^(n+1) c, 2c) is the sum of the first n shells [R_n, 2 R_n]; those
    # inside the domain are integrated before the first beyond it is named
    n_in = N - int(np.count_nonzero(2.0 * R > profile.r_max))
    shells = _phi_rows(profile, R[:n_in], 2.0 * R[:n_in])
    if n_in < N:
        raise DomainError(f"R={2.0 * R[n_in]} beyond profile domain r_max={profile.r_max}")
    slack = T - np.cumsum(shells) / 256.0
    return DyadicScheme(mu_b1=float(mu_b1), R=R, r=r, t=t, T=T,
                        bound=bound, lemma_rhs=lemma_rhs,
                        partial_sums=np.cumsum(bound), slack=slack)


# ---------------------------------------------------------------------------
# Drift-majorant envelopes (one-dimensional Ito route)
# ---------------------------------------------------------------------------

def drift_envelope(b_tilde: Callable, t: float) -> float:
    """The g(t) with t = integral of 1/b_tilde over [0, g(t)].

    b_tilde must be positive with 1/b_tilde integrable at 0 (extend the
    majorant below some fixed radius as a constant if necessary); a
    1/b_tilde that is not integrable is a QuadratureFailure. Inverted like
    psi: 1/b_tilde is integrated over [0, 1] and then once per doubling
    segment, and the root is found inside the segment that holds t.
    """
    def integrand(xs):
        return np.reshape([1.0 / float(b_tilde(x)) for x in xs.ravel().tolist()],
                          xs.shape)

    def rows(a, b):
        return quad(integrand, a, b, epsrel=1e-11, limit=400,
                    label=lambda i: f"1/b_tilde integral on [{a[i]}, {b[i]}]")

    return float(_invert_increasing(rows, 0.0, [t], math.inf,
                                    "1/b_tilde integral", first_hi=1.0)[0])


# ---------------------------------------------------------------------------
# Numeric reproduction of the catalogue
# ---------------------------------------------------------------------------

def catalogue_numeric_rate(case: CatalogueCase, t: float) -> float:
    """Numeric envelope for a catalogue case, by the route the case comes
    from: volume-growth inversion of its growth profile, or drift-majorant
    inversion of its dominating drift."""
    if case.profile is not None:
        return psi(case.profile, float(t), effective_lower_limit(case.profile))
    return drift_envelope(case.drift, float(t))
