"""Monte Carlo validation of escape envelopes and drift comparison.

Envelope-exceedance statistics on path ensembles, the drift-domination
inequality with its exact shared-noise coupling check, and the iterated-
logarithm sanity statistic for Brownian paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, DriftOrderViolated, ExtrapolationError
from .rate_solver import RateFunction
from .sde import PathEnsemble, Sde1D, _shared_noise_run

__all__ = [
    "EnvelopeReport",
    "ComparisonReport",
    "exceedance",
    "comparison_mc",
    "coupled_dominance",
    "lil_statistic",
]


# ---------------------------------------------------------------------------
# Envelope exceedance
# ---------------------------------------------------------------------------

@dataclass
class EnvelopeReport:
    """Exceedance fractions per envelope scale constant.

    fractions[i] is the share of paths whose stored trajectory exceeds the
    envelope t -> rate(C_grid[i] * t) somewhere on [t0, T]. Nonincreasing in
    C by construction on a shared ensemble.
    """

    C_grid: np.ndarray
    fractions: np.ndarray
    t0: float
    T: float
    n_paths: int
    master_seed: int


def _envelope_values(rate, ts: np.ndarray) -> np.ndarray:
    if isinstance(rate, RateFunction):
        lo, hi = rate.domain
        if ts[-1] > hi + 1e-12 or ts[0] < lo - 1e-12:
            raise ExtrapolationError(
                f"envelope needs rate values on [{ts[0]:.6g}, {ts[-1]:.6g}], "
                f"table covers [{lo:.6g}, {hi:.6g}]")
        return np.asarray(rate(ts), dtype=float)
    return np.array([float(rate(t)) for t in ts])


def exceedance(ens: PathEnsemble, rate: Union[RateFunction, Callable],
               C_grid: Sequence[float], t0: float) -> EnvelopeReport:
    """Fraction of paths above the envelope rate(C t) anywhere on [t0, T].

    ``rate`` is a RateFunction table or any callable (useful sentinels:
    constant 0 or +inf).
    """
    C_grid = np.asarray(C_grid, dtype=float)
    if np.any(C_grid <= 0):
        raise DomainError("scale constants must be positive")
    if t0 >= ens.times[-1]:
        raise DomainError(f"burn-in t0={t0} at or beyond horizon {ens.times[-1]}")
    window = ens.times >= t0
    ts = ens.times[window]
    vals = ens.values[:, window]
    fractions = np.empty(C_grid.size)
    for i, C in enumerate(C_grid):
        env = _envelope_values(rate, C * ts)
        fractions[i] = float(np.mean(np.any(vals > env[None, :], axis=1)))
    return EnvelopeReport(C_grid=C_grid, fractions=fractions, t0=float(t0),
                          T=float(ens.times[-1]), n_paths=ens.n_paths,
                          master_seed=ens.master_seed)


# ---------------------------------------------------------------------------
# Lean observers of the Euler kernel (no path storage)
# ---------------------------------------------------------------------------

def _terminal_run(sde: Sde1D, x0: float, T: float, dt: float, n_paths: int,
                  seed: int, barrier: float):
    """Terminal states and barrier-exit flags of n_paths chains on the
    chunk-keyed noise of sde._shared_noise_run; a path has exited when it was
    above the barrier after some step."""
    peak = np.full(n_paths, -np.inf)
    (x,) = _shared_noise_run([sde], x0, T, dt, n_paths, seed,
                             lambda step, s: np.maximum(peak, s[0], out=peak))
    return x, peak > barrier


def _coupled_run(low: Sde1D, high: Sde1D, x0: float, T: float, dt: float,
                 n_paths: int, seed: int) -> float:
    """Fraction of shared-noise pairs with x_low <= x_high at every step."""
    ordered = np.ones(n_paths, dtype=bool)
    below = np.empty_like(ordered)

    def observe(step, states):
        np.less_equal(states[0], states[1], out=below)
        np.logical_and(ordered, below, out=ordered)

    _shared_noise_run([low, high], x0, T, dt, n_paths, seed, observe)
    return float(np.mean(ordered))


# ---------------------------------------------------------------------------
# Comparison inequality
# ---------------------------------------------------------------------------

@dataclass
class ComparisonReport:
    """Monte Carlo check of drift domination.

    lhs is the dominating-drift process's probability of the event
    {x_t < delta, t < tau_R}; rhs the dominated process's. Domination pushes
    the lhs process away from 0, so lhs <= rhs up to noise; ``violation`` is
    set when lhs exceeds rhs by more than two combined standard errors.
    """

    lhs_estimate: float
    lhs_stderr: float
    rhs_estimate: float
    rhs_stderr: float
    coupled_dominance_fraction: Optional[float]
    violation: bool
    t: float
    delta: float
    R: float
    n_paths: int
    dt: float
    master_seed: int
    seeds: dict = field(default_factory=dict)


def _check_drift_order(low: Sde1D, high: Sde1D, R: float):
    lo = max(low.floor, high.floor)
    grid = np.geomspace(lo, R, 200)
    dl = np.asarray(low.drift(grid), dtype=float)
    dh = np.asarray(high.drift(grid), dtype=float)
    bad = dh < dl
    if np.any(bad):
        r = float(grid[np.argmax(bad)])
        raise DriftOrderViolated(r, f"drift order fails at r={r:.6g}")


def _sub_seeds(master_seed: int, n: int):
    ss = np.random.SeedSequence(master_seed)
    return [int(s) for s in ss.generate_state(n, dtype=np.uint64)]


def comparison_mc(dominating: Sde1D, dominated: Sde1D, r0: float, t: float,
                  delta: float, R: float, N: int, dt: float, master_seed: int,
                  coupling_paths: Optional[int] = None) -> ComparisonReport:
    """Estimate P(x_t < delta, t < tau_R) for both processes on independent
    ensembles and check the domination inequality.

    ``coupling_paths`` sizes the shared-noise ordering check (defaults to N;
    0 skips it — the check is an exact deterministic property, so a smaller
    pair count loses nothing when the monotone-step condition holds).
    """
    if not (0 < delta < R) or not (dominated.floor <= r0 < R):
        raise DomainError("need floor <= r0 < R and 0 < delta < R")
    if N < 1:
        raise DomainError("n_paths must be >= 1")
    _check_drift_order(dominated, dominating, R)
    seed_lhs, seed_rhs, seed_cpl = _sub_seeds(master_seed, 3)

    x_lhs, exited_lhs = _terminal_run(dominating, r0, t, dt, N, seed_lhs, R)
    x_rhs, exited_rhs = _terminal_run(dominated, r0, t, dt, N, seed_rhs, R)

    def estimate(x, exited):
        hit = (~exited) & (x < delta)
        p = float(np.mean(hit))
        return p, math.sqrt(p * (1.0 - p) / x.size)

    lhs, se_l = estimate(x_lhs, exited_lhs)
    rhs, se_r = estimate(x_rhs, exited_rhs)

    frac = None
    n_cpl = N if coupling_paths is None else coupling_paths
    if n_cpl > 0:
        frac = _coupled_run(dominated, dominating, r0, t, dt, n_cpl, seed_cpl)

    violation = lhs > rhs + 2.0 * math.sqrt(se_l ** 2 + se_r ** 2)
    return ComparisonReport(
        lhs_estimate=lhs, lhs_stderr=se_l, rhs_estimate=rhs, rhs_stderr=se_r,
        coupled_dominance_fraction=frac, violation=violation,
        t=float(t), delta=float(delta), R=float(R), n_paths=int(N),
        dt=float(dt), master_seed=int(master_seed),
        seeds={"lhs": seed_lhs, "rhs": seed_rhs, "coupled": seed_cpl})


def coupled_dominance(low: Sde1D, high: Sde1D, x0: float, T: float, dt: float,
                      N: int, master_seed: int) -> float:
    """Fraction of shared-noise path pairs ordered x_low <= x_high at every
    grid time. Equals 1 exactly whenever the drifts are pointwise ordered
    and dt * max Lipschitz bound <= 1 (the Euler step map is then monotone)."""
    if N < 1:
        raise DomainError("n_paths must be >= 1")
    grid_top = x0 + 100.0 * math.sqrt(2.0 * T) + 10.0
    _check_drift_order(low, high, grid_top)
    bounds = [b for b in (low.lipschitz, high.lipschitz) if b is not None]
    if bounds and dt > 1.0 / max(bounds):
        raise DomainError(
            f"dt={dt} violates the monotone-step condition dt <= {1.0 / max(bounds):.6g}")
    return _coupled_run(low, high, x0, T, dt, N, master_seed)


# ---------------------------------------------------------------------------
# Iterated-logarithm statistic
# ---------------------------------------------------------------------------

def lil_statistic(ens: PathEnsemble, t0: float, T: float,
                  eps_grid: Sequence[float]) -> np.ndarray:
    """Per-epsilon fraction of paths with |x_t| > (1+eps) sqrt(2 t log log t)
    at any stored grid time in [t0, T].

    The ensemble must be driftless with unit diffusion (standard Brownian
    paths); fractions are nonincreasing in eps by event nesting.
    """
    if t0 <= math.e:
        raise DomainError(f"t0={t0} must exceed e so log log t0 > 0")
    eps_grid = np.asarray(eps_grid, dtype=float)
    window = (ens.times >= t0) & (ens.times <= T)
    if not np.any(window):
        raise DomainError("no stored grid times inside the window")
    ts = ens.times[window]
    vals = np.abs(ens.values[:, window])
    base = np.sqrt(2.0 * ts * np.log(np.log(ts)))
    fractions = np.empty(eps_grid.size)
    for i, eps in enumerate(eps_grid):
        env = (1.0 + eps) * base
        fractions[i] = float(np.mean(np.any(vals > env[None, :], axis=1)))
    return fractions
