"""Monte Carlo validation of escape envelopes and drift comparison.

Envelope-exceedance fractions, the drift-domination inequality with its
exact shared-noise coupling check, and the iterated-logarithm sanity
statistic for reflected Brownian paths. Every statistic is reduced as the
Euler kernel steps, in memory linear in the number of paths; the exceedance
fractions can also be read off a stored ``PathEnsemble``, through the same
reducer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, DriftOrderViolated, ExtrapolationError
from .rate_solver import RateFunction
from .sde import (IsotropicNd, PathEnsemble, Sde1D, _shared_noise_run,
                  _stored_steps)

__all__ = [
    "EnvelopeReport",
    "ComparisonReport",
    "exceedance",
    "exceedance_mc",
    "comparison_mc",
    "coupled_dominance",
    "lil_statistic",
    "lil_mc",
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


class _Exceedance:
    """One flag row per envelope level: flags[i, p] is set once path p has
    been above env[i, j] at some window column j fed so far."""

    def __init__(self, env: np.ndarray, n_paths: int):
        self.env = env
        self.flags = np.zeros((env.shape[0], n_paths), dtype=bool)

    def feed(self, j: int, x: np.ndarray):
        np.logical_or(self.flags, x > self.env[:, j, None], out=self.flags)

    def fractions(self) -> np.ndarray:
        return self.flags.mean(axis=1)


def _stored_fractions(ens: PathEnsemble, window: np.ndarray,
                      env: np.ndarray) -> np.ndarray:
    """Exceedance fractions of a stored ensemble's window columns."""
    flags = _Exceedance(env, ens.n_paths)
    for j, col in enumerate(np.flatnonzero(window)):
        flags.feed(j, ens.values[:, col])
    return flags.fractions()


def _streamed_fractions(sde: Sde1D | IsotropicNd, x0: float, T: float, dt: float,
                        n_paths: int, seed: int, steps: np.ndarray,
                        env: np.ndarray) -> np.ndarray:
    """Exceedance fractions of the chains ``ensemble`` would store, fed to
    the reducer as the kernel steps: ``steps`` are the window's stored steps,
    column j of ``env`` belongs to steps[j]."""
    flags = _Exceedance(env, n_paths)
    column = {step: j for j, step in enumerate(steps.tolist())}
    if 0 in column:
        flags.feed(column[0], np.full(n_paths, float(x0)))

    def observe(step, states):
        j = column.get(step)
        if j is not None:
            flags.feed(j, states[0])

    _shared_noise_run([sde], x0, T, dt, n_paths, seed, observe)
    return flags.fractions()


def _envelope_values(rate, ts: np.ndarray) -> np.ndarray:
    if isinstance(rate, RateFunction):
        lo, hi = rate.domain
        if ts[-1] > hi + 1e-12 or ts[0] < lo - 1e-12:
            raise ExtrapolationError(
                f"envelope needs rate values on [{ts[0]:.6g}, {ts[-1]:.6g}], "
                f"table covers [{lo:.6g}, {hi:.6g}]")
        return np.asarray(rate(ts), dtype=float)
    return np.array([float(rate(t)) for t in ts])


def _envelope_rows(times: np.ndarray, rate, C_grid: np.ndarray, t0: float):
    """Window of the stored times on [t0, T] and the envelope rows
    rate(C * t) on it, one per C."""
    if np.any(C_grid <= 0):
        raise DomainError("scale constants must be positive")
    if t0 >= times[-1]:
        raise DomainError(f"burn-in t0={t0} at or beyond horizon {times[-1]}")
    window = times >= t0
    ts = times[window]
    env = np.empty((C_grid.size, ts.size))
    for i, C in enumerate(C_grid):
        env[i] = _envelope_values(rate, C * ts)
    return window, env


def exceedance(ens: PathEnsemble, rate: Union[RateFunction, Callable],
               C_grid: Sequence[float], t0: float) -> EnvelopeReport:
    """Fraction of paths above the envelope rate(C t) at some stored time
    in [t0, T], per C.

    ``rate`` is a RateFunction table or any callable (useful sentinels:
    constant 0 or +inf). A table must cover C t on the window
    (ExtrapolationError otherwise).
    """
    C_grid = np.asarray(C_grid, dtype=float)
    window, env = _envelope_rows(ens.times, rate, C_grid, t0)
    return EnvelopeReport(C_grid=C_grid,
                          fractions=_stored_fractions(ens, window, env),
                          t0=float(t0), T=float(ens.times[-1]),
                          n_paths=ens.n_paths, master_seed=ens.master_seed)


def exceedance_mc(sde: Sde1D | IsotropicNd, x0: float, T: float, dt: float, n_paths: int,
                  master_seed: int, rate: Union[RateFunction, Callable],
                  C_grid: Sequence[float], t0: float,
                  store_every: int = 1) -> EnvelopeReport:
    """``exceedance`` of ``ensemble(sde, x0, T, dt, n_paths, master_seed,
    store_every=store_every)``, equal to it, reduced as the chains step
    without storing them. An IsotropicNd's |X| exceeds rho_tilde^{-1}(psi)
    when rho_tilde(|X|) exceeds psi: pass euclidean_rate(psi, coeff).

    Every argument is checked, and the envelope evaluated, before the first
    step.
    """
    C_grid = np.asarray(C_grid, dtype=float)
    stored = _stored_steps(sde, x0, T, dt, n_paths, store_every)
    times = stored * dt
    window, env = _envelope_rows(times, rate, C_grid, t0)
    fractions = _streamed_fractions(sde, x0, T, dt, n_paths, master_seed,
                                    stored[window], env)
    return EnvelopeReport(C_grid=C_grid, fractions=fractions, t0=float(t0),
                          T=float(times[-1]), n_paths=n_paths,
                          master_seed=master_seed)


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
    grid = np.geomspace(max(low.floor, high.floor), R, 200)
    dl, dh = (np.zeros_like(grid) if s.drift is None else  # None: zero drift
              np.asarray(s.drift(grid), dtype=float) for s in (low, high))
    bad = dh < dl
    if np.any(bad):
        r = float(grid[np.argmax(bad)])
        raise DriftOrderViolated(r, f"drift order fails at r={r:.6g}")


def _check_coupled(a: Sde1D, b: Sde1D):
    # the comparison theorem and the shared-noise coupling need two drifts
    # and one sigma
    if not (isinstance(a, Sde1D) and isinstance(b, Sde1D)):
        raise DomainError("coupled chains need drifts: an IsotropicNd has none")
    if a.sigma != b.sigma:
        raise DomainError(
            f"coupled chains need equal sigma, got {a.sigma} and {b.sigma}")


def _sub_seeds(master_seed: int, n: int):
    ss = np.random.SeedSequence(master_seed)
    return [int(s) for s in ss.generate_state(n, dtype=np.uint64)]


def comparison_mc(dominating: Sde1D, dominated: Sde1D, r0: float, t: float,
                  delta: float, R: float, N: int, dt: float, master_seed: int,
                  coupling_paths: Optional[int] = None) -> ComparisonReport:
    """Estimate P(x_t < delta, t < tau_R) for both processes on independent
    ensembles and check the domination inequality. The two chains must be
    Sde1Ds with one sigma (DomainError otherwise).

    ``coupling_paths`` sizes the shared-noise ordering check (defaults to N;
    0 skips it — the check is an exact deterministic property, so a smaller
    pair count loses nothing when the monotone-step condition holds).
    """
    if not (0 < delta < R) or not (dominated.floor <= r0 < R):
        raise DomainError("need floor <= r0 < R and 0 < delta < R")
    if N < 1:
        raise DomainError("n_paths must be >= 1")
    _check_coupled(dominated, dominating)
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
    grid time. Equals 1 exactly whenever the sigmas are equal, the drifts are
    pointwise ordered and dt * max Lipschitz bound <= 1 (the Euler step map
    is then monotone); unequal sigmas or a chain that is not an Sde1D are a
    DomainError."""
    if N < 1:
        raise DomainError("n_paths must be >= 1")
    _check_coupled(low, high)
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

def _lil_rows(times: np.ndarray, t0: float, T: float, eps_grid):
    """Window of the stored times on [t0, T] and the envelope rows
    (1+eps) sqrt(2 t log log t) on it, one per eps."""
    if t0 <= math.e:
        raise DomainError(f"t0={t0} must exceed e so log log t0 > 0")
    eps_grid = np.asarray(eps_grid, dtype=float)
    window = (times >= t0) & (times <= T)
    if not np.any(window):
        raise DomainError("no stored grid times inside the window")
    ts = times[window]
    base = np.sqrt(2.0 * ts * np.log(np.log(ts)))
    return window, (1.0 + eps_grid[:, None]) * base


def lil_statistic(ens: PathEnsemble, t0: float, T: float,
                  eps_grid: Sequence[float]) -> np.ndarray:
    """Per-epsilon fraction of paths with x_t > (1+eps) sqrt(2 t log log t)
    at some stored grid time in [t0, T].

    The ensemble should be driftless with unit diffusion: a Brownian motion
    clamped at its floor > 0, close in law to the reflected |B_t|, so x_t
    plays the part of |B_t| in the law of the iterated logarithm. Fractions
    are nonincreasing in eps by event nesting.
    """
    window, env = _lil_rows(ens.times, t0, T, eps_grid)
    return _stored_fractions(ens, window, env)


def lil_mc(sde: Sde1D, x0: float, T: float, dt: float, n_paths: int,
           master_seed: int, t0: float, eps_grid: Sequence[float],
           store_every: int = 1) -> np.ndarray:
    """``lil_statistic`` on [t0, horizon] of ``ensemble(sde, x0, T, dt,
    n_paths, master_seed, store_every=store_every)``, equal to it, reduced
    as the chains step without storing them.

    Every argument is checked before the first step.
    """
    stored = _stored_steps(sde, x0, T, dt, n_paths, store_every)
    times = stored * dt
    window, env = _lil_rows(times, t0, times[-1], eps_grid)
    return _streamed_fractions(sde, x0, T, dt, n_paths, master_seed,
                               stored[window], env)
