"""Monte Carlo validation of escape envelopes and drift comparison.

Envelope-exceedance fractions, the drift-domination inequality with its
exact shared-noise coupling check, and the iterated-logarithm sanity
statistic for reflected Brownian paths. Every Monte Carlo statistic is a
loop over the steps the Euler kernel (sde._shared_noise_run) yields, in
memory linear in the number of paths. One reducer, _fractions, gives the
exceedance and LIL fractions from the kernel's states as it steps.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import DomainError, DriftOrderViolated, ExtrapolationError
from .sde import (_STEP_ERRSTATE, IsotropicNd, Sde1D, _check_sim_args,
                  _shared_noise_run, _stored_steps)

if TYPE_CHECKING:
    from .rate_solver import RateFunction

__all__ = [
    "ComparisonReport",
    "exceedance",
    "comparison_mc",
    "coupled_dominance",
    "lil_statistic",
]


# ---------------------------------------------------------------------------
# Envelope exceedance
# ---------------------------------------------------------------------------

def _fractions(env: np.ndarray, n_paths: int, columns) -> np.ndarray:
    """Per-row fraction of paths above env[i, j] at some (j, x) of
    ``columns``, pairs of a window column index j and the paths' values x
    there: the one reducer of exceedance and LIL fractions."""
    flags = np.zeros((env.shape[0], n_paths), dtype=bool)
    for j, x in columns:
        np.logical_or(flags, x > env[:, j, None], out=flags)
    return flags.mean(axis=1)


def _streamed_columns(sde: Sde1D | IsotropicNd, x0: float, T: float, dt: float,
                      n_paths: int, seed: int, steps: np.ndarray):
    """(j, states) of the chains ``ensemble`` would store, as the kernel
    steps, storing nothing: ``steps`` are the window's stored steps, and
    column j belongs to steps[j]."""
    column = {step: j for j, step in enumerate(steps.tolist())}
    if 0 in column:
        yield column[0], np.full(n_paths, float(x0))
    for step, (x,) in _shared_noise_run([sde], x0, T, dt, n_paths, seed):
        if step in column:
            yield column[step], x


def _envelope_values(rate, ts: np.ndarray, C: float) -> np.ndarray:
    # a RateFunction exists only once escrate.rate_solver is loaded
    rate_solver = sys.modules.get(f"{__package__}.rate_solver")
    if rate_solver is not None and isinstance(rate, rate_solver.RateFunction):
        lo, hi = rate.domain
        if ts[-1] > hi + 1e-12 or ts[0] < lo - 1e-12:
            raise ExtrapolationError(
                f"envelope for C={C:.6g} needs rate values on "
                f"[{ts[0]:.6g}, {ts[-1]:.6g}], "
                f"table covers [{lo:.6g}, {hi:.6g}]")
        return np.asarray(rate(ts), dtype=float)
    return np.array([float(rate(t)) for t in ts])


def _envelope_rows(times: np.ndarray, rate, C_grid, t0: float):
    """Window of the stored times on [t0, T] and the envelope rows
    rate(C * t) on it, one per C."""
    C_grid = np.asarray(C_grid, dtype=float)
    if not np.all(C_grid > 0):  # a NaN constant too
        raise DomainError("scale constants must be positive")
    if t0 >= times[-1]:
        raise DomainError(f"burn-in t0={t0} at or beyond horizon {times[-1]}")
    window = times >= t0
    ts = times[window]
    with np.errstate(over="ignore"):  # a C t past float range is inf
        Ct = C_grid[:, None] * ts
    return window, np.array([_envelope_values(rate, row, C)
                             for C, row in zip(C_grid, Ct)])


def exceedance(sde: Sde1D | IsotropicNd, x0: float, T: float, dt: float,
               n_paths: int, master_seed: int,
               rate: Union[RateFunction, Callable], C_grid: Sequence[float],
               t0: float, store_every: int = 1) -> np.ndarray:
    """Per-C fraction of the paths of ``ensemble(sde, x0, T, dt, n_paths,
    master_seed, store_every=store_every)`` above the envelope rate(C t) at
    some stored time in [t0, T]; nonincreasing in C, as the events are
    nested. The reducer reads the kernel's live states at the stored steps,
    which are never stored.

    ``rate`` is a RateFunction table or any callable (useful sentinels:
    constant 0 or +inf). A table must cover C t on the window
    (ExtrapolationError otherwise). An IsotropicNd's |X| exceeds
    rho_tilde^{-1}(psi) when rho_tilde(|X|) exceeds psi: pass
    euclidean_rate(psi, coeff).

    Every argument is checked, and the envelope evaluated, before the first
    step.
    """
    stored = _stored_steps(sde, x0, T, dt, n_paths, master_seed,
                            store_every)
    window, env = _envelope_rows(stored * dt, rate, C_grid, t0)
    return _fractions(env, n_paths, _streamed_columns(
        sde, x0, T, dt, n_paths, master_seed, stored[window]))


# ---------------------------------------------------------------------------
# Lean loops over the Euler kernel (no path storage)
# ---------------------------------------------------------------------------

def _terminal_run(sdes, x0: float, T: float, dt: float, n_paths: int,
                  seed: int, barrier: float = math.inf):
    """Step n_paths chains of every chain in ``sdes`` on the chunk-keyed
    noise of sde._shared_noise_run and return the per-path flags of
    sdes[0] <= sdes[1] at every step (all True for one chain), and the last
    chain's terminal states and exit flags: a path has exited when it was
    above the barrier after some step."""
    ordered = np.ones(n_paths, dtype=bool)
    below = np.empty_like(ordered)
    peak = np.full(n_paths, -np.inf)
    coupled = len(sdes) == 2
    for _, states in _shared_noise_run(sdes, x0, T, dt, n_paths, seed):
        if coupled:
            np.less_equal(*states, out=below)
            np.logical_and(ordered, below, out=ordered)
        np.maximum(peak, states[-1], out=peak)
    return ordered, states[-1], peak > barrier


# ---------------------------------------------------------------------------
# Comparison inequality
# ---------------------------------------------------------------------------

class ComparisonReport(NamedTuple):
    """What comparison_mc computed.

    lhs is the dominating-drift process's probability of the event
    {x_t < delta, t < tau_R}; rhs the dominated process's. Domination pushes
    the lhs process away from 0, so lhs <= rhs up to noise; ``violation`` is
    set when lhs exceeds rhs by more than two combined standard errors.
    ``coupled_dominance_fraction`` is the fraction of the lhs paths that
    stayed at or above their dominated companion on the same noise.
    ``seeds`` holds the sub-seeds of the independent lhs and rhs runs.
    """

    lhs_estimate: float
    lhs_stderr: float
    rhs_estimate: float
    rhs_stderr: float
    coupled_dominance_fraction: float
    violation: bool
    seeds: dict


def _check_drift_order(low: Sde1D, high: Sde1D, R: float):
    grid = np.geomspace(max(low.floor, high.floor), R, 200)
    with np.errstate(**_STEP_ERRSTATE):  # as the kernel evaluates drifts
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
                  delta: float, R: float, N: int, dt: float,
                  master_seed: int) -> ComparisonReport:
    """Estimate P(x_t < delta, t < tau_R) for both processes on independent
    ensembles and check the domination inequality. The two chains must be
    Sde1Ds with one sigma, and R finite (DomainError otherwise).

    The lhs run steps each of its N paths with a dominated companion on its
    noise, which gives the coupled ordering fraction; rhs keeps its own
    stream, so lhs and rhs stay independent. The run is checked before
    either ensemble is made.
    """
    _check_sim_args([dominating, dominated], r0, t, dt, N, master_seed)
    if not (0 < delta < R < math.inf) or not r0 < R:
        raise DomainError("need r0 < R and 0 < delta < R")
    _check_coupled(dominated, dominating)
    _check_drift_order(dominated, dominating, R)
    seed_lhs, seed_rhs = _sub_seeds(master_seed, 2)
    ordered, x_lhs, exited_lhs = _terminal_run(
        [dominated, dominating], r0, t, dt, N, seed_lhs, R)
    _, x_rhs, exited_rhs = _terminal_run([dominated], r0, t, dt, N, seed_rhs, R)

    def estimate(x, exited):
        p = float(np.mean(~exited & (x < delta)))
        return p, math.sqrt(p * (1.0 - p) / N)

    lhs, se_l = estimate(x_lhs, exited_lhs)
    rhs, se_r = estimate(x_rhs, exited_rhs)
    violation = lhs > rhs + 2.0 * math.sqrt(se_l ** 2 + se_r ** 2)
    return ComparisonReport(
        lhs_estimate=lhs, lhs_stderr=se_l, rhs_estimate=rhs, rhs_stderr=se_r,
        coupled_dominance_fraction=float(np.mean(ordered)),
        violation=violation, seeds={"lhs": seed_lhs, "rhs": seed_rhs})


def coupled_dominance(low: Sde1D, high: Sde1D, x0: float, T: float, dt: float,
                      N: int, master_seed: int) -> float:
    """Fraction of shared-noise path pairs ordered x_low <= x_high at every
    grid time. Equals 1 exactly whenever the sigmas are equal, the drifts are
    pointwise ordered and dt * max Lipschitz bound <= 1 (the Euler step map
    is then monotone); unequal sigmas or a chain that is not an Sde1D are a
    DomainError."""
    _check_sim_args([low, high], x0, T, dt, N, master_seed)
    _check_coupled(low, high)
    grid_top = x0 + 100.0 * math.sqrt(2.0 * T) + 10.0
    _check_drift_order(low, high, grid_top)
    bounds = [b for b in (low.lipschitz, high.lipschitz) if b is not None]
    if bounds and dt > 1.0 / max(bounds):
        raise DomainError(
            f"dt={dt} violates the monotone-step condition dt <= {1.0 / max(bounds):.6g}")
    ordered, _, _ = _terminal_run([low, high], x0, T, dt, N, master_seed)
    return float(np.mean(ordered))


# ---------------------------------------------------------------------------
# Iterated-logarithm statistic
# ---------------------------------------------------------------------------

def _lil_rows(times: np.ndarray, t0: float, eps_grid):
    """Window of the stored times from t0 on and the envelope rows
    (1+eps) sqrt(2 t log log t) on it, one per eps."""
    if t0 <= math.e:
        raise DomainError(f"t0={t0} must exceed e so log log t0 > 0")
    eps_grid = np.asarray(eps_grid, dtype=float)
    if np.isnan(eps_grid).any():
        raise DomainError("eps must not be NaN")
    window = times >= t0
    if not np.any(window):
        raise DomainError("no stored grid times inside the window")
    ts = times[window]
    base = np.sqrt(2.0 * ts * np.log(np.log(ts)))
    with np.errstate(over="ignore"):  # a row past float range is inf
        return window, (1.0 + eps_grid[:, None]) * base


def lil_statistic(sde: Sde1D, x0: float, T: float, dt: float, n_paths: int,
                  master_seed: int, t0: float, eps_grid: Sequence[float],
                  store_every: int = 1) -> np.ndarray:
    """Per-epsilon fraction of the paths of ``ensemble(sde, x0, T, dt,
    n_paths, master_seed, store_every=store_every)`` with
    x_t > (1+eps) sqrt(2 t log log t) at some stored time in [t0, T]. The
    reducer reads the kernel's live states at the stored steps, which are
    never stored.

    The chain should be driftless with unit diffusion: a Brownian motion
    clamped at its floor > 0, close in law to the reflected |B_t|, so x_t
    plays the part of |B_t| in the law of the iterated logarithm. Fractions
    are nonincreasing in eps by event nesting. Every argument is checked
    before the first step.
    """
    stored = _stored_steps(sde, x0, T, dt, n_paths, master_seed,
                            store_every)
    window, env = _lil_rows(stored * dt, t0, eps_grid)
    return _fractions(env, n_paths, _streamed_columns(
        sde, x0, T, dt, n_paths, master_seed, stored[window]))
