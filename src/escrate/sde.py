"""Euler-Maruyama simulation of radial diffusions.

Scalar chains x_{k+1} = max(floor, x_k + theta(x_k) dt + sigma sqrt(dt)
xi_k) (Sde1D), whose radial drifts are the formulas of escrate.profiles,
and the n-dimensional diffusion of a Dirichlet form (IsotropicNd), all
stepped by one kernel on counter-based noise keyed by (seed, chunk of 256
noise coordinates).

The kernel's normals xi_k are Box-Muller transforms of raw Philox words, 128
per step of a chunk (see _box_muller for the layout), cut at
|xi| <= sqrt(50 log 2) = 5.89, a tail of probability 3.9e-9 per draw. Fills
of one pass each, which shorten as paths grow to keep their scratch within a
budget (see _noise_blocks), hand the chains the float32 increments
sigma sqrt(dt) xi_k, one contiguous row per step. A seed reproduces the same
bytes for every fill length, and on numpy's AVX2 and AVX-512 float32 loops
alike; on the x86-64-v2 baseline loops float32 log, sin and cos round
differently.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError, NonFiniteState
from .profiles import RadialCoefficient, _check_count, _Frozen

DEFAULT_ORIGIN_FLOOR = 1e-6

_SQRT2 = math.sqrt(2.0)
# Steps per noise fill: _NOISE_BLOCK, or fewer so that a fill's increments and
# raw words (1 KiB each per chunk-step) stay within _NOISE_BUDGET
# chunk-steps, but at least _MIN_BLOCK (a fill makes one RNG call per chunk).
# States are checked for finiteness every _NOISE_BLOCK steps.
_NOISE_BLOCK, _MIN_BLOCK, _NOISE_BUDGET = 128, 8, 320
_NOISE_CHUNK = 256  # noise coordinates sharing one noise stream
_WORDS = _NOISE_CHUNK // 2  # raw 64-bit Philox words per step of a chunk
_ANGLE = np.float32(2.0 * math.pi * 2.0 ** -24)
# numpy's error state for stepping chains and evaluating their drifts: an
# overflow or invalid value is left to the non-finite check that follows
_STEP_ERRSTATE = dict(all="ignore")

__all__ = [
    "Sde1D",
    "IsotropicNd",
    "PathEnsemble",
    "ensemble",
]


class Sde1D(_Frozen):
    """A scalar diffusion dx = theta(x) dt + sigma dw, reflected at a floor.

    ``drift`` must accept numpy arrays of states at or above the floor; None
    is the zero drift, and its chains skip the drift stage of every step.
    ``sigma`` is a finite constant, kept as a Python float (a negative sigma
    gives the same law; a step adds the fill's float32 sigma sqrt(dt) xi).
    ``lipschitz``, when given, is the caller's promise of a drift Lipschitz
    bound; the coupled monotonicity of the Euler map needs dt <= 1/lipschitz.
    """

    width = 1  # noise coordinates per path

    def __init__(self, drift: Optional[Callable] = None, sigma: float = _SQRT2,
                 floor: float = DEFAULT_ORIGIN_FLOOR,
                 lipschitz: Optional[float] = None):
        # a Python float keeps the kernel's noise product in float32
        sigma = float(sigma)
        if not math.isfinite(sigma):
            raise DomainError(f"sigma must be finite, got {sigma}")
        if not floor > 0:  # NaN too
            raise DomainError("floor must be positive")
        if lipschitz is not None and not lipschitz > 0:
            raise DomainError("lipschitz bound must be positive")
        vars(self).update(drift=drift, sigma=sigma, floor=floor,
                          lipschitz=lipschitz)

    def _euler(self, x0: float, n_paths: int, dt: float):
        """States of n_paths chains at x0 and their update on one step's
        increments: x <- max(floor, x + drift(x) dt + noise), in place."""
        x = np.full(n_paths, float(x0))
        drift, floor = self.drift, self.floor
        drift_dt = np.empty(n_paths)

        def step(noise):
            if drift is not None:
                np.multiply(drift(x), dt, out=drift_dt)
                np.add(x, drift_dt, out=x)
            np.add(x, noise, out=x)
            np.maximum(x, floor, out=x)
        return x, step


class IsotropicNd(_Frozen):
    """dX = a'(|X|) X/|X| dt + sqrt(2 a(|X|)) dW in R^n, the diffusion of the
    Dirichlet form with coefficient a(|x|), reflected radially onto the
    sphere |X| = floor. A run from x0 starts at (x0, 0, ..., 0) (the law of
    |X| is rotation invariant) and observes |X|. Coordinate c of path p
    reads noise coordinate p n + c, scaled by sqrt(2 a(|X|)) in float64.
    """

    sigma = 1.0  # the noise scale, before sqrt(2 a(|X|))

    def __init__(self, coeff: RadialCoefficient, n: int,
                 floor: float = DEFAULT_ORIGIN_FLOOR):
        if not (isinstance(coeff, RadialCoefficient)
                and isinstance(n, numbers.Integral) and n >= 2
                and floor > 0):  # NaN too
            raise DomainError("IsotropicNd needs a RadialCoefficient, an "
                              "integer n >= 2 and a positive floor")
        vars(self).update(coeff=coeff, n=n, floor=floor)

    @property
    def width(self) -> int:
        return self.n

    def _euler(self, x0: float, n_paths: int, dt: float):
        """Radii of n_paths chains at (x0, 0, ..., 0) and their update on a
        step's increments; a point inside the floor sphere is scaled out."""
        coeff, floor = self.coeff, self.floor
        X = np.zeros((n_paths, self.n))
        X[:, 0] = x0
        r = np.full(n_paths, float(x0))

        def step(noise):
            dW = noise.reshape(n_paths, self.n)
            pull = coeff.a_prime(r) / r * dt
            amp = np.sqrt(2.0 * coeff.a(r))
            np.add(X, pull[:, None] * X + amp[:, None] * dW, out=X)
            np.sqrt(np.einsum("ij,ij->i", X, X), out=r)
            hit = np.flatnonzero(r < floor)
            if hit.size:
                X[hit] *= (floor / r[hit])[:, None]
                r[hit] = floor
        return r, step


class PathEnsemble(NamedTuple):
    """Grid values of a batch of Euler chains, and what the run observed.

    ``values`` has shape (n_paths, len(times)); ``times`` is the stored grid
    (possibly thinned by ``store_every``); ``ensemble`` gives a column-major
    view, each stored step one contiguous column; an IsotropicNd's values
    are radii |X|. ``first_exit[i]`` is the first step time, stored or not,
    with value > the barrier, NaN when the path never exits; None without a
    barrier. ``floor_hits[i]`` counts the steps that ended on the floor.
    """

    times: np.ndarray
    values: np.ndarray
    first_exit: Optional[np.ndarray] = None
    floor_hits: Optional[np.ndarray] = None


def _path_generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _check_sim_args(sdes, x0: float, T: float, dt: float, n_paths: int,
                    seed: int, store_every: int = 1) -> int:
    """Validate a run of n_paths chains of each SDE in ``sdes`` (of one
    width) on ``seed`` before anything is allocated; return its step count
    int(T / dt). Counts are integers >= 1, the seed an integer in [0, 2^64)
    (a Philox key), and x0 a finite point at or above every floor."""
    _check_count(store_every, "store_every")
    for sde in sdes:
        if x0 < sde.floor:
            raise DomainError(f"x0={x0} below floor {sde.floor}")
    if not math.isfinite(x0):
        raise DomainError(f"x0 must be finite, got {x0}")
    if dt <= 0 or T < dt:
        raise DomainError("need dt > 0 and T >= dt")
    _check_count(n_paths, "n_paths")
    if not T / dt < 2.0 ** 63:
        raise DomainError(f"T/dt = {T / dt:.6g} steps is more than a run can take")
    if not int(n_paths) * sdes[0].width < 2 ** 63:
        raise DomainError(f"n_paths x width = {n_paths} x {sdes[0].width} noise "
                          "coordinates is more than a run can take")
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2 ** 64):
        raise DomainError(f"master_seed must be an integer in [0, 2^64), "
                          f"got {seed!r}")
    return int(T / dt)


def _box_muller(words: np.ndarray, out: np.ndarray, scale: float) -> None:
    """Fill ``out``, a C-contiguous (block, n_chunks, _NOISE_CHUNK) float32
    array, with normals times ``scale``, a Python float, made from ``words``,
    a C-contiguous uint64 array of its n_chunks * block * _WORDS raw 64-bit
    words, chunk-major, which serves as scratch space.

    Layout: word (c block + s) _WORDS + j gives entries j and j + _WORDS of
    out[s, c]. Its low and high 32-bit halves, each shifted right by 8, are
    24-bit integers k1 and k2. With u1 = (k1 + 1/2) 2^-24 in (0, 1),
    r = sqrt(-2 log u1) and theta = 2 pi k2 2^-24, entry j gets
    r cos(theta) scale and entry j + _WORDS gets r sin(theta) scale (Box and
    Muller, 1958), all in float32, the scale included. As
    u1 >= 2^-25, |normal| <= sqrt(50 log 2) = 5.89 (rounded to float32): the
    tail beyond it has probability 3.9e-9 per draw. Each word is transformed
    on its own, so a normal does not depend on how many steps one call fills.
    """
    n = words.size
    block, n_chunks, _ = out.shape
    # (low, high) halves of each word on a little-endian host
    halves = words.view(np.uint32).reshape(n, 2)
    np.right_shift(halves, 8, out=halves)
    # below 2^24 now: numpy casts int32 to float32 faster than uint32
    halves = halves.view(np.int32)
    # The transforms run on contiguous arrays, as numpy's float32 loops are
    # slower on strided views (and round differently there): r and theta in
    # out's memory, cos and sin in the words'.
    r, theta = out.reshape(2, n)  # a view: out is C-contiguous
    np.add(halves[:, 0], np.float32(0.5), out=r, dtype=np.float32,
           casting="unsafe")
    r *= np.float32(2.0 ** -24)
    np.log(r, out=r)
    r *= np.float32(-2.0)
    np.sqrt(r, out=r)
    np.multiply(halves[:, 1], _ANGLE, out=theta, dtype=np.float32,
                casting="unsafe")
    cos_sin = words.view(np.float32).reshape(2, n)
    np.cos(theta, out=cos_sin[0])
    np.sin(theta, out=cos_sin[1])
    cos_sin *= r
    cos_sin *= scale
    # r and theta are dead now: out takes the products, step-major
    out.reshape(block, n_chunks, 2, _WORDS)[...] = cos_sin.reshape(
        2, n_chunks, block, _WORDS).transpose(2, 1, 0, 3)


def _noise_blocks(gens, n_steps: int, scale: float):
    """Yield (k, rows) for the steps k+1 .. k+block: rows[s] holds step
    k+s+1's float32 increments scale * xi, chunk c's from column
    c * _NOISE_CHUNK, made by _box_muller from the next block * _WORDS raw
    words of gens[c]: exactly _WORDS per step, whatever the block length (see
    _NOISE_BUDGET). Each rows is a view into one buffer that the next fill
    overwrites: a caller that keeps it past its own steps must copy it.

    A fill draws each chunk's words in one call into that chunk's run of one
    word buffer, which _box_muller transforms in one pass. Each stream is
    read in order, so the values do not depend on the block length.
    """
    n_chunks = len(gens)
    size = min(_NOISE_BLOCK, max(_MIN_BLOCK, _NOISE_BUDGET // n_chunks))
    words = np.empty(n_chunks * size * _WORDS, np.uint64)
    store = np.empty((size, n_chunks, _NOISE_CHUNK), dtype=np.float32)
    for k in range(0, n_steps, size):
        block = min(size, n_steps - k)
        n = block * _WORDS
        fill = words[:n_chunks * n]
        for gen, run in zip(gens, fill.reshape(n_chunks, n)):
            run[:] = gen.bit_generator.random_raw(n)
        _box_muller(fill, store[:block], scale)
        yield k, store[:block].reshape(block, -1)


def _shared_noise_run(sdes, x0: float, T: float, dt: float, n_paths: int,
                      seed: int):
    """Euler-step n_paths chains of every chain in ``sdes`` (of one sigma and
    width) from x0 on the same noise, yielding (step, states) after each
    step = 1 .. int(T / dt): the only code that steps a chain. Each chain
    type owns its update; ``states`` holds each chain's observed states, the
    same live buffers at every step (copy them to keep them).

    Noise is keyed by (seed, chunk of _NOISE_CHUNK coordinates): coordinate
    c of path p is coordinate p * width + c of the run, and the chunk whose
    first coordinate index is q reads the Philox stream keyed by seed XOR q,
    step-major, _WORDS raw words per step, which _box_muller turns into
    _NOISE_CHUNK float32 increments sigma sqrt(dt) xi. A path's noise is thus
    a pure function of (seed, path index), whatever n_paths and the fill
    length. Each chain's update gets a step's first n_coords increments, one
    contiguous float32 row, and adds them to its float64 states (an exact
    promotion); the unused tail of the last chunk is never read. The steps,
    and the caller's loop body while the generator is suspended, run under
    _STEP_ERRSTATE, until the generator is exhausted or closed. States are
    checked every _NOISE_BLOCK steps; a non-finite one raises NonFiniteState
    with the window's first step. Callers run _check_sim_args first.
    """
    n_steps = int(T / dt)
    n_coords = n_paths * sdes[0].width
    n_chunks = -(-n_coords // _NOISE_CHUNK)
    gens = [_path_generator(seed ^ (c * _NOISE_CHUNK)) for c in range(n_chunks)]
    states, updates = zip(*(sde._euler(x0, n_paths, dt) for sde in sdes))
    scale = sdes[0].sigma * math.sqrt(dt)
    with np.errstate(**_STEP_ERRSTATE), \
            contextlib.closing(_noise_blocks(gens, n_steps, scale)) as blocks:
        for k, rows in blocks:
            for step, noise in enumerate(rows[:, :n_coords], k + 1):
                for update in updates:
                    update(noise)
                yield step, states
                if step % _NOISE_BLOCK and step < n_steps:
                    continue
                start = (step - 1) // _NOISE_BLOCK * _NOISE_BLOCK
                for x in states:
                    bad = ~np.isfinite(x)
                    if bad.any():
                        what = (f"path {int(np.argmax(bad))} non-finite"
                                if len(sdes) == 1 else "non-finite coupled state")
                        raise NonFiniteState(
                            start, f"{what} within steps [{start}, {step})")


def _stored_steps(sde: Sde1D | IsotropicNd, x0: float, T: float, dt: float, n_paths: int,
                  seed: int, store_every: int) -> np.ndarray:
    """Validate a run of n_paths chains and return the steps ``ensemble``
    stores: step 0, every store_every-th step thereafter, and the last step
    int(T / dt)."""
    n_steps = _check_sim_args([sde], x0, T, dt, n_paths, seed, store_every)
    stored = np.arange(0, n_steps + 1, min(store_every, n_steps))
    if stored[-1] != n_steps:
        stored = np.append(stored, n_steps)
    return stored


def ensemble(sde: Sde1D | IsotropicNd, x0: float, T: float, dt: float, n_paths: int,
             master_seed: int, barrier: Optional[float] = None,
             store_every: int = 1) -> PathEnsemble:
    """Simulate n_paths chains on the chunk-keyed noise of _shared_noise_run
    and store their observed states (x, or |X| for an IsotropicNd): a loop
    over the steps the kernel yields, which copies each stored step's live
    states into a column and checks every step for floor hits and exits.

    Path i's noise depends only on (master_seed, i), so the first m paths
    of a larger ensemble are the m paths of a smaller one. ``store_every``
    thins the stored grid (step 0, every store_every-th step thereafter, and
    the last step).
    """
    stored_idx = _stored_steps(sde, x0, T, dt, n_paths, master_seed,
                               store_every)
    n_steps = int(stored_idx[-1])
    # column-major, so that storing a step is a contiguous write
    values = np.empty((stored_idx.size, n_paths)).T
    values[:, 0] = x0
    floor_hits = np.zeros(n_paths, dtype=np.int64)
    on_floor = np.empty(n_paths, dtype=bool)
    exit_step = np.full(n_paths, -1, dtype=np.int64)
    if barrier is not None and x0 > barrier:
        exit_step[:] = 0

    for step, (x,) in _shared_noise_run([sde], x0, T, dt, n_paths, master_seed):
        if step % store_every == 0 or step == n_steps:
            values[:, -(-step // store_every)] = x
        np.equal(x, sde.floor, out=on_floor)
        if on_floor.any():
            np.add(floor_hits, on_floor, out=floor_hits)
        if barrier is not None:
            newly = (exit_step < 0) & (x > barrier)
            if newly.any():
                exit_step[newly] = step

    first_exit = None
    if barrier is not None:
        first_exit = np.where(exit_step >= 0, exit_step * dt, np.nan)
    return PathEnsemble(times=stored_idx * dt, values=values,
                        first_exit=first_exit, floor_hits=floor_hits)
