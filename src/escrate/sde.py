"""Euler-Maruyama simulation of radial diffusions.

Scalar chains x_{k+1} = max(floor, x_k + theta(x_k) dt + sigma sqrt(dt)
xi_k) (Sde1D), with radial drifts for model manifolds and radial elliptic
diffusions, and the n-dimensional diffusion of a Dirichlet form (IsotropicNd),
all stepped by one kernel on counter-based noise keyed by (seed, chunk of
256 noise coordinates).

The kernel's normals xi_k are Box-Muller transforms of raw Philox words,
128 words per step of a chunk (see _box_muller for the layout); they are
cut at |xi| <= sqrt(50 log 2) = 5.89, a tail of probability 3.9e-9 per
draw. A seed reproduces the same bytes for every ESCRATE_THREADS, and on
numpy's AVX2 and AVX-512 float32 loops alike; on the x86-64-v2 baseline
loops float32 log, sin and cos round differently and the normals differ.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import ConfigError, DomainError, NonFiniteState, SingularOrigin
from .profiles import (
    DEFAULT_ORIGIN_FLOOR,
    ManifoldModel,
    RadialCoefficient,
    drift_L_rho,
    rho_tilde_inverse,
)

_SQRT2 = math.sqrt(2.0)
# Steps of noise generated per RNG call. Each of the (at most two) noise
# buffers holds _NOISE_BLOCK float32 normals per path: 0.5 KiB.
_NOISE_BLOCK = 128
_NOISE_CHUNK = 256  # noise coordinates sharing one noise stream
_WORDS = _NOISE_CHUNK // 2  # raw 64-bit Philox words per step of a chunk
_ANGLE = np.float32(2.0 * math.pi * 2.0 ** -24)

__all__ = [
    "Sde1D",
    "IsotropicNd",
    "PathEnsemble",
    "HyperbolicBound",
    "ensemble",
    "radial_drift",
    "worker_threads",
]


@dataclass(frozen=True)
class Sde1D:
    """A scalar diffusion dx = theta(x) dt + sigma dw, reflected at a floor.

    ``drift`` must accept numpy arrays of states at or above the floor; None
    is the zero drift, and its chains skip the drift stage of every step.
    ``sigma`` is a finite constant, kept as a Python float (a negative sigma
    gives the same law; see _shared_noise_run for the float32 increments).
    ``lipschitz``, when given, is the caller's promise of a drift Lipschitz
    bound; the coupled monotonicity of the Euler map needs dt <= 1/lipschitz.
    """

    drift: Optional[Callable] = None
    sigma: float = _SQRT2
    floor: float = DEFAULT_ORIGIN_FLOOR
    lipschitz: Optional[float] = None
    width = 1  # not a field: noise coordinates per path

    def __post_init__(self):
        # a Python float keeps the kernel's noise product in float32
        object.__setattr__(self, "sigma", float(self.sigma))
        if not math.isfinite(self.sigma):
            raise DomainError(f"sigma must be finite, got {self.sigma}")
        if self.floor <= 0:
            raise DomainError("floor must be positive")
        if self.lipschitz is not None and self.lipschitz <= 0:
            raise DomainError("lipschitz bound must be positive")

    def _euler(self, x0: float, n_paths: int, dt: float, noise: np.ndarray):
        """States of n_paths chains at x0 and their update on the kernel's
        increments: x <- max(floor, x + drift(x) dt + noise), in place."""
        x = np.full(n_paths, float(x0))
        drift, floor = self.drift, self.floor
        drift_dt = np.empty(n_paths)

        def step():
            if drift is not None:
                np.multiply(drift(x), dt, out=drift_dt)
                np.add(x, drift_dt, out=x)
            np.add(x, noise, out=x)
            np.maximum(x, floor, out=x)
        return x, step


@dataclass(frozen=True)
class IsotropicNd:
    """dX = a'(|X|) X/|X| dt + sqrt(2 a(|X|)) dW in R^n, the diffusion of the
    Dirichlet form with coefficient a(|x|), reflected radially onto the
    sphere |X| = floor. A run from x0 starts at (x0, 0, ..., 0) (the law of
    |X| is rotation invariant) and observes |X|. Coordinate c of path p
    reads noise coordinate p n + c, scaled by sqrt(2 a(|X|)) in float64.
    """

    coeff: RadialCoefficient
    n: int
    floor: float = DEFAULT_ORIGIN_FLOOR
    sigma = 1.0  # not a field: the noise scale, before sqrt(2 a(|X|))

    def __post_init__(self):
        if not isinstance(self.coeff, RadialCoefficient) or self.n < 2 \
                or self.floor <= 0:
            raise DomainError("IsotropicNd needs a RadialCoefficient, n >= 2 "
                              "and a positive floor")

    @property
    def width(self) -> int:
        return self.n

    def _euler(self, x0: float, n_paths: int, dt: float, noise: np.ndarray):
        """Radii of n_paths chains at (x0, 0, ..., 0) and their update; a
        point that ends inside the floor sphere is scaled out onto it."""
        coeff, floor = self.coeff, self.floor
        X = np.zeros((n_paths, self.n))
        X[:, 0] = x0
        r = np.full(n_paths, float(x0))
        dW = noise.reshape(n_paths, self.n)

        def step():
            # a state that overflows turns non-finite quietly, and the
            # kernel raises NonFiniteState
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                pull = coeff.a_prime(r) / r * dt
                amp = np.sqrt(2.0 * coeff.a(r))
                np.add(X, pull[:, None] * X + amp[:, None] * dW, out=X)
                np.sqrt(np.einsum("ij,ij->i", X, X), out=r)
                hit = np.flatnonzero(r < floor)
                if hit.size:
                    X[hit] *= (floor / r[hit])[:, None]
                    r[hit] = floor
        return r, step


@dataclass
class PathEnsemble:
    """Grid values of a batch of Euler chains, with reproduction parameters.

    ``values`` has shape (n_paths, len(times)); ``times`` is the stored grid
    (possibly thinned by ``store_every``); ``ensemble`` gives a column-major
    view, each stored step one contiguous column; an IsotropicNd's values
    are radii |X|. ``first_exit[i]`` is the first step time, stored or not,
    with value > barrier, NaN when the path never exits. ``floor_hits[i]``
    counts the steps that ended on the reflection floor.
    """

    times: np.ndarray
    values: np.ndarray
    dt: float
    T: float
    n_paths: int
    master_seed: int
    barrier: Optional[float] = None
    first_exit: Optional[np.ndarray] = None
    floor_hits: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.values.shape != (self.n_paths, self.times.size):
            raise DomainError("ensemble values shape inconsistent with grid")


def _path_generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def worker_threads() -> int:
    """Worker threads for noise generation: the CPUs this process may run on,
    capped by ESCRATE_THREADS (a positive integer) when it is set.

    Raises ConfigError for a malformed ESCRATE_THREADS.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    raw = os.environ.get("ESCRATE_THREADS")
    if raw is None:
        return cpus
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"ESCRATE_THREADS must be a positive integer, got {raw!r}")
    if cap < 1:
        raise ConfigError(f"ESCRATE_THREADS must be >= 1, got {cap}")
    return min(cpus, cap)


def _check_sim_args(sdes, x0: float, T: float, dt: float, n_paths: int) -> int:
    """Validate a run of n_paths chains of each SDE in ``sdes``; return its
    step count int(T / dt)."""
    for sde in sdes:
        if x0 < sde.floor:
            raise DomainError(f"x0={x0} below floor {sde.floor}")
    if dt <= 0 or T < dt:
        raise DomainError("need dt > 0 and T >= dt")
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    return int(T / dt)


def _box_muller(bit_generator, out: np.ndarray) -> None:
    """Fill ``out``, a C-contiguous (block, _NOISE_CHUNK) float32 array, with
    standard normals made from block * _WORDS raw 64-bit words of
    ``bit_generator``.

    Layout: word j of step row i (word i * _WORDS + j of the draw) gives
    paths j and j + _WORDS of that step. Its low and high 32-bit halves,
    each shifted right by 8, are 24-bit integers k1 and k2. With
    u1 = (k1 + 1/2) 2^-24 in (0, 1), r = sqrt(-2 log u1) and
    theta = 2 pi k2 2^-24, path j gets r cos(theta) and path j + _WORDS gets
    r sin(theta) (Box and Muller, 1958), all in float32. As u1 >= 2^-25,
    |normal| <= sqrt(50 log 2) = 5.89 (rounded to float32): the tail beyond
    it has probability 3.9e-9 per draw. The draw itself is the only scratch
    space.
    """
    block = out.shape[0]
    n = block * _WORDS
    words = bit_generator.random_raw(n)
    # (low, high) halves of each word on a little-endian host
    halves = words.view(np.uint32).reshape(n, 2)
    np.right_shift(halves, 8, out=halves)
    # The transforms run on contiguous arrays, as numpy's float32 loops are
    # slower on strided or row-by-row views: r and theta in out's memory, cos
    # and sin in the draw's; the products are copied into the layout last.
    r, theta = out.reshape(2, n)  # a view: out is C-contiguous
    np.add(halves[:, 0], np.float32(0.5), out=r, dtype=np.float32,
           casting="unsafe")
    r *= np.float32(2.0 ** -24)
    np.log(r, out=r)
    r *= np.float32(-2.0)
    np.sqrt(r, out=r)
    np.multiply(halves[:, 1], _ANGLE, out=theta, dtype=np.float32,
                casting="unsafe")
    cos, sin = words.view(np.float32).reshape(2, n)
    np.cos(theta, out=cos)
    np.sin(theta, out=sin)
    cos *= r
    sin *= r
    out[:, :_WORDS] = cos.reshape(block, _WORDS)
    out[:, _WORDS:] = sin.reshape(block, _WORDS)


def _noise_blocks(gens, n_steps: int):
    """Yield (k, block, buf) for the steps k .. k+block-1, in blocks of up to
    _NOISE_BLOCK steps: buf[c, :block] holds chunk c's float32 normals,
    made by _box_muller from the next block * _WORDS raw words of gens[c]:
    exactly _WORDS words per step, whatever the block size.

    With more than one worker thread (worker_threads) the chunks are filled
    in parallel, and the next block is drawn while the caller steps through
    the current one. Each stream is still read in order, and each fill draws
    its own scratch, so the values do not depend on the thread count.
    """
    n_chunks = len(gens)
    shape = (n_chunks, _NOISE_BLOCK, _NOISE_CHUNK)
    blocks = [(k, min(_NOISE_BLOCK, n_steps - k))
              for k in range(0, n_steps, _NOISE_BLOCK)]

    def fill(buf, chunks, block):
        for c in chunks:
            _box_muller(gens[c].bit_generator, buf[c, :block])

    n_threads = min(worker_threads(), n_chunks)
    if n_threads <= 1:
        buf = np.empty(shape, dtype=np.float32)
        for k, block in blocks:
            fill(buf, range(n_chunks), block)
            yield k, block, buf
        return

    # numpy releases the GIL while it fills a chunk
    from concurrent.futures import ThreadPoolExecutor
    bufs = [np.empty(shape, dtype=np.float32) for _ in range(2)]
    with ThreadPoolExecutor(n_threads) as pool:
        def draw(i):
            return [pool.submit(fill, bufs[i % 2], range(w, n_chunks, n_threads),
                                blocks[i][1]) for w in range(n_threads)]

        pending = draw(0)
        for i, (k, block) in enumerate(blocks):
            for done in pending:
                done.result()
            if i + 1 < len(blocks):
                pending = draw(i + 1)
            yield k, block, bufs[i % 2]


def _shared_noise_run(sdes, x0: float, T: float, dt: float, n_paths: int,
                      seed: int, observe: Callable) -> tuple:
    """Euler-step n_paths chains of every chain in ``sdes`` (of one sigma and
    width) from x0 on the same noise and return their observed states at T:
    the stepping kernel of every chain. Each chain type owns its update.

    Noise is keyed by (seed, chunk of _NOISE_CHUNK coordinates): coordinate
    c of path p is coordinate p * width + c of the run, and the chunk whose
    first coordinate index is q reads the Philox stream keyed by seed XOR q,
    step-major, _WORDS raw words per step, which _box_muller turns into one
    row of _NOISE_CHUNK float32 normals. A path's noise is thus a pure
    function of (seed, path index), whatever n_paths and however many
    worker threads fill the chunks. Only the real coordinates are stepped:
    the unused tail of the last chunk stays in the noise scratch buffer.
    Each step's increments sigma sqrt(dt) xi are formed once, in float32
    (numpy's loop for a float32 array times a Python float), with a relative
    error of up to 6e-8, and only then added to the float64 states.
    ``observe(step, states)`` runs after every step, with
    step = 1 .. int(T / dt). States are checked once per noise block; a
    non-finite one raises NonFiniteState with the block's first step.
    """
    n_steps = _check_sim_args(sdes, x0, T, dt, n_paths)
    n_coords = n_paths * sdes[0].width
    n_chunks = -(-n_coords // _NOISE_CHUNK)
    gens = [_path_generator(seed ^ (c * _NOISE_CHUNK)) for c in range(n_chunks)]
    padded = np.empty(n_chunks * _NOISE_CHUNK)
    noise_chunks = padded.reshape(n_chunks, _NOISE_CHUNK)
    chains = [sde._euler(x0, n_paths, dt, padded[:n_coords]) for sde in sdes]
    states, updates = zip(*chains)
    scale = sdes[0].sigma * math.sqrt(dt)
    with contextlib.closing(_noise_blocks(gens, n_steps)) as blocks:
        for k, block, buf in blocks:
            for j in range(block):
                np.multiply(buf[:, j], scale, out=noise_chunks)
                for update in updates:
                    update()
                observe(k + j + 1, states)
            for x in states:
                bad = ~np.isfinite(x)
                if bad.any():
                    what = (f"path {int(np.argmax(bad))} non-finite"
                            if len(sdes) == 1 else "non-finite coupled state")
                    raise NonFiniteState(
                        k, f"{what} within steps [{k}, {k + block})")
    return states


def _stored_steps(sde: Sde1D | IsotropicNd, x0: float, T: float, dt: float, n_paths: int,
                  store_every: int) -> np.ndarray:
    """Validate a run of n_paths chains and return the steps ``ensemble``
    stores: step 0, every store_every-th step thereafter, and the last step
    int(T / dt)."""
    if store_every < 1:
        raise DomainError("store_every must be >= 1")
    n_steps = _check_sim_args([sde], x0, T, dt, n_paths)
    stored = np.arange(0, n_steps + 1, store_every)
    if stored[-1] != n_steps:
        stored = np.append(stored, n_steps)
    return stored


def ensemble(sde: Sde1D | IsotropicNd, x0: float, T: float, dt: float, n_paths: int,
             master_seed: int, barrier: Optional[float] = None,
             store_every: int = 1) -> PathEnsemble:
    """Simulate n_paths chains on the chunk-keyed noise of _shared_noise_run
    and store their observed states (x, or |X| for an IsotropicNd).

    Path i's noise depends only on (master_seed, i), so the result is
    bit-identical for every ESCRATE_THREADS, and the first m paths of a
    larger ensemble are the m paths of a smaller one. ``store_every`` thins
    the stored grid (step 0, every store_every-th step thereafter, and the
    last step).
    """
    stored_idx = _stored_steps(sde, x0, T, dt, n_paths, store_every)
    n_steps = int(stored_idx[-1])
    # column-major, so that storing a step is a contiguous write
    values = np.empty((stored_idx.size, n_paths)).T
    values[:, 0] = x0
    floor_hits = np.zeros(n_paths, dtype=np.int64)
    on_floor = np.empty(n_paths, dtype=bool)
    exit_step = np.full(n_paths, -1, dtype=np.int64)
    if barrier is not None and x0 > barrier:
        exit_step[:] = 0

    def observe(step, states):
        (x,) = states
        if step % store_every == 0 or step == n_steps:
            values[:, -(-step // store_every)] = x
        np.equal(x, sde.floor, out=on_floor)
        if on_floor.any():
            np.add(floor_hits, on_floor, out=floor_hits)
        if barrier is not None:
            newly = (exit_step < 0) & (x > barrier)
            if newly.any():
                exit_step[newly] = step

    _shared_noise_run([sde], x0, T, dt, n_paths, master_seed, observe)
    first_exit = None
    if barrier is not None:
        first_exit = np.where(exit_step >= 0, exit_step * dt, np.nan)
    return PathEnsemble(times=stored_idx * dt, values=values, dt=dt,
                        T=n_steps * dt, n_paths=n_paths,
                        master_seed=master_seed, barrier=barrier,
                        first_exit=first_exit, floor_hits=floor_hits)


# ---------------------------------------------------------------------------
# Radial drifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperbolicBound:
    """Dominating drift theta(r) = (n-1) sqrt(K) (1 + 1/(sqrt(K) r)),
    a pointwise upper bound for the hyperbolic mean curvature
    (n-1) sqrt(K) coth(sqrt(K) r)."""

    n: int
    K: float

    def __post_init__(self):
        if self.n < 2 or self.K <= 0:
            raise DomainError("HyperbolicBound needs n >= 2, K > 0")


def radial_drift(source: Union[ManifoldModel, Tuple[RadialCoefficient, int],
                               HyperbolicBound],
                 floor: float = DEFAULT_ORIGIN_FLOOR) -> Callable:
    """Drift function for the radial comparison chain on radii >= ``floor``.

    A ManifoldModel gives its mean curvature m(r); a (coefficient, dimension)
    pair gives the radial-generator drift expressed in the intrinsic radius;
    a HyperbolicBound gives the dominating majorant of coth. The floor is
    checked once, here (SingularOrigin if <= 0): the model and majorant
    drifts are bare ufunc expressions, for chains clamped at the drift's
    floor as every CLI chain is, bitwise equal to mean_curvature and the
    majorant's formula but without their per-call check.

    The coefficient drift keeps drift_L_rho's guard and overflows quietly
    (the kernel raises NonFiniteState). Its chain needs a floor away from 0:
    at the default 1e-6 it overshoots, and from |x0| = 1 (T = 0.2, dt = 1e-3)
    power alpha = 1 gave a mean intrinsic radius of 13.43 +- 0.78 at n = 2
    and 2.29 +- 0.30 at n = 3, against IsotropicNd's 1.19 and 1.39, and
    squared_log beta = 0.5 gave NonFiniteState; at floor 0.01 they agree.
    """
    if floor <= 0:
        raise SingularOrigin(f"drift floor must be positive, got {floor}")
    if isinstance(source, ManifoldModel):
        return lambda r: (source.n - 1) * source.log_derivative(r)
    if isinstance(source, HyperbolicBound):
        base = (source.n - 1) * math.sqrt(source.K)
        sk = math.sqrt(source.K)
        return lambda r: base * (1.0 + 1.0 / (sk * r))
    if isinstance(source, tuple) and len(source) == 2:
        coeff, n = source
        if not isinstance(coeff, RadialCoefficient):
            raise DomainError("expected (RadialCoefficient, dimension)")

        def coefficient_drift(rho):
            with np.errstate(over="ignore", invalid="ignore"):
                return drift_L_rho(coeff, n, rho_tilde_inverse(coeff, rho),
                                   floor=floor)
        return coefficient_drift
    raise DomainError(f"cannot build a radial drift from {type(source).__name__}")
