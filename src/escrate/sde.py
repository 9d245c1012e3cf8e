"""Euler-Maruyama simulation of radial diffusions.

One-dimensional chains x_{k+1} = max(floor, x_k + theta(x_k) dt + sigma
sqrt(dt) xi_k), all stepped by one kernel on counter-based noise keyed by
(seed, chunk of 256 paths), plus radial drifts for model manifolds and
radial elliptic diffusions, and a full n-dimensional isotropic diffusion.

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
    rho_tilde,
    rho_tilde_inverse,
)

_SQRT2 = math.sqrt(2.0)
# Steps of noise generated per RNG call. Each of the (at most two) noise
# buffers holds _NOISE_BLOCK float32 normals per path: 0.5 KiB.
_NOISE_BLOCK = 128
_NOISE_CHUNK = 256  # paths sharing one noise stream
_WORDS = _NOISE_CHUNK // 2  # raw 64-bit Philox words per step of a chunk
_ANGLE = np.float32(2.0 * math.pi * 2.0 ** -24)

__all__ = [
    "Sde1D",
    "PathEnsemble",
    "HyperbolicBound",
    "ensemble",
    "radial_drift",
    "euclidean_diffusion_nd",
    "worker_threads",
]


@dataclass(frozen=True)
class Sde1D:
    """A scalar diffusion dx = theta(x) dt + sigma dw, reflected at a floor.

    ``drift`` must accept numpy arrays of states at or above the floor; None
    is the zero drift, and its chains skip the drift stage of every step.
    ``sigma`` is a finite constant, kept as a Python float (a negative sigma
    gives the same law). The kernel forms each increment sigma sqrt(dt) xi
    in float32, with a relative error of up to 6e-8, before adding it to the
    float64 state. ``lipschitz``, when given, is the caller's promise of a
    drift Lipschitz bound; the coupled monotonicity of the Euler map needs
    dt <= 1/lipschitz.
    """

    drift: Optional[Callable] = None
    sigma: float = _SQRT2
    floor: float = DEFAULT_ORIGIN_FLOOR
    lipschitz: Optional[float] = None

    def __post_init__(self):
        # a Python float keeps the kernel's noise product in float32
        object.__setattr__(self, "sigma", float(self.sigma))
        if not math.isfinite(self.sigma):
            raise DomainError(f"sigma must be finite, got {self.sigma}")
        if self.floor <= 0:
            raise DomainError("floor must be positive")
        if self.lipschitz is not None and self.lipschitz <= 0:
            raise DomainError("lipschitz bound must be positive")


@dataclass
class PathEnsemble:
    """Grid values of a batch of Euler chains, with reproduction parameters.

    ``values`` has shape (n_paths, len(times)); ``times`` is the stored grid
    (possibly thinned by ``store_every``); ``ensemble`` gives a column-major
    view, each stored step one contiguous column. ``first_exit[i]`` is the
    first step time, stored or not, with value > barrier, NaN when the path
    never exits. ``floor_hits[i]`` counts the steps that ended on the
    reflection floor.
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
                      seed: int, observe: Callable) -> list:
    """Euler-step n_paths chains of every SDE in ``sdes`` from x0 on the same
    noise and return their states at T: the stepping kernel of every 1-D
    chain.

    Noise is keyed by (seed, chunk of _NOISE_CHUNK paths): the chunk whose
    first path index is p reads the Philox stream keyed by seed XOR p,
    step-major, _WORDS raw words per step, which _box_muller turns into one
    row of _NOISE_CHUNK float32 normals. A path's noise is thus a pure
    function of (seed, path index), whatever n_paths and however many
    worker threads fill the chunks. Only the n_paths real paths are
    stepped: the unused tail of the last chunk stays in the noise scratch
    buffer. Each increment sigma sqrt(dt) xi is formed in float32 (numpy's
    loop for a float32 array times a Python float), with a relative error of
    up to 6e-8, and only then added to the float64 state after drift(x) dt.
    ``observe(step, states)`` runs after every step, with
    step = 1 .. int(T / dt). States are checked once per noise block; a
    non-finite one raises NonFiniteState with the block's first step.
    """
    n_steps = _check_sim_args(sdes, x0, T, dt, n_paths)
    n_chunks = -(-n_paths // _NOISE_CHUNK)
    gens = [_path_generator(seed ^ (c * _NOISE_CHUNK)) for c in range(n_chunks)]
    states = [np.full(n_paths, float(x0)) for _ in sdes]
    drift_dt = np.empty(n_paths)
    padded = np.empty(n_chunks * _NOISE_CHUNK)
    noise_chunks = padded.reshape(n_chunks, _NOISE_CHUNK)
    noise = padded[:n_paths]
    sqdt = math.sqrt(dt)
    with contextlib.closing(_noise_blocks(gens, n_steps)) as blocks:
        for k, block, buf in blocks:
            for j in range(block):
                z = buf[:, j]
                for sde, x in zip(sdes, states):
                    if sde.drift is not None:
                        np.multiply(sde.drift(x), dt, out=drift_dt)
                        x += drift_dt
                    np.multiply(z, sde.sigma * sqdt, out=noise_chunks)
                    x += noise
                    np.maximum(x, sde.floor, out=x)
                observe(k + j + 1, states)
            for x in states:
                bad = ~np.isfinite(x)
                if bad.any():
                    what = (f"path {int(np.argmax(bad))} non-finite"
                            if len(sdes) == 1 else "non-finite coupled state")
                    raise NonFiniteState(
                        k, f"{what} within steps [{k}, {k + block})")
    return states


def _stored_steps(sde: Sde1D, x0: float, T: float, dt: float, n_paths: int,
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


def ensemble(sde: Sde1D, x0: float, T: float, dt: float, n_paths: int,
             master_seed: int, barrier: Optional[float] = None,
             store_every: int = 1) -> PathEnsemble:
    """Simulate n_paths chains on the chunk-keyed noise of _shared_noise_run.

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

        return lambda rho: drift_L_rho(coeff, n, rho_tilde_inverse(coeff, rho),
                                       floor=floor)
    raise DomainError(f"cannot build a radial drift from {type(source).__name__}")


def euclidean_diffusion_nd(coeff: RadialCoefficient, n: int, x0, T: float,
                           dt: float, seed: int,
                           floor: float = DEFAULT_ORIGIN_FLOOR):
    """Isotropic n-dimensional diffusion dX_i = a'(|X|) X_i/|X| dt
    + sqrt(2 a(|X|)) dW_i; returns the Euclidean and intrinsic radius traces.

    The state is reflected radially to the floor sphere if |X| falls below
    the floor.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise DomainError(f"x0 must be a point in {n}-space")
    r = float(np.linalg.norm(x))
    if r < floor:
        raise DomainError(f"|x0|={r} below floor {floor}")
    if dt <= 0 or T < dt:
        raise DomainError("need dt > 0 and T >= dt")

    n_steps = int(T / dt)
    radius = np.empty(n_steps + 1)
    radius[0] = r
    rng = _path_generator(seed)
    sqdt = math.sqrt(dt)
    k = 0
    while k < n_steps:
        block = min(_NOISE_BLOCK, n_steps - k)
        xi = rng.standard_normal((block, n))
        for j in range(block):
            r = float(np.linalg.norm(x))
            a = coeff.a(r)
            ap = coeff.a_prime(r)
            x = x + (ap / r) * x * dt + math.sqrt(2.0 * a) * sqdt * xi[j]
            if not np.all(np.isfinite(x)):
                raise NonFiniteState(k + j, f"non-finite state at step {k + j}")
            r = float(np.linalg.norm(x))
            if r < floor:
                # reflect radially out to the floor sphere
                x = x * (floor / r) if r > 0 else np.append(floor, np.zeros(n - 1))
                r = floor
            radius[k + j + 1] = r
        k += block

    return radius, rho_tilde(coeff, radius)
