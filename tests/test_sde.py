"""Euler chains: determinism, moments, radial drifts, and the
n-dimensional isotropic diffusion."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from escrate import sde as sde_mod
from escrate.errors import DomainError, NonFiniteState
from escrate.profiles import (
    RadialCoefficient,
    coefficient_drift,
    drift_L_rho,
    euclidean_mean_curvature,
    hyperbolic_majorant,
    hyperbolic_mean_curvature,
    rho_tilde,
)
from escrate.sde import IsotropicNd, Sde1D, ensemble


def zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def one(x):
    return np.ones_like(np.asarray(x, dtype=float))


class TestEulerPath:
    def test_deterministic_ode_limit(self):
        s = Sde1D(drift=one, sigma=0.0, floor=1e-6)
        path = ensemble(s, 1e-6, 5.0, 1e-3, 1, 3).values[0]
        assert path[-1] == pytest.approx(1e-6 + 5.0, abs=1e-9)
        assert path.size == 5001

    def test_same_seed_same_path(self):
        s = Sde1D(drift=zero)
        a = ensemble(s, 10.0, 1.0, 1e-2, 1, 11).values[0]
        b = ensemble(s, 10.0, 1.0, 1e-2, 1, 11).values[0]
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        s = Sde1D(drift=zero)
        a = ensemble(s, 10.0, 1.0, 1e-2, 1, 11).values[0]
        b = ensemble(s, 10.0, 1.0, 1e-2, 1, 12).values[0]
        assert not np.array_equal(a, b)

    def test_nonfinite_reported_with_step(self):
        s = Sde1D(drift=lambda x: np.asarray(x, dtype=float) * 1e300, sigma=0.0)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
            ensemble(s, 1.0, 1.0, 1e-2, 1, 1).values[0]

    def test_x0_below_floor_rejected(self):
        s = Sde1D(drift=zero, floor=0.5)
        with pytest.raises(DomainError):
            ensemble(s, 0.1, 1.0, 1e-2, 1, 1).values[0]

    @pytest.mark.parametrize("chain, n_paths", [
        (Sde1D(), 2 ** 63),
        (IsotropicNd(RadialCoefficient.power(1.0), 3), 2 ** 62)],
        ids=["Sde1D", "IsotropicNd"])
    def test_path_count_beyond_a_run_rejected(self, chain, n_paths):
        # 2^63 noise coordinates or more: refused before any array is made
        with pytest.raises(DomainError, match="noise coordinates"):
            ensemble(chain, 1.0, 1.0, 0.1, n_paths, 1)
        # half as many pass the check (nothing is run here)
        assert sde_mod._check_sim_args([chain], 1.0, 1.0, 0.1, n_paths // 2,
                                       1) == 10

    @pytest.mark.parametrize("floor", [0.0, -1e-6, math.nan])
    @pytest.mark.parametrize("chain", [
        lambda floor: Sde1D(drift=euclidean_mean_curvature(3), floor=floor),
        lambda floor: IsotropicNd(RadialCoefficient.power(1.0), 3, floor)],
        ids=["Sde1D", "IsotropicNd"])
    def test_nonpositive_floor_rejected_by_the_chain(self, chain, floor):
        # the chain owns the floor; its drift takes none
        with pytest.raises(DomainError, match="positive"):
            chain(floor)

    @pytest.mark.parametrize("lipschitz", [0.0, -1.0, math.nan])
    def test_nonpositive_lipschitz_rejected(self, lipschitz):
        with pytest.raises(DomainError, match="lipschitz bound must be positive"):
            Sde1D(drift=euclidean_mean_curvature(3), lipschitz=lipschitz)


class TestEnsemble:
    def test_driftless_martingale_mean(self):
        s = Sde1D(drift=zero)
        ens = ensemble(s, 10.0, 1.0, 1e-2, 10_000, master_seed=44,
                       store_every=100)
        final = ens.values[:, -1]
        se = final.std(ddof=1) / math.sqrt(final.size)
        assert abs(final.mean() - 10.0) <= 3.0 * se

    def test_infinite_barrier_never_exits(self):
        s = Sde1D(drift=zero)
        ens = ensemble(s, 1.0, 1.0, 1e-2, 50, master_seed=5,
                       barrier=math.inf)
        assert np.all(np.isnan(ens.first_exit))

    def test_driftless_exit_fraction(self):
        # pilot-verified: essentially every path crosses R = 1 by T = 50
        from escrate.pinned import DRIFTLESS_EXIT_MIN_FRACTION
        s = Sde1D(drift=zero)
        ens = ensemble(s, 0.5, 50.0, 1e-2, 2000, master_seed=313,
                       barrier=1.0, store_every=5000)
        frac = np.mean(np.isfinite(ens.first_exit))
        assert frac >= DRIFTLESS_EXIT_MIN_FRACTION

    def test_reruns_bit_identical(self):
        s = Sde1D(drift=lambda x: 1.0 / np.asarray(x, dtype=float), floor=0.01)
        a = ensemble(s, 1.0, 0.5, 1e-2, 100, master_seed=99)
        b = ensemble(s, 1.0, 0.5, 1e-2, 100, master_seed=99)
        assert np.array_equal(a.values, b.values)

    def test_halving_dt_stable_mean(self):
        # weak-convergence self-check on the hyperbolic majorant drift
        drift = hyperbolic_majorant(2, 1.0)
        s = Sde1D(drift=drift, floor=0.05)
        coarse = ensemble(s, 1.0, 2.0, 2e-3, 4000, master_seed=21,
                          store_every=1000)
        fine = ensemble(s, 1.0, 2.0, 1e-3, 4000, master_seed=22,
                        store_every=2000)
        fc, ff = coarse.values[:, -1], fine.values[:, -1]
        se = math.hypot(fc.std(ddof=1) / math.sqrt(fc.size),
                        ff.std(ddof=1) / math.sqrt(ff.size))
        assert abs(fc.mean() - ff.mean()) <= 3.0 * se

    def test_none_drift_equals_zero_drift(self):
        # a driftless chain skips the drift stage; x + 0.0 == x above the
        # floor, so the bytes are those of an explicit zero drift
        a, b = (ensemble(Sde1D(drift=d, floor=0.05), 0.3, 3.0, 1e-2, 300,
                         master_seed=12, barrier=1.2, store_every=7)
                for d in (None, zero))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.floor_hits, b.floor_hits)
        assert np.array_equal(a.first_exit, b.first_exit, equal_nan=True)
        assert a.floor_hits.sum() > 0 and np.isfinite(a.first_exit).any()

    @pytest.mark.parametrize("store_every", [1, 7, 293, 1000])
    def test_store_matches_row_by_row_reference(self, store_every):
        # 300 paths (a partial second noise chunk), 293 steps; each step
        # of the reference loop is the kernel's arithmetic, written into a
        # row-major array. A store_every of at least the step count keeps
        # steps 0 and 293 only.
        n_paths, n_steps, seed, dt, sigma, floor = 300, 293, 77, 0.01, 1.5, 0.05
        barrier = 4.0  # about two thirds of the paths cross it
        drift = hyperbolic_mean_curvature(2, 1.0)
        z = reference_normals(seed, n_paths, n_steps)
        stored = list(range(0, n_steps + 1, store_every))
        if stored[-1] != n_steps:
            stored.append(n_steps)
        expected = np.empty((n_paths, len(stored)))
        x = np.full(n_paths, 0.2)
        expected[:, 0] = x
        for step in range(1, n_steps + 1):
            noise = (z[step - 1] * (sigma * math.sqrt(dt))).astype(np.float64)
            x = np.maximum(x + drift(x) * dt + noise, floor)
            if step in stored:
                expected[:, stored.index(step)] = x
        chain = Sde1D(drift=drift, sigma=sigma, floor=floor)
        ens, every_step = (ensemble(chain, 0.2, n_steps * dt, dt, n_paths, seed,
                                    barrier=barrier, store_every=s)
                           for s in (store_every, 1))
        assert ens.values.shape == expected.shape
        assert ens.values.flags.f_contiguous
        assert np.array_equal(ens.values, expected)
        if store_every >= n_steps:
            assert ens.values.shape == (n_paths, 2)
            assert np.array_equal(ens.times, [0.0, n_steps * dt])
        # exits and floor hits are observed at every step, stored or not
        exited = np.isfinite(every_step.first_exit)
        assert 0 < exited.sum() < n_paths and every_step.floor_hits.sum() > 0
        assert np.array_equal(ens.first_exit, every_step.first_exit,
                              equal_nan=True)
        assert np.array_equal(ens.floor_hits, every_step.floor_hits)

    def test_repelling_drift_avoids_floor(self):
        # near-origin repulsion: floor reflection stays inactive
        s = Sde1D(drift=lambda x: 1.0 / np.asarray(x, dtype=float), floor=1e-6)
        ens = ensemble(s, 1e-5, 1.0, 1e-4, 500, master_seed=8)
        quiet = np.mean(ens.floor_hits == 0)
        assert quiet >= 0.999


def reference_normals(seed, n_paths, n_steps):
    """The kernel's noise written out as a plain loop: chunk c (paths
    256c .. 256c+255) reads Philox keyed by seed ^ 256c, 128 raw words per
    step; word j gives paths j (cosine) and j + 128 (sine) of its chunk."""
    angle = np.float32(2.0 * math.pi * 2.0 ** -24)
    z = np.empty((n_steps, -(-n_paths // 256) * 256), dtype=np.float32)
    for first in range(0, n_paths, 256):
        words = np.random.Philox(key=seed ^ first)
        for step in range(n_steps):
            w = words.random_raw(128)
            k1 = ((w & 0xFFFFFFFF) >> 8).astype(np.float32)
            k2 = (w >> 40).astype(np.float32)
            u1 = (k1 + np.float32(0.5)) * np.float32(2.0 ** -24)
            r = np.sqrt(np.float32(-2.0) * np.log(u1))
            theta = k2 * angle
            z[step, first:first + 128] = r * np.cos(theta)
            z[step, first + 128:first + 256] = r * np.sin(theta)
    return z[:, :n_paths]


class TestNoise:
    def test_layout_matches_reference_loop(self):
        # 300 paths: a full chunk and a partial one; 293 steps: two noise
        # blocks and a remainder of 37
        n_paths, n_steps, seed = 300, 2 * 128 + 37, 4242
        z = reference_normals(seed, n_paths, n_steps).astype(np.float64)
        # zero drift, dt = 1, sigma = 1: each step adds its normal
        expected = np.empty((n_paths, n_steps + 1))
        x = np.full(n_paths, 1000.0)
        expected[:, 0] = x
        for step in range(n_steps):
            x = np.maximum(x + 0.0 + z[step], 1e-6)
            expected[:, step + 1] = x
        s = Sde1D(drift=zero, sigma=1.0, floor=1e-6)
        ens = ensemble(s, 1000.0, float(n_steps), 1.0, n_paths, seed)
        assert np.array_equal(ens.values, expected)

    def test_standard_normal_law(self):
        bound = math.sqrt(50.0 * math.log(2.0))
        # 4 chunk streams x 1024 steps x 256 paths = 2^20 normals
        gens = [sde_mod._path_generator(s)
                for s in (3, 77, 1 << 20, 2 ** 40 + 9)]
        blocks = sde_mod._noise_blocks(gens, 1024, 1.0)
        z = np.concatenate([rows.copy() for _, rows in blocks]
                           ).reshape(-1, 256).astype(np.float64)
        n = z.size
        assert n >= 2 ** 20
        assert abs(z.mean()) <= 5.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)
        assert stats.kstest(z.ravel(), "norm").pvalue > 1e-4
        cos_half, sin_half = z[:, :128].ravel(), z[:, 128:].ravel()
        assert abs(np.corrcoef(cos_half, sin_half)[0, 1]) <= 5.0 / math.sqrt(
            n / 2)
        assert np.abs(z).max() <= np.float32(bound)

        # the smallest and largest 24-bit halves: u1 = 2^-25 gives the
        # largest radius, and no word reaches log(0)
        words = np.resize(np.array([0, 0xFFFFFFFF_FFFFFFFF, 0xFF,
                                    0xFFFFFF00_000000FF], np.uint64), 128)
        out = np.empty((1, 1, 256), dtype=np.float32)
        sde_mod._box_muller(words, out, 1.0)
        assert np.all(np.isfinite(out))
        assert np.abs(out).max() <= np.float32(bound)
        assert out[0, 0, 0] == pytest.approx(bound, rel=1e-6)

    @pytest.mark.parametrize("n_chunks", [1, 2, 8])
    def test_normals_independent_of_fill_length(self, n_chunks):
        # chunk 0's normals over 300 steps: among n_chunks chunks (128-step
        # fills at 1 and 2 chunks, 40-step fills that leave a 20-step
        # remainder at 8) and as one of 40 chunks (8-step fills), read from
        # the same stream; each fill is one word buffer and one Box-Muller
        # pass over all its chunks

        def chunk0(n_chunks):
            gens = [sde_mod._path_generator(91 ^ (256 * c))
                    for c in range(n_chunks)]
            blocks = [rows[:, :256].copy()
                      for _, rows in sde_mod._noise_blocks(gens, 300, 1.0)]
            sizes = {len(rows) for rows in blocks[:-1]}
            return sizes, np.concatenate(blocks)

        (alone_size,), alone = chunk0(n_chunks)
        (shared_size,), shared = chunk0(40)
        assert alone_size == {1: 128, 2: 128, 8: 40}[n_chunks]
        assert shared_size == 8
        assert alone.shape == shared.shape == (300, 256)
        assert np.array_equal(alone, shared)

    @pytest.mark.parametrize("window", [1, 2])
    def test_nonfinite_reported_on_128_step_windows(self, window):
        # 10^4 paths (40 chunks, short fills) of x' = x^2: the Euler chain
        # overflows at step 215 from 0.5, inside the window [128, 256), and
        # at step 315 from 1/3, inside [256, 384)
        x0, t = {1: (0.5, 3.0), 2: (1.0 / 3.0, 4.0)}[window]
        s = Sde1D(drift=lambda x: x * x, sigma=0.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteState) as info:
            ensemble(s, x0, t, 1e-2, 10_000, 1, store_every=10 ** 6)
        start = 128 * window
        assert info.value.step == start
        assert str(info.value).endswith(
            f"within steps [{start}, {start + 128})")


class TestKernel:
    def test_yields_every_step_on_live_buffers(self):
        # 300 paths (two chunks) over 300 steps (three check windows): the
        # kernel yields steps 1 .. 300 in order, always the same state
        # arrays, and ends on the stored ensemble's last column
        s = Sde1D(drift=lambda x: 1.0 / x, floor=0.05)
        x0, T, dt, n_paths, seed = 1.0, 3.0, 1e-2, 300, 77
        n_steps = int(T / dt)
        before = np.geterr()
        steps, arrays = [], []
        for step, states in sde_mod._shared_noise_run([s], x0, T, dt,
                                                      n_paths, seed):
            steps.append(step)
            arrays.append(states[0])
        assert np.geterr() == before
        assert steps == list(range(1, n_steps + 1))
        assert all(x is arrays[0] for x in arrays)
        last = ensemble(s, x0, T, dt, n_paths, seed, store_every=n_steps)
        assert np.array_equal(arrays[-1], last.values[:, -1])

    def test_closed_after_first_step_restores_errstate(self):
        # the caller's loop body runs under the kernel's errstate while the
        # generator is suspended; closing it restores the caller's
        before = np.geterr()
        run = sde_mod._shared_noise_run([Sde1D()], 1.0, 1.0, 1e-2, 10, 3)
        assert next(run)[0] == 1
        assert set(np.geterr().values()) == {"ignore"}
        run.close()
        assert np.geterr() == before


class TestRadialDrift:
    def test_euclidean_three_dim(self):
        drift = euclidean_mean_curvature(3)
        assert drift(2.0) == pytest.approx(1.0)
        assert np.allclose(drift(np.array([1.0, 4.0])), [2.0, 0.5])

    def test_constant_coefficient_matches_euclidean(self):
        drift_c = coefficient_drift(RadialCoefficient.constant(), 3)
        drift_e = euclidean_mean_curvature(3)
        for r in (0.5, 2.0, 9.0):
            assert drift_c(r) == pytest.approx(drift_e(r))

    def test_coefficient_drift_matches_quadrature_inverse(self):
        # reference: the scalar drift at a brentq-over-quad inverse, on
        # Euclidean radii where quad is reliable
        def quad_rho(c, s):
            return integrate.quad(lambda u: float(c.a(u)) ** -0.5, 0.0, s,
                                  epsrel=1e-13, epsabs=0.0, limit=200)[0]

        svals = np.geomspace(1e-2, 1e5, 50)
        for c in (RadialCoefficient.constant(), RadialCoefficient.power(1.0),
                  RadialCoefficient.power(2.0), RadialCoefficient.power(3.0),
                  RadialCoefficient.squared_log(0.5),
                  RadialCoefficient.squared_log(2.0)):
            rho = np.array([quad_rho(c, s) for s in svals])
            expected = [drift_L_rho(c, 3, optimize.brentq(
                lambda x, r=r: quad_rho(c, x) - r, 0.0, 2.0 * s,
                xtol=1e-300, rtol=1e-13)) for s, r in zip(svals, rho)]
            got = coefficient_drift(c, 3)(rho)
            assert got.shape == rho.shape
            assert np.allclose(got, expected, rtol=1e-10, atol=0.0), c.family

    def test_hyperbolic_bound_dominates_coth(self):
        drift = hyperbolic_majorant(2, 1.0)
        grid = np.geomspace(1e-3, 1e3, 120)
        coth = 1.0 / np.tanh(grid)
        assert np.all(drift(grid) >= coth)
        assert drift(1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("make, message", [
        (lambda: coefficient_drift(euclidean_mean_curvature(3), 3),
         "coefficient_drift needs a RadialCoefficient"),
        (lambda: hyperbolic_majorant(1, 1.0), "majorant needs n >= 2, K > 0"),
        (lambda: hyperbolic_majorant(2, 0.0), "majorant needs n >= 2, K > 0"),
        (lambda: hyperbolic_majorant(2, -1.0), "majorant needs n >= 2, K > 0"),
        (lambda: hyperbolic_mean_curvature(2, 0.0), "curvature K must be > 0"),
        (lambda: hyperbolic_mean_curvature(2, -1.0), "curvature K must be > 0"),
        (lambda: hyperbolic_mean_curvature(0, -1.0), "curvature K must be > 0")],
        ids=["coefficient_of_model", "majorant_n1", "majorant_K0",
             "majorant_K_negative", "curvature_K0", "curvature_K_negative",
             "curvature_K_before_n"])
    def test_builders_check_their_arguments(self, make, message):
        # checked once, when the drift is built
        with pytest.raises(DomainError, match=message):
            make()

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("make", [
        euclidean_mean_curvature, lambda n: hyperbolic_mean_curvature(n, 1.0),
        lambda n: coefficient_drift(RadialCoefficient.constant(), n)],
        ids=["euclidean", "hyperbolic", "coefficient"])
    def test_dimension_below_one_rejected(self, make, n):
        # (n - 1)/r < 0 would pull the chain into its floor
        with pytest.raises(DomainError, match=r"dimension n must be >= 1"):
            make(n)

    @pytest.mark.parametrize("n, K", [
        (2, None), (3, None), (4, None), (3, 1.0), (2, 0.25), (4, 3.0)],
        ids=["euclidean2", "euclidean3", "euclidean4", "hyperbolic1",
             "hyperbolic025", "hyperbolic3_n4"])
    def test_model_closure_is_mean_curvature(self, n, K):
        # the builder's drift against (n-1) xi'/xi with the warp's ratio
        # written out: 1/r, or sqrt(K)/tanh(sqrt(K) r); at n = 4 the factor
        # 3 is not a power of 2, so the order of the operations shows
        r = np.geomspace(1e-3, 1e3, 400)
        sk = None if K is None else math.sqrt(K)

        def closure(r):
            ratio = (1.0 / np.asarray(r, dtype=float) if sk is None
                     else sk / np.tanh(sk * np.asarray(r, dtype=float)))
            return (n - 1) * ratio

        drift = (euclidean_mean_curvature(n) if K is None
                 else hyperbolic_mean_curvature(n, K))
        assert np.array_equal(drift(r), closure(r))
        assert drift(2.0) == closure(2.0)
        assert type(drift(2.0)) is float

    @pytest.mark.parametrize("n, K", [(2, 1.0), (3, 0.25), (4, 3.0)])
    def test_hyperbolic_bound_closure_is_its_formula(self, n, K):
        def formula(r):  # the majorant as written before its closure
            r = np.asarray(r, dtype=float)
            out = (n - 1) * math.sqrt(K) * (1.0 + 1.0 / (math.sqrt(K) * r))
            return float(out) if out.ndim == 0 else out

        r = np.geomspace(1e-3, 1e3, 400)
        drift = hyperbolic_majorant(n, K)
        assert np.array_equal(drift(r), formula(r))
        assert drift(0.7) == formula(0.7)

    def test_closure_ensemble_equals_guarded_drift(self):
        # the manifold drift against the floor-guarded mean curvature it
        # replaces, written out: the chain keeps every state at its floor
        n, sk, floor = 2, math.sqrt(1.0), 0.05

        def guarded(r):
            r = np.asarray(r, dtype=float)
            assert not np.any(r < floor)
            return (n - 1) * (sk / np.tanh(sk * r))

        a, b = (ensemble(Sde1D(drift=d, floor=floor), 0.1, 3.0, 1e-2, 300,
                         master_seed=31)
                for d in (hyperbolic_mean_curvature(n, 1.0), guarded))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.floor_hits, b.floor_hits)


class TestEuclideanDiffusionNd:
    def test_constant_coefficient_increment_variance(self):
        # sqrt(2)-scaled standard Brownian motion per coordinate
        radius = ensemble(IsotropicNd(RadialCoefficient.constant(), 2), 100.0,
                          10.0, 1e-2, 1, 31).values[0]
        # check the radial increments' quadratic variation instead of the
        # coordinates: far from the origin the radius is locally a BM
        inc = np.diff(radius)
        assert np.var(inc) == pytest.approx(2.0 * 1e-2, rel=0.1)

    def test_constant_intrinsic_equals_euclidean(self):
        radius = ensemble(IsotropicNd(RadialCoefficient.constant(), 2), 1.0,
                          1.0, 1e-2, 1, 5).values[0]
        intrinsic = rho_tilde(RadialCoefficient.constant(), radius)
        assert np.allclose(radius, intrinsic)

    def test_two_resolution_consistency(self):
        # Dynkin: d/dt E|X|^2 = E[2 a'(|X|) |X| + 2 n a(|X|)]; cross-check
        # with a 10x finer grid instead of evaluating the expectation
        chain = IsotropicNd(RadialCoefficient.power(1.0), 2)
        T, n_rep = 0.2, 150
        finals = {dt: ensemble(chain, 1.0, T, dt, n_rep, 1000,
                               store_every=10 ** 6).values[:, -1] ** 2
                  for dt in (2e-3, 2e-4)}
        a, b = finals[2e-3], finals[2e-4]
        se = math.hypot(a.std(ddof=1) / math.sqrt(n_rep),
                        b.std(ddof=1) / math.sqrt(n_rep))
        assert abs(a.mean() - b.mean()) <= 3.0 * se

    def test_tabulated_intrinsic_radius(self):
        # no closed form: the intrinsic radius falls back to quadrature
        coeff = RadialCoefficient.tabulated(np.linspace(0.0, 10.0, 11),
                                            1.0 + np.linspace(0.0, 10.0, 11))
        radius = ensemble(IsotropicNd(coeff, 2), 2.0, 0.05, 1e-2, 1,
                          9).values[0]
        intrinsic = rho_tilde(coeff, radius)
        assert intrinsic.dtype == np.float64
        for r, rho in zip(radius, intrinsic):
            assert rho == pytest.approx(rho_tilde(coeff, r), rel=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            IsotropicNd(RadialCoefficient.constant(), 1)


def kernel_increments(seed, n_coords, n_steps, dt):
    """The float32 increments sqrt(dt) xi of the kernel's first n_coords
    noise coordinates, as float64, one row per step: the normals are drawn
    by _noise_blocks on the kernel's keys (seed ^ 256c for chunk c)."""
    gens = [sde_mod._path_generator(seed ^ (256 * c))
            for c in range(-(-n_coords // 256))]
    blocks = sde_mod._noise_blocks(gens, n_steps, math.sqrt(dt))
    rows = np.concatenate([rows.copy() for _, rows in blocks])
    return rows[:, :n_coords].astype(np.float64)


def scalar_nd_path(coeff, n, x0, dt, dw, floor):
    """The one-path scalar loop the n-dimensional process ran on before it
    was an ensemble, on the increments dw (one row of n per step): the
    Euclidean radius after every step."""
    x = np.zeros(n)
    x[0] = x0
    radius = [float(x0)]
    for inc in dw:
        r = float(np.linalg.norm(x))
        a = coeff.a(r)
        ap = coeff.a_prime(r)
        x = x + (ap / r) * x * dt + math.sqrt(2.0 * a) * inc
        r = float(np.linalg.norm(x))
        if r < floor:
            # reflect radially out to the floor sphere
            x = x * (floor / r) if r > 0 else np.append(floor, np.zeros(n - 1))
            r = floor
        radius.append(r)
    return np.array(radius)


_TABLE = RadialCoefficient.tabulated(np.linspace(0.0, 40.0, 21),
                                     1.0 + np.sqrt(np.linspace(0.0, 40.0, 21)))


class TestIsotropicNd:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("coeff", [RadialCoefficient.power(1.0), _TABLE],
                             ids=["power1", "tabulated"])
    def test_matches_scalar_loop(self, coeff, n):
        # 130 paths: two noise chunks at n = 2 and n = 3, of which every
        # third path is checked; 150 steps: a full noise block and a partial
        # one; started near the floor so that some steps reflect
        n_paths, n_steps, dt, floor, x0, seed = 130, 150, 1e-2, 0.1, 0.15, 61
        ens = ensemble(IsotropicNd(coeff, n, floor), x0, n_steps * dt, dt,
                       n_paths, seed)
        dw = kernel_increments(seed, n_paths * n, n_steps, dt)
        paths = np.arange(0, n_paths, 3)
        expected = np.array([
            scalar_nd_path(coeff, n, x0, dt, dw[:, p * n:(p + 1) * n], floor)
            for p in paths])
        assert ens.floor_hits[paths].sum() > 0
        np.testing.assert_allclose(ens.values[paths], expected, rtol=1e-12,
                                   atol=0.0)

    def test_exits_prefix_of_larger_ensemble(self):
        # 300 paths at n = 3 end inside the fourth noise chunk, 700 inside
        # the ninth: the first 300 paths' exits and floor hits agree too
        chain = IsotropicNd(RadialCoefficient.power(1.0), 3, 0.05)
        a, b = (ensemble(chain, 0.3, 3.0, 1e-2, n, 17, barrier=2.0)
                for n in (300, 700))
        assert np.array_equal(a.values, b.values[:300])
        assert np.array_equal(a.floor_hits, b.floor_hits[:300])
        assert np.array_equal(a.first_exit, b.first_exit[:300], equal_nan=True)
        assert np.isfinite(a.first_exit).any()

    def test_prefix_of_larger_ensemble(self):
        chain = IsotropicNd(RadialCoefficient.squared_log(0.5), 2, 0.05)
        small = ensemble(chain, 0.5, 1.0, 1e-2, 100, 23)
        large = ensemble(chain, 0.5, 1.0, 1e-2, 350, 23)
        assert np.array_equal(large.values[:100], small.values)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("coeff", [RadialCoefficient.power(1.0),
                                       RadialCoefficient.squared_log(0.5)],
                             ids=["power1", "squared_log05"])
    def test_intrinsic_radius_matches_radial_chain(self, coeff, n):
        # the law of rho_tilde(|X|) is the 1-D chain's with drift L rho and
        # sigma sqrt(2); both chains reflect at 0.01, in their own radius
        N, T, dt, floor = 20_000, 0.2, 1e-3, 0.01
        nd = rho_tilde(coeff, ensemble(IsotropicNd(coeff, n, floor), 1.0, T,
                                       dt, N, 2010, store_every=10 ** 6)
                       .values[:, -1])
        chain = Sde1D(drift=coefficient_drift(coeff, n), floor=floor)
        radial = ensemble(chain, rho_tilde(coeff, 1.0), T, dt, N, 2011,
                          store_every=10 ** 6).values[:, -1]
        se = math.hypot(nd.std(ddof=1), radial.std(ddof=1)) / math.sqrt(N)
        assert abs(nd.mean() - radial.mean()) <= 3.0 * se


