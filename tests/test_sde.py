"""Euler chains: determinism, moments, radial drifts, and the
n-dimensional isotropic diffusion."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from escrate import sde as sde_mod
from escrate.errors import DomainError, NonFiniteState, SingularOrigin
from escrate.profiles import (
    ManifoldModel,
    RadialCoefficient,
    drift_L_rho,
    mean_curvature,
    rho_tilde,
)
from escrate.sde import (
    HyperbolicBound,
    IsotropicNd,
    Sde1D,
    ensemble,
    radial_drift,
)


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
        drift = radial_drift(HyperbolicBound(2, 1.0), floor=0.05)
        s = Sde1D(drift=drift, floor=0.05)
        coarse = ensemble(s, 1.0, 2.0, 2e-3, 4000, master_seed=21,
                          store_every=1000)
        fine = ensemble(s, 1.0, 2.0, 1e-3, 4000, master_seed=22,
                        store_every=2000)
        fc, ff = coarse.values[:, -1], fine.values[:, -1]
        se = math.hypot(fc.std(ddof=1) / math.sqrt(fc.size),
                        ff.std(ddof=1) / math.sqrt(ff.size))
        assert abs(fc.mean() - ff.mean()) <= 3.0 * se

    def test_none_drift_equals_zero_drift(self, monkeypatch):
        # a driftless chain skips the drift stage; x + 0.0 == x above the
        # floor, so the bytes are those of an explicit zero drift
        for threads in ("1", "2"):
            monkeypatch.setenv("ESCRATE_THREADS", threads)
            a, b = (ensemble(Sde1D(drift=d, floor=0.05), 0.3, 3.0, 1e-2, 300,
                             master_seed=12, barrier=1.2, store_every=7)
                    for d in (None, zero))
            assert np.array_equal(a.values, b.values), threads
            assert np.array_equal(a.floor_hits, b.floor_hits), threads
            assert np.array_equal(a.first_exit, b.first_exit,
                                  equal_nan=True), threads
            assert a.floor_hits.sum() > 0 and np.isfinite(a.first_exit).any()

    @pytest.mark.parametrize("store_every", [1, 7])
    def test_store_matches_row_by_row_reference(self, store_every):
        # 300 paths (a partial second noise chunk), 293 steps; each step
        # of the reference loop is the kernel's arithmetic, written into a
        # row-major array
        n_paths, n_steps, seed, dt, sigma, floor = 300, 293, 77, 0.01, 1.5, 0.05
        drift = radial_drift(ManifoldModel.hyperbolic(2, 1.0), floor=floor)
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
        ens = ensemble(Sde1D(drift=drift, sigma=sigma, floor=floor), 0.2,
                       n_steps * dt, dt, n_paths, seed,
                       store_every=store_every)
        assert ens.values.shape == expected.shape
        assert ens.values.flags.f_contiguous
        assert np.array_equal(ens.values, expected)

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
    def test_layout_matches_reference_loop(self, monkeypatch):
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
        for threads in ("1", "2"):
            monkeypatch.setenv("ESCRATE_THREADS", threads)
            ens = ensemble(s, 1000.0, float(n_steps), 1.0, n_paths, seed)
            assert np.array_equal(ens.values, expected), threads

    def test_standard_normal_law(self):
        bound = math.sqrt(50.0 * math.log(2.0))
        # 4 chunk streams x 1024 steps x 256 paths = 2^20 normals
        gens = [sde_mod._path_generator(s)
                for s in (3, 77, 1 << 20, 2 ** 40 + 9)]
        blocks = sde_mod._noise_blocks(gens, 1024)
        z = np.concatenate([buf[:, :block].copy() for _, block, buf in blocks],
                           axis=1).reshape(-1, 256).astype(np.float64)
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
        class Words:
            @staticmethod
            def random_raw(size):
                return np.resize(np.array([0, 0xFFFFFFFF_FFFFFFFF, 0xFF,
                                           0xFFFFFF00_000000FF], np.uint64),
                                 size)

        out = np.empty((1, 256), dtype=np.float32)
        sde_mod._box_muller(Words(), out)
        assert np.all(np.isfinite(out))
        assert np.abs(out).max() <= np.float32(bound)
        assert out[0, 0] == pytest.approx(bound, rel=1e-6)


class TestRadialDrift:
    def test_euclidean_three_dim(self):
        drift = radial_drift(ManifoldModel.euclidean(3))
        assert drift(2.0) == pytest.approx(1.0)
        assert np.allclose(drift(np.array([1.0, 4.0])), [2.0, 0.5])

    def test_constant_coefficient_matches_euclidean(self):
        drift_c = radial_drift((RadialCoefficient.constant(), 3))
        drift_e = radial_drift(ManifoldModel.euclidean(3))
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
            got = radial_drift((c, 3))(rho)
            assert got.shape == rho.shape
            assert np.allclose(got, expected, rtol=1e-10, atol=0.0), c.family

    def test_hyperbolic_bound_dominates_coth(self):
        drift = radial_drift(HyperbolicBound(2, 1.0), floor=1e-4)
        grid = np.geomspace(1e-3, 1e3, 120)
        coth = 1.0 / np.tanh(grid)
        assert np.all(drift(grid) >= coth)
        assert drift(1.0) == pytest.approx(2.0)

    def test_invalid_source(self):
        with pytest.raises(DomainError):
            radial_drift("not a drift source")

    @pytest.mark.parametrize("model", [
        ManifoldModel.euclidean(2), ManifoldModel.euclidean(3),
        ManifoldModel.hyperbolic(3, 1.0), ManifoldModel.hyperbolic(2, 0.25)],
        ids=["euclidean2", "euclidean3", "hyperbolic1", "hyperbolic025"])
    def test_model_closure_is_mean_curvature(self, model):
        floor = 1e-3
        r = np.geomspace(floor, 1e3, 400)
        drift = radial_drift(model, floor=floor)
        assert np.array_equal(drift(r), mean_curvature(model, r, floor=floor))
        assert drift(2.0) == mean_curvature(model, 2.0, floor=floor)

    @pytest.mark.parametrize("n, K", [(2, 1.0), (3, 0.25), (4, 3.0)])
    def test_hyperbolic_bound_closure_is_its_formula(self, n, K):
        def formula(r):  # the majorant as written before its closure
            r = np.asarray(r, dtype=float)
            out = (n - 1) * math.sqrt(K) * (1.0 + 1.0 / (math.sqrt(K) * r))
            return float(out) if out.ndim == 0 else out

        r = np.geomspace(1e-3, 1e3, 400)
        drift = radial_drift(HyperbolicBound(n, K), floor=1e-3)
        assert np.array_equal(drift(r), formula(r))
        assert drift(0.7) == formula(0.7)

    def test_closure_ensemble_equals_guarded_drift(self):
        model, floor = ManifoldModel.hyperbolic(2, 1.0), 0.05
        guarded = lambda r: mean_curvature(model, r, floor=floor)
        a, b = (ensemble(Sde1D(drift=d, floor=floor), 0.1, 3.0, 1e-2, 300,
                         master_seed=31)
                for d in (radial_drift(model, floor=floor), guarded))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.floor_hits, b.floor_hits)

    @pytest.mark.parametrize("floor", [0.0, -1e-6])
    @pytest.mark.parametrize("source", [
        ManifoldModel.euclidean(3), ManifoldModel.hyperbolic(2, 1.0),
        HyperbolicBound(2, 1.0), (RadialCoefficient.power(1.0), 3)],
        ids=["euclidean", "hyperbolic", "bound", "coefficient"])
    def test_origin_checked_when_built(self, source, floor):
        with pytest.raises(SingularOrigin):
            radial_drift(source, floor=floor)


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
    rows = [buf[:, :block].transpose(1, 0, 2).reshape(block, -1).copy()
            for _, block, buf in sde_mod._noise_blocks(gens, n_steps)]
    z = np.concatenate(rows)[:, :n_coords]
    return (z * math.sqrt(dt)).astype(np.float64)


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

    def test_independent_of_thread_count(self, monkeypatch):
        chain = IsotropicNd(RadialCoefficient.power(1.0), 3, 0.05)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("ESCRATE_THREADS", threads)
            runs.append(ensemble(chain, 0.3, 3.0, 1e-2, 300, 17, barrier=2.0))
        a, b = runs
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.floor_hits, b.floor_hits)
        assert np.array_equal(a.first_exit, b.first_exit, equal_nan=True)

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
        chain = Sde1D(drift=radial_drift((coeff, n), floor=floor), floor=floor)
        radial = ensemble(chain, rho_tilde(coeff, 1.0), T, dt, N, 2011,
                          store_every=10 ** 6).values[:, -1]
        se = math.hypot(nd.std(ddof=1), radial.std(ddof=1)) / math.sqrt(N)
        assert abs(nd.mean() - radial.mean()) <= 3.0 * se


