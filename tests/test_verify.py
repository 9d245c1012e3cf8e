"""Statistical checks: envelope exceedance, Monte Carlo comparison,
coupled dominance, and the iterated-logarithm diagnostic."""

import dataclasses
import math

import numpy as np
import pytest

from escrate import pinned
from escrate.errors import (
    ConfigError,
    DomainError,
    DriftOrderViolated,
    ExtrapolationError,
)
from escrate.profiles import RadialCoefficient, profile_from_radial
from escrate.rate_solver import RateFunction, euclidean_rate, rate_table
from escrate.sde import IsotropicNd, Sde1D, ensemble
from escrate.verify import (
    _terminal_run,
    comparison_mc,
    coupled_dominance,
    exceedance,
    exceedance_mc,
    lil_mc,
    lil_statistic,
)


def zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


@pytest.fixture(scope="module")
def driftless_ens():
    s = Sde1D(drift=zero)
    return ensemble(s, 1.0, 10.0, 1e-2, 400, master_seed=17, store_every=10)


class TestExceedance:
    def test_infinite_envelope_never_exceeded(self, driftless_ens):
        rep = exceedance(driftless_ens, lambda t: np.full_like(t, np.inf),
                         C_grid=[1.0], t0=0.0)
        assert rep.fractions[0] == 0.0

    def test_zero_envelope_always_exceeded(self, driftless_ens):
        rep = exceedance(driftless_ens, lambda t: np.zeros_like(t),
                         C_grid=[1.0], t0=0.0)
        assert rep.fractions[0] == 1.0

    def test_nonincreasing_in_scale(self, driftless_ens):
        rep = exceedance(driftless_ens, lambda t: np.sqrt(np.maximum(t, 0.0)),
                         C_grid=[0.5, 1.0, 2.0, 4.0], t0=0.0)
        assert np.all(np.diff(rep.fractions) <= 0)

    def test_table_domain_enforced(self, driftless_ens):
        profile = profile_from_radial(RadialCoefficient.constant(), 3, "unit_energy")
        rate = rate_table(profile, np.linspace(1.0, 5.0, 20))
        with pytest.raises(ExtrapolationError):
            exceedance(driftless_ens, rate, C_grid=[1.0], t0=0.0)

    def test_envelope_fraction_within_pilot_bound(self):
        # repelling drift 2/r under the scaled Euclidean rate table;
        # configuration matches the pinned pilot exactly
        s = Sde1D(drift=lambda x: 2.0 / np.asarray(x, dtype=float),
                  floor=1e-6)
        ens = ensemble(s, 1.0, 200.0, 1e-2, 2000, master_seed=404,
                       store_every=100)
        rep = exceedance(ens, lambda t: math.sqrt(t * math.log(t)),
                         C_grid=[4.0], t0=10.0)
        assert rep.fractions[0] <= pinned.ENVELOPE_C4_MAX_FRACTION

    def test_nd_escape_within_psi(self):
        # the paper's first theorem on the process of the Dirichlet form:
        # rho_tilde(|X_t|) > psi(C t) is the event |X_t| > rho_tilde^{-1}(
        # psi(C t)); configuration matches the pinned pilot exactly
        coeff = RadialCoefficient.power(1.0)
        psi = rate_table(profile_from_radial(coeff, 3, "unit_energy"),
                         np.geomspace(0.5, 1000.0, 60), scale_c=1.0)
        rep = exceedance_mc(IsotropicNd(coeff, 3, 0.01), 1.0, 20.0, 1e-2,
                            2000, 2012, euclidean_rate(psi, coeff),
                            C_grid=[1.0, 2.0, 4.0, 8.0], t0=1.0)
        assert np.all(np.diff(rep.fractions) <= 0.0)
        assert rep.fractions[1] <= pinned.ND_ENVELOPE_C2_MAX_FRACTION


def _isotropic():
    return IsotropicNd(RadialCoefficient.power(1.0), 3, 0.05)


class TestComparisonMc:
    def test_identical_drifts_agree(self):
        drift = lambda x: 1.0 / np.asarray(x, dtype=float)
        lo = Sde1D(drift=drift, floor=0.05, lipschitz=1.0 / 0.05 ** 2)
        rep = comparison_mc(lo, lo, r0=1.0, t=1.0, delta=0.8, R=5.0,
                            N=2000, dt=1e-3, master_seed=52,
                            coupling_paths=500)
        assert not rep.violation
        assert rep.coupled_dominance_fraction == 1.0
        gap = abs(rep.lhs_estimate - rep.rhs_estimate)
        assert gap <= 3.0 * math.hypot(rep.lhs_stderr, rep.rhs_stderr)

    def test_stronger_drift_reduces_return_probability(self):
        lo = Sde1D(drift=zero, sigma=math.sqrt(2.0))
        hi = Sde1D(drift=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                   lipschitz=None)
        rep = comparison_mc(hi, lo, r0=1.0, t=1.0, delta=0.5, R=50.0,
                            N=4000, dt=1e-3, master_seed=53,
                            coupling_paths=500)
        assert not rep.violation
        assert rep.lhs_estimate <= rep.rhs_estimate

    def test_unequal_sigma_rejected(self):
        # the comparison theorem holds for one sigma on both sides
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        with pytest.raises(DomainError, match="sigma"):
            comparison_mc(Sde1D(drift=one, sigma=1.0), Sde1D(drift=zero, sigma=3.0),
                          r0=1.0, t=1.0, delta=0.5, R=5.0, N=100, dt=1e-2,
                          master_seed=7)

    def test_isotropic_nd_rejected(self):
        # the comparison needs scalar drifts; an IsotropicNd has none
        with pytest.raises(DomainError, match="IsotropicNd"):
            comparison_mc(_isotropic(), Sde1D(drift=zero, sigma=1.0), r0=1.0,
                          t=1.0, delta=0.5, R=5.0, N=100, dt=1e-2,
                          master_seed=7)

    def test_drift_order_checked(self):
        lo = Sde1D(drift=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                   lipschitz=None)
        hi = Sde1D(drift=zero)
        with pytest.raises(DriftOrderViolated):
            comparison_mc(hi, lo, r0=1.0, t=1.0, delta=0.5, R=5.0,
                          N=100, dt=1e-2, master_seed=1)


    def test_none_drift_is_zero_drift(self):
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        hi = Sde1D(drift=one)
        reports = [comparison_mc(hi, Sde1D(drift=d), r0=1.0, t=1.0,
                                 delta=0.5, R=20.0, N=1000, dt=1e-2,
                                 master_seed=54, coupling_paths=300)
                   for d in (None, zero)]
        assert reports[0] == reports[1]
        assert reports[0].coupled_dominance_fraction == 1.0
        with pytest.raises(DriftOrderViolated):
            comparison_mc(Sde1D(drift=None), Sde1D(drift=one), r0=1.0, t=1.0,
                          delta=0.5, R=5.0, N=100, dt=1e-2, master_seed=1)


class TestCoupledDominance:
    def test_shifted_drift_orders_paths(self):
        lo = Sde1D(drift=zero, sigma=math.sqrt(2.0))
        hi = Sde1D(drift=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                   lipschitz=None)
        frac = coupled_dominance(lo, hi, 1.0, 1.0, 1e-2, 1000,
                                 master_seed=7)
        assert frac == 1.0

    def test_none_drift_is_zero_drift(self):
        hi = Sde1D(drift=lambda x: np.ones_like(np.asarray(x, dtype=float)))
        fracs = [coupled_dominance(Sde1D(drift=d), hi, 1.0, 1.0, 1e-2, 600,
                                   master_seed=8) for d in (None, zero)]
        assert fracs == [1.0, 1.0]
        with pytest.raises(DriftOrderViolated):
            coupled_dominance(hi, Sde1D(drift=None), 1.0, 1.0, 1e-2, 10,
                              master_seed=8)

    def test_unequal_sigma_rejected(self):
        # shared noise scaled by 3 and by 1 orders only 0.2% of the pairs
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        with pytest.raises(DomainError, match="sigma"):
            coupled_dominance(Sde1D(drift=zero, sigma=3.0), Sde1D(drift=one, sigma=1.0),
                              1.0, 1.0, 1e-2, 1000, master_seed=7)

    def test_isotropic_nd_rejected(self):
        with pytest.raises(DomainError, match="IsotropicNd"):
            coupled_dominance(Sde1D(drift=zero, sigma=1.0), _isotropic(), 1.0,
                              1.0, 1e-2, 100, master_seed=7)

    def test_monotone_step_condition_enforced(self):
        steep = Sde1D(drift=lambda x: -500.0 * np.asarray(x, dtype=float),
                      lipschitz=500.0)
        with pytest.raises(DomainError):
            coupled_dominance(steep, steep, 1.0, 1.0, 1e-2, 10,
                              master_seed=1)

    def test_rejects_negative_path_count(self):
        s = Sde1D(drift=zero)
        with pytest.raises(DomainError):
            coupled_dominance(s, s, 1.0, 1.0, 1e-2, -3, master_seed=1)


class TestThreadedNoise:
    # 700 paths: two full 256-path noise chunks and a padded third
    def test_reports_independent_of_thread_count(self, monkeypatch):
        lo = Sde1D(drift=zero, sigma=math.sqrt(2.0))
        hi = Sde1D(drift=lambda x: np.ones_like(np.asarray(x, dtype=float)))
        results, values = [], []
        for threads in ("1", "2"):
            monkeypatch.setenv("ESCRATE_THREADS", threads)
            rep = comparison_mc(hi, lo, r0=1.0, t=0.6, delta=0.5, R=5.0,
                                N=700, dt=1e-3, master_seed=71)
            frac = coupled_dominance(lo, hi, 1.0, 0.6, 1e-3, 700,
                                     master_seed=72)
            results.append((dataclasses.asdict(rep), frac))
            values.append(ensemble(hi, 1.0, 0.6, 1e-3, 700,
                                   master_seed=73).values)
        assert results[0] == results[1]
        assert np.array_equal(values[0], values[1])

    def test_path_noise_independent_of_ensemble_size(self):
        s = Sde1D(drift=zero)
        x_small, exit_small = _terminal_run(s, 1.0, 0.6, 1e-3, 300, 5, 2.0)
        x_big, exit_big = _terminal_run(s, 1.0, 0.6, 1e-3, 700, 5, 2.0)
        assert x_small.shape == exit_small.shape == (300,)
        assert np.array_equal(x_small, x_big[:300])
        assert np.array_equal(exit_small, exit_big[:300])
        ens_small = ensemble(s, 1.0, 0.6, 1e-3, 300, master_seed=5)
        ens_big = ensemble(s, 1.0, 0.6, 1e-3, 700, master_seed=5)
        assert np.array_equal(ens_small.values, ens_big.values[:300])

    def test_malformed_thread_cap_rejected(self, monkeypatch):
        monkeypatch.setenv("ESCRATE_THREADS", "0")
        with pytest.raises(ConfigError):
            comparison_mc(Sde1D(drift=zero), Sde1D(drift=zero), r0=1.0,
                          t=0.1, delta=0.5, R=5.0, N=10, dt=1e-2,
                          master_seed=1)


class TestLilStatistic:
    def test_rejects_small_start(self, driftless_ens):
        with pytest.raises(DomainError):
            lil_statistic(driftless_ens, t0=2.0, T=10.0, eps_grid=[0.5])

    def test_fractions_nested_in_epsilon(self):
        s = Sde1D(drift=zero, sigma=1.0, floor=1e-6)
        ens = ensemble(s, 1e-6, 2000.0, 1.0, 1500, master_seed=606,
                       store_every=5)
        fracs = lil_statistic(ens, t0=10.0, T=2000.0,
                              eps_grid=[0.0, 0.25, 0.5, 1.0])
        assert np.all(np.diff(fracs) <= 0)
        assert fracs[0] > fracs[-1]


class TestStreamedReductions:
    """exceedance_mc and lil_mc reduce as the chains step; their fractions
    must equal the stored-ensemble reductions exactly, for every thread
    count. 700 paths fill two 256-path noise chunks and part of a third;
    500 steps stored every 7th leave step 500 to be stored as the last."""

    T, DT, N, EVERY = 5.0, 1e-2, 700, 7

    @staticmethod
    def _each_thread_count(monkeypatch, run):
        results = []
        for threads in ("1", None):
            if threads is None:
                monkeypatch.delenv("ESCRATE_THREADS", raising=False)
            else:
                monkeypatch.setenv("ESCRATE_THREADS", threads)
            results.append(run())
        return results

    @pytest.mark.parametrize("case", [
        "step0", "last_step", "sqrt", "table", "zero", "infinity"])
    def test_exceedance_equals_stored(self, monkeypatch, case):
        sde = Sde1D(drift=lambda x: 2.0 / np.asarray(x, dtype=float),
                    floor=0.01)
        C_grid, t0, expected = [1.0, 3.0], 1.0, None
        if case == "step0":
            rate, t0, expected = (lambda t: 0.0 if t == 0.0 else math.inf,
                                  0.0, [1.0, 1.0])
        elif case == "last_step":
            rate, expected = (lambda t: 0.0 if t >= 3.0 * self.T
                              else math.inf), [0.0, 1.0]
        elif case == "sqrt":
            rate, C_grid = math.sqrt, [4.0, 8.0, 16.0, 32.0]
        elif case == "table":
            ts = np.geomspace(0.5, 50.0, 30)
            rate = RateFunction(ts, 2.0 * np.sqrt(ts), r_star=0.0)
            C_grid = [1.0, 2.0, 4.0]
        elif case == "zero":
            rate, expected = (lambda t: 0.0), [1.0, 1.0]
        else:
            rate, expected = (lambda t: math.inf), [0.0, 0.0]
        args = (sde, 1.0, self.T, self.DT, self.N, 41)
        stored = exceedance(ensemble(*args, store_every=self.EVERY), rate,
                            C_grid, t0)
        for streamed in self._each_thread_count(monkeypatch, lambda: (
                exceedance_mc(*args, rate, C_grid, t0,
                              store_every=self.EVERY))):
            assert streamed.fractions.tolist() == stored.fractions.tolist()
            assert streamed.C_grid.tolist() == stored.C_grid.tolist()
            assert (streamed.t0, streamed.T, streamed.n_paths,
                    streamed.master_seed) == (stored.t0, stored.T,
                                              stored.n_paths,
                                              stored.master_seed)
        if expected is not None:
            assert stored.fractions.tolist() == expected
        else:
            assert 0.0 < stored.fractions[-1] < stored.fractions[0]

    @pytest.mark.parametrize("store_every", [1, 7])
    def test_column_major_store_reductions(self, store_every):
        # the stored reductions read ensemble's column-major values, the
        # streamed ones the kernel's states: the fractions agree
        sde = Sde1D(drift=lambda x: 2.0 / np.asarray(x, dtype=float),
                    sigma=1.0, floor=0.01)
        args = (sde, 1.0, 5.0, self.DT, self.N, 43)
        ens = ensemble(*args, store_every=store_every)
        assert ens.values.flags.f_contiguous
        C_grid, eps_grid = [2.0, 4.0, 8.0], [0.0, 0.5]
        stored = exceedance(ens, math.sqrt, C_grid, 1.0)
        streamed = exceedance_mc(*args, math.sqrt, C_grid, 1.0,
                                 store_every=store_every)
        assert streamed.fractions.tolist() == stored.fractions.tolist()
        assert 0.0 < stored.fractions[-1] < stored.fractions[0]
        lil = lil_statistic(ens, 3.0, ens.times[-1], eps_grid)
        assert lil_mc(*args, 3.0, eps_grid,
                      store_every=store_every).tolist() == lil.tolist()
        assert lil[0] > 0.0

    def test_nd_exceedance_equals_stored(self, monkeypatch):
        # the radii |X| of 300 paths at n = 3: 900 noise coordinates
        args = (_isotropic(), 1.0, self.T, self.DT, 300, 42)
        C_grid = [16.0, 64.0, 256.0]
        stored = exceedance(ensemble(*args, store_every=self.EVERY),
                            math.sqrt, C_grid, 1.0)
        for streamed in self._each_thread_count(monkeypatch, lambda: (
                exceedance_mc(*args, math.sqrt, C_grid, 1.0,
                              store_every=self.EVERY))):
            assert streamed.fractions.tolist() == stored.fractions.tolist()
        assert 0.0 < stored.fractions[-1] < stored.fractions[0]

    def test_lil_equals_stored(self, monkeypatch):
        sde = Sde1D(drift=zero, sigma=1.0, floor=1e-6)
        args = (sde, 1e-6, 500.0, 1.0, self.N, 606)
        eps_grid = [0.0, 0.25, 0.5, 1.0]
        ens = ensemble(*args, store_every=self.EVERY)
        stored = lil_statistic(ens, 10.0, ens.times[-1], eps_grid)
        for streamed in self._each_thread_count(monkeypatch, lambda: lil_mc(
                *args, 10.0, eps_grid, store_every=self.EVERY)):
            assert streamed.tolist() == stored.tolist()
        assert stored[0] > stored[-1]
