"""Statistical checks: envelope exceedance, Monte Carlo comparison,
coupled dominance, and the iterated-logarithm diagnostic."""

import math

import numpy as np
import pytest

from escrate import pinned
from escrate.errors import (
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
    lil_statistic,
)


def zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


# a driftless run of 400 paths on [0, 10], stored every 10th step
DRIFTLESS = (Sde1D(drift=zero), 1.0, 10.0, 1e-2, 400, 17)


class TestExceedance:
    def test_infinite_envelope_never_exceeded(self):
        fractions = exceedance(*DRIFTLESS, lambda t: np.full_like(t, np.inf),
                               C_grid=[1.0], t0=0.0, store_every=10)
        assert fractions[0] == 0.0

    def test_zero_envelope_always_exceeded(self):
        fractions = exceedance(*DRIFTLESS, lambda t: np.zeros_like(t),
                               C_grid=[1.0], t0=0.0, store_every=10)
        assert fractions[0] == 1.0

    def test_nonincreasing_in_scale(self):
        fractions = exceedance(*DRIFTLESS, lambda t: np.sqrt(np.maximum(t, 0.0)),
                               C_grid=[0.5, 1.0, 2.0, 4.0], t0=0.0,
                               store_every=10)
        assert np.all(np.diff(fractions) <= 0)

    @pytest.mark.parametrize("C", [math.nan, 0.0, -1.0])
    def test_nonpositive_or_nan_scale_rejected(self, C):
        # a NaN C would compare below every path and read as no exceedance
        with pytest.raises(DomainError, match="scale constants must be positive"):
            exceedance(*DRIFTLESS, lambda t: np.sqrt(t), C_grid=[1.0, C],
                       t0=0.0, store_every=10)

    def test_table_domain_enforced(self):
        profile = profile_from_radial(RadialCoefficient.constant(), 3, "unit_energy")
        rate = rate_table(profile, np.linspace(1.0, 5.0, 20))
        with pytest.raises(ExtrapolationError):
            exceedance(*DRIFTLESS, rate, C_grid=[1.0], t0=0.0, store_every=10)

    def test_envelope_fraction_within_pilot_bound(self):
        # repelling drift 2/r under the scaled Euclidean rate table;
        # configuration matches the pinned pilot exactly
        s = Sde1D(drift=lambda x: 2.0 / np.asarray(x, dtype=float),
                  floor=1e-6)
        fractions = exceedance(s, 1.0, 200.0, 1e-2, 2000, 404,
                               lambda t: math.sqrt(t * math.log(t)),
                               C_grid=[4.0], t0=10.0, store_every=100)
        assert fractions[0] <= pinned.ENVELOPE_C4_MAX_FRACTION

    def test_nd_escape_within_psi(self):
        # the paper's first theorem on the process of the Dirichlet form:
        # rho_tilde(|X_t|) > psi(C t) is the event |X_t| > rho_tilde^{-1}(
        # psi(C t)); configuration matches the pinned pilot exactly
        coeff = RadialCoefficient.power(1.0)
        psi = rate_table(profile_from_radial(coeff, 3, "unit_energy"),
                         np.geomspace(0.5, 1000.0, 60), scale_c=1.0)
        fractions = exceedance(IsotropicNd(coeff, 3, 0.01), 1.0, 20.0, 1e-2,
                               2000, 2012, euclidean_rate(psi, coeff),
                               C_grid=[1.0, 2.0, 4.0, 8.0], t0=1.0)
        assert np.all(np.diff(fractions) <= 0.0)
        assert fractions[1] <= pinned.ND_ENVELOPE_C2_MAX_FRACTION


def _isotropic():
    return IsotropicNd(RadialCoefficient.power(1.0), 3, 0.05)


class TestComparisonMc:
    def test_identical_drifts_agree(self):
        drift = lambda x: 1.0 / np.asarray(x, dtype=float)
        lo = Sde1D(drift=drift, floor=0.05, lipschitz=1.0 / 0.05 ** 2)
        rep = comparison_mc(lo, lo, r0=1.0, t=1.0, delta=0.8, R=5.0,
                            N=2000, dt=1e-3, master_seed=52)
        assert not rep.violation
        assert rep.coupled_dominance_fraction == 1.0
        gap = abs(rep.lhs_estimate - rep.rhs_estimate)
        assert gap <= 3.0 * math.hypot(rep.lhs_stderr, rep.rhs_stderr)

    def test_stronger_drift_reduces_return_probability(self):
        lo = Sde1D(drift=zero, sigma=math.sqrt(2.0))
        hi = Sde1D(drift=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                   lipschitz=None)
        rep = comparison_mc(hi, lo, r0=1.0, t=1.0, delta=0.5, R=50.0,
                            N=4000, dt=1e-3, master_seed=53)
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

    def test_path_count_beyond_a_run_rejected(self):
        # refused before either ensemble is allocated
        s = Sde1D(drift=zero)
        with pytest.raises(DomainError, match="noise coordinates"):
            comparison_mc(s, s, r0=1.0, t=1.0, delta=0.5, R=5.0, N=2 ** 63,
                          dt=1e-2, master_seed=1)

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
                                 master_seed=54)
                   for d in (None, zero)]
        assert reports[0] == reports[1]
        assert reports[0].coupled_dominance_fraction == 1.0
        with pytest.raises(DriftOrderViolated):
            comparison_mc(Sde1D(drift=None), Sde1D(drift=one), r0=1.0, t=1.0,
                          delta=0.5, R=5.0, N=100, dt=1e-2, master_seed=1)

    # coth against 1 + 1/r on a small floor, with no Lipschitz bound: some
    # coupled pairs cross, so the fraction is below 1
    FUSED = dict(r0=1.0, t=1.0, delta=1.0, R=2.5, N=300, dt=1e-2,
                 master_seed=55)

    def _fused_pair(self):
        low = Sde1D(drift=lambda r: 1.0 / np.tanh(np.asarray(r, dtype=float)),
                    floor=0.01, lipschitz=None)
        high = Sde1D(drift=lambda r: 1.0 + 1.0 / np.asarray(r, dtype=float),
                     floor=0.01, lipschitz=None)
        return high, low

    def test_coupling_leaves_the_estimates(self):
        # the dominated companions share the lhs noise and leave the lhs
        # paths as a run of the dominating chain alone
        high, low = self._fused_pair()
        f = self.FUSED
        rep = comparison_mc(high, low, **f)
        _, x, exited = _terminal_run([high], f["r0"], f["t"], f["dt"], f["N"],
                                     rep.seeds["lhs"], f["R"])
        p = float(np.mean(~exited & (x < f["delta"])))
        assert (rep.lhs_estimate, rep.lhs_stderr) == (
            p, math.sqrt(p * (1.0 - p) / f["N"]))
        assert 0.0 < rep.lhs_estimate < rep.rhs_estimate < 1.0

    def test_coupled_pairs_are_the_lhs_paths(self):
        high, low = self._fused_pair()
        rep = comparison_mc(high, low, **self.FUSED)
        f = self.FUSED
        assert rep.coupled_dominance_fraction == coupled_dominance(
            low, high, f["r0"], f["t"], f["dt"], f["N"], rep.seeds["lhs"])
        assert 0.5 < rep.coupled_dominance_fraction < 1.0
        assert set(rep.seeds) == {"lhs", "rhs"}

    def test_two_kernel_runs(self, monkeypatch):
        # two noise streams: lhs, each path with a dominated companion, and
        # rhs
        from escrate import verify as verify_mod

        runs = []

        def counted(sdes, *args):
            runs.append(len(sdes))
            return kernel(sdes, *args)

        kernel = verify_mod._shared_noise_run
        monkeypatch.setattr(verify_mod, "_shared_noise_run", counted)
        high, low = self._fused_pair()
        comparison_mc(high, low, **self.FUSED)
        assert runs == [2, 1]


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

    def test_path_count_beyond_a_run_rejected(self):
        s = Sde1D(drift=zero)
        with pytest.raises(DomainError, match="noise coordinates"):
            coupled_dominance(s, s, 1.0, 1.0, 1e-2, 2 ** 63, master_seed=1)


class TestPathNoise:
    # 700 paths: two full 256-path noise chunks and a padded third
    def test_path_noise_independent_of_ensemble_size(self):
        s = Sde1D(drift=zero)
        _, x_small, exit_small = _terminal_run([s], 1.0, 0.6, 1e-3, 300, 5, 2.0)
        _, x_big, exit_big = _terminal_run([s], 1.0, 0.6, 1e-3, 700, 5, 2.0)
        assert x_small.shape == exit_small.shape == (300,)
        assert np.array_equal(x_small, x_big[:300])
        assert np.array_equal(exit_small, exit_big[:300])
        ens_small = ensemble(s, 1.0, 0.6, 1e-3, 300, master_seed=5)
        ens_big = ensemble(s, 1.0, 0.6, 1e-3, 700, master_seed=5)
        assert np.array_equal(ens_small.values, ens_big.values[:300])


class TestLilStatistic:
    def test_rejects_small_start(self):
        with pytest.raises(DomainError):
            lil_statistic(*DRIFTLESS, t0=2.0, eps_grid=[0.5], store_every=10)

    def test_nan_epsilon_rejected(self):
        # a NaN row would compare below every path and read as no exceedance
        with pytest.raises(DomainError, match="eps must not be NaN"):
            lil_statistic(*DRIFTLESS, t0=3.0, eps_grid=[0.5, math.nan],
                          store_every=10)

    def test_fractions_nested_in_epsilon(self):
        s = Sde1D(drift=zero, sigma=1.0, floor=1e-6)
        fracs = lil_statistic(s, 1e-6, 2000.0, 1.0, 1500, 606, t0=10.0,
                              eps_grid=[0.0, 0.25, 0.5, 1.0], store_every=5)
        assert np.all(np.diff(fracs) <= 0)
        assert fracs[0] > fracs[-1]


def _reference(ens, window, env):
    """Plain-numpy fractions of ``ens``'s paths above env[i] at some stored
    time of ``window``, one per row i of ``env``."""
    values = ens.values[:, window]
    return (values[None] > env[:, None, :]).any(axis=2).mean(axis=1)


def _exceedance_reference(ens, rate, C_grid, t0):
    window = ens.times >= t0
    env = np.array([[float(rate(C * t)) for t in ens.times[window].tolist()]
                    for C in C_grid])
    return _reference(ens, window, env)


def _lil_reference(ens, t0, eps_grid):
    window = ens.times >= t0
    ts = ens.times[window]
    base = np.sqrt(2.0 * ts * np.log(np.log(ts)))
    return _reference(ens, window, (1.0 + np.asarray(eps_grid)[:, None]) * base)


class TestStreamedReductions:
    """exceedance and lil_statistic reduce as the chains step; their
    fractions must equal a plain-numpy reduction of the stored ensemble
    exactly. 700 paths fill two 256-path noise chunks and part of a third;
    500 steps stored every 7th leave step 500 to be stored as the last."""

    T, DT, N, EVERY = 5.0, 1e-2, 700, 7

    @pytest.mark.parametrize("case", [
        "step0", "last_step", "sqrt", "table", "zero", "infinity"])
    def test_exceedance_equals_stored(self, case):
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
        stored = _exceedance_reference(ensemble(*args, store_every=self.EVERY),
                                       rate, C_grid, t0)
        streamed = exceedance(*args, rate, C_grid, t0, store_every=self.EVERY)
        assert streamed.tolist() == stored.tolist()
        if expected is not None:
            assert stored.tolist() == expected
        else:
            assert 0.0 < stored[-1] < stored[0]

    @pytest.mark.parametrize("store_every", [1, 7])
    def test_column_major_store_reductions(self, store_every):
        # the reference reads ensemble's column-major values, the streamed
        # reductions the kernel's states: the fractions agree
        sde = Sde1D(drift=lambda x: 2.0 / np.asarray(x, dtype=float),
                    sigma=1.0, floor=0.01)
        args = (sde, 1.0, 5.0, self.DT, self.N, 43)
        ens = ensemble(*args, store_every=store_every)
        assert ens.values.flags.f_contiguous
        C_grid, eps_grid = [2.0, 4.0, 8.0], [0.0, 0.5]
        stored = _exceedance_reference(ens, math.sqrt, C_grid, 1.0)
        streamed = exceedance(*args, math.sqrt, C_grid, 1.0,
                              store_every=store_every)
        assert streamed.tolist() == stored.tolist()
        assert 0.0 < stored[-1] < stored[0]
        lil = _lil_reference(ens, 3.0, eps_grid)
        assert lil_statistic(*args, 3.0, eps_grid,
                             store_every=store_every).tolist() == lil.tolist()
        assert lil[0] > 0.0

    def test_nd_exceedance_equals_stored(self):
        # the radii |X| of 300 paths at n = 3: 900 noise coordinates
        args = (_isotropic(), 1.0, self.T, self.DT, 300, 42)
        C_grid = [16.0, 64.0, 256.0]
        stored = _exceedance_reference(ensemble(*args, store_every=self.EVERY),
                                       math.sqrt, C_grid, 1.0)
        streamed = exceedance(*args, math.sqrt, C_grid, 1.0,
                              store_every=self.EVERY)
        assert streamed.tolist() == stored.tolist()
        assert 0.0 < stored[-1] < stored[0]

    def test_lil_equals_stored(self):
        sde = Sde1D(drift=zero, sigma=1.0, floor=1e-6)
        args = (sde, 1e-6, 500.0, 1.0, self.N, 606)
        eps_grid = [0.0, 0.25, 0.5, 1.0]
        stored = _lil_reference(ensemble(*args, store_every=self.EVERY), 10.0,
                                eps_grid)
        streamed = lil_statistic(*args, 10.0, eps_grid, store_every=self.EVERY)
        assert streamed.tolist() == stored.tolist()
        assert stored[0] > stored[-1]


class TestRunGate:
    """Each public Monte Carlo entry point checks its run once, before it
    allocates; the Euler kernel trusts that check."""

    def test_each_entry_point_checks_once(self, monkeypatch):
        from escrate import sde as sde_mod
        from escrate import verify as verify_mod

        gate, calls = sde_mod._check_sim_args, []

        def counted(*args, **kwargs):
            calls.append(args)
            return gate(*args, **kwargs)

        monkeypatch.setattr(sde_mod, "_check_sim_args", counted)
        monkeypatch.setattr(verify_mod, "_check_sim_args", counted)
        low = Sde1D(drift=zero, sigma=1.0, floor=1e-6)
        high = Sde1D(drift=lambda x: zero(x) + 1.0, sigma=1.0, floor=1e-6)
        runs = {
            "ensemble": lambda: ensemble(low, 1.0, 0.5, 0.01, 10, 1),
            "exceedance": lambda: exceedance(
                low, 1.0, 0.5, 0.01, 10, 1, math.sqrt, [1.0], 0.1),
            "lil_statistic": lambda: lil_statistic(
                low, 1.0, 5.0, 0.01, 10, 1, 3.0, [0.0, 1.0]),
            "coupled_dominance": lambda: coupled_dominance(
                low, high, 1.0, 0.5, 0.01, 10, 1),
            "comparison_mc": lambda: comparison_mc(
                high, low, 1.0, 0.5, 0.5, 5.0, 10, 0.01, 1),
        }
        counts = {}
        for name, run in runs.items():
            calls.clear()
            run()
            counts[name] = len(calls)
        assert counts == {"ensemble": 1, "exceedance": 1, "lil_statistic": 1,
                          "coupled_dominance": 1, "comparison_mc": 1}

    def test_store_every_beyond_int64_stores_first_and_last(self):
        # any store_every from the run's step count up stores steps 0 and
        # int(T / dt) alone, on an int64 schedule
        sde = Sde1D(drift=None, sigma=1.0, floor=1e-6)
        T, dt = 5.0, 1e-2
        args = (sde, 1.0, T, dt, 50, 8)
        huge, last = 10 ** 20, int(T / dt)
        ens = [ensemble(*args, store_every=e) for e in (huge, last)]
        assert ens[0].times.dtype == np.float64
        assert ens[0].times.tolist() == ens[1].times.tolist() == [0.0, T]
        assert np.array_equal(ens[0].values, ens[1].values)

        def fractions(store_every):
            return (exceedance(*args, math.sqrt, [0.5, 1.0], 1.0,
                               store_every=store_every).tolist(),
                    lil_statistic(*args, 3.0, [0.0, 1.0],
                                  store_every=store_every).tolist())

        assert fractions(huge) == fractions(last)
