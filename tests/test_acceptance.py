"""End-to-end acceptance checks.

Each test freezes one headline property of the package: closed-form
reproduction of the rate catalogue, inversion accuracy, quadrature fidelity,
conservativeness verdicts, the dyadic bound scheme, the drift-comparison
inequality, linear hyperbolic escape, the iterated-logarithm statistic,
byte-level determinism of the CLI, and a moment identity for the
Bessel-type chain. Monte Carlo thresholds are the pilot-pinned values from
escrate.pinned; tolerances here are contracts, not knobs.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from escrate import pinned
from escrate import rate_solver as rs
from escrate.profiles import catalogue_case, closed_form_rate
from escrate.sde import Sde1D, ensemble
from escrate.verify import comparison_mc, lil_statistic

FLOOR = 0.05  # keeps dt * Lipschitz <= 1 for the singular hyperbolic drifts


def coth(r):
    return 1.0 / np.tanh(r)


# ---------------------------------------------------------------------------
# 1. Closed-form reproduction
# ---------------------------------------------------------------------------

POWER_TYPE_CASES = [
    ("diri1", {}),
    ("diri2", {"alpha": 0.5}),
    ("diri3", {"beta": 0.25}),
    ("geo1", {}),
    ("geo2", {"alpha": 0.5}),
    ("geo3", {"beta": 0.25}),
    ("g_alpha", {"alpha": -1.0}),
    ("g_alpha", {"alpha": 0.0}),
    ("g_alpha", {"alpha": 0.5}),
    ("hyperbolic_linear", {"n": 3, "K": 1.0, "eps": 0.1}),
]


def test_closed_form_reproduction():
    start = time.perf_counter()
    t = 1e8
    for kind, kw in POWER_TYPE_CASES:
        case = catalogue_case(kind, **kw)
        num = rs.catalogue_numeric_rate(case, t)
        ref = closed_form_rate(case, t)[0]
        dev = abs(math.log(num) / math.log(ref) - 1.0)
        assert dev <= 0.05, f"{kind} {kw}: exponent deviation {dev:.4f}"
    # exponential regime: log(psi)/t must stabilize on [20, 40]
    for kind in ("diri3", "geo3"):
        case = catalogue_case(kind, beta=1.0)
        ts = np.array([20.0, 25.0, 30.0, 35.0, 40.0])
        q = np.array([math.log(rs.catalogue_numeric_rate(case, u)) / u for u in ts])
        const = q.mean()
        assert np.max(np.abs(q - const)) <= 0.05 * const, f"{kind} beta=1: {q}"
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 2. Inversion round trip
# ---------------------------------------------------------------------------

CATALOGUE_PROFILES = [
    ("diri1", {}),
    ("diri2", {"alpha": 0.5}),
    ("diri3", {"beta": 0.25}),
    ("diri3", {"beta": 1.0}),
]


def test_inversion_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    for kind, kw in CATALOGUE_PROFILES:
        profile = catalogue_case(kind, **kw).profile
        r_lo = rs.effective_lower_limit(profile)
        hi = min(profile.r_max, 1e8)
        radii = np.exp(rng.uniform(np.log(2 * r_lo), np.log(hi), 100))
        for R in radii:
            t = rs.phi(profile, R, r_lo)
            back = rs.psi(profile, t, r_lo)
            assert abs(back / R - 1.0) <= 1e-7
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 3. Quadrature oracle
# ---------------------------------------------------------------------------

def test_quadrature_against_trapezoid():
    # frozen reference: Euclidean-style denominator 3 log r + log log r
    from escrate.profiles import GrowthProfile
    prof = GrowthProfile(log_volume=lambda r: 3.0 * np.log(r),
                         energy_bound=lambda r: 1.0,
                         r_max=math.inf)
    got = rs.phi(prof, 10.0, 2.0)
    assert abs(got / pinned.PHI_EUCLID3_2_10_TRAPEZOID - 1.0) <= 1e-6

    # independent composite rule on every catalogue profile
    for kind, kw in CATALOGUE_PROFILES:
        profile = catalogue_case(kind, **kw).profile
        r_lo = rs.effective_lower_limit(profile)
        R = min(profile.r_max, 1e4)
        r = np.linspace(r_lo, R, 1_000_001)
        lam = np.array([profile.lam(v) for v in (r_lo, R)])  # lambda == 1 here
        assert np.allclose(lam, 1.0)
        den = profile.V(r) + np.log(np.log(r))
        oracle = np.trapezoid(r / den, r)
        got = rs.phi(profile, R, r_lo)
        assert abs(got / oracle - 1.0) <= 1e-6, f"{kind} {kw}"


# ---------------------------------------------------------------------------
# 4. Conservativeness verdicts
# ---------------------------------------------------------------------------

def test_conservativeness_verdicts():
    from escrate.profiles import RadialCoefficient
    for alpha in (0.0, 1.0, 2.0):
        v = rs.conservativeness(RadialCoefficient.power(alpha))
        assert v.kind == "Conservative"
    assert rs.conservativeness(RadialCoefficient.power(3.0)).kind == "NonConservative"
    for beta in (0.0, 1.0):
        v = rs.conservativeness(RadialCoefficient.squared_log(beta))
        assert v.kind == "Conservative"
    assert rs.conservativeness(RadialCoefficient.squared_log(2.0)).kind == "NonConservative"


# ---------------------------------------------------------------------------
# 5. Dyadic scheme
# ---------------------------------------------------------------------------

def test_dyadic_scheme_bounds():
    profile = catalogue_case("diri1").profile
    scheme = rs.dyadic_scheme(profile, c=4.0, N=30)
    total = scheme.partial_sums[-1]
    assert math.isfinite(total)
    assert scheme.bound[-1] < 1e-3 * total
    # bound_n * n^2 roughly constant over the deep levels
    n = np.arange(1, 31)
    prod = (n ** 2) * scheme.bound
    window = prod[19:30]
    mid = 0.5 * (window.max() + window.min())
    assert np.max(np.abs(window - mid)) <= 0.2 * mid
    # cumulative times dominate the 1/256-scaled crossing integral
    assert np.all(scheme.slack >= 0)


# ---------------------------------------------------------------------------
# 6. Comparison inequality
# ---------------------------------------------------------------------------

def test_comparison_inequality_20_seeds():
    low = Sde1D(drift=coth, floor=FLOOR, lipschitz=1.0 / math.sinh(FLOOR) ** 2)
    high = Sde1D(drift=lambda r: 1.0 + 1.0 / r, floor=FLOOR,
                 lipschitz=1.0 / FLOOR ** 2)
    start = time.perf_counter()
    report = comparison_mc(high, low, r0=1.0, t=5.0, delta=2.0, R=20.0,
                           N=10_000, dt=1e-3, master_seed=6001)
    assert report.coupled_dominance_fraction == 1.0
    assert not report.violation
    for seed in range(6002, 6021):
        rep = comparison_mc(high, low, r0=1.0, t=5.0, delta=2.0, R=20.0,
                            N=10_000, dt=1e-3, master_seed=seed,
                            coupling_paths=0)
        assert not rep.violation, f"seed {seed}: lhs={rep.lhs_estimate} rhs={rep.rhs_estimate}"
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 7. Hyperbolic linear escape speed
# ---------------------------------------------------------------------------

def test_hyperbolic_linear_speed():
    sde = Sde1D(drift=coth, floor=FLOOR)
    ens = ensemble(sde, 1.0, 50.0, 1e-2, 1000, master_seed=7007,
                   store_every=5000)
    speed = float(np.mean(ens.values[:, -1])) / 50.0
    assert abs(speed - 1.0) <= 0.10


# ---------------------------------------------------------------------------
# 8. Iterated-logarithm statistic
# ---------------------------------------------------------------------------

def test_lil_fractions():
    sde = Sde1D(drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                sigma=1.0, floor=1e-6)
    fractions = lil_statistic(sde, 1e-6, 1e4, 1.0, 10_000, 8008, 10.0,
                              [0.0, 0.25, 0.5, 1.0], store_every=5)
    assert np.all(np.diff(fractions) < 0), fractions
    assert fractions[2] <= pinned.LIL_EPS05_MAX_FRACTION, fractions


# ---------------------------------------------------------------------------
# 9. CLI determinism
# ---------------------------------------------------------------------------

def test_cli_determinism(tmp_path):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(
        "[model]\nwarp = hyperbolic\nn = 2\nk = 1.0\n\n"
        "[simulation]\nx0 = 1.0\nt = 2.0\ndt = 0.01\nn_paths = 20\n"
        "master_seed = 99\ndrift = manifold\noutput = paths\n")
    outputs = []
    for run in range(2):
        out = tmp_path / f"run_{run}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "escrate.cli", "simulate",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# 10. Bessel-type moment identity
# ---------------------------------------------------------------------------

def test_bessel_moment_identity():
    # generator f'' + theta f' applied to r^2 gives E x_T^2 = x0^2 + 4T
    # for theta = 1/x with sigma = sqrt(2). The floor sits at sqrt(dt): the
    # Euler map is unstable below it (drift kick dt/x exceeds x), and the
    # 1/x drift contracts pair distances, so reflection bias stays O(floor).
    sde = Sde1D(drift=lambda x: 1.0 / x, floor=0.01)
    ens = ensemble(sde, 1.0, 1.0, 1e-4, 20_000, master_seed=1010,
                   store_every=10_000)
    sq = ens.values[:, -1] ** 2
    mean = float(np.mean(sq))
    se = float(np.std(sq, ddof=1)) / math.sqrt(sq.size)
    assert abs(mean - 5.0) <= 3.0 * se, (mean, se)
