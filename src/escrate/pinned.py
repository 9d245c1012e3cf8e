"""Frozen Monte Carlo thresholds and numeric oracles.

Thresholds come from tools/run_pilots.py, which estimates each statistic
with PCG64 streams — independent of the Philox streams the simulators use.
Oracle values were computed with plain composite rules on dense grids.
Do not tune these to make tests pass; rerun the pilot script instead and
record why a value moved.
"""

# 99th-percentile-style cap (pilot max + 5 binomial standard errors) for the
# fraction of clamped standard-Brownian paths exceeding
# 1.5 * sqrt(2 t log log t) somewhere on [10, 1e4], with dt = 1, N = 1e4,
# values stored every 5 steps. Pilot runs: 0.130 - 0.139.
LIL_EPS05_MAX_FRACTION = 0.156

# Cap for the fraction of 3-d Bessel-type radial paths (drift 2/r, sigma
# sqrt(2), x0 = 1) exceeding sqrt(4t log 4t) somewhere on [10, 200], with
# dt = 1e-2, N = 2000, values stored every 100 steps. Pilot runs:
# 0.192 - 0.216.
ENVELOPE_C4_MAX_FRACTION = 0.261

# Cap for the fraction of IsotropicNd(power(1), 3, 0.01) paths from x0 = 1
# with rho_tilde(|X_t|) > psi(2t) at some step in [1, 20] (psi: unit_energy
# table on geom:0.5:1000:60, scale_c 1), dt = 1e-2, N = 2000. Pilot runs:
# 0.0515, 0.0505, 0.0490, 0.0555, 0.0515 (max + 5 se = 0.0802).
ND_ENVELOPE_C2_MAX_FRACTION = 0.080

# Driftless sigma = sqrt(2) paths from x0 = 0.5 cross the barrier R = 1 by
# T = 50 essentially always; all pilot replicates gave fraction 1.0.
DRIFTLESS_EXIT_MIN_FRACTION = 0.99

# Crossing-time integral of r / (3 log r + log log r) over [2, 10],
# composite trapezoid on 1e6 + 1 equally spaced points.
PHI_EUCLID3_2_10_TRAPEZOID = 8.329685932619382
