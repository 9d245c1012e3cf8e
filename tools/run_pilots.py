"""Pilot runs that pin Monte Carlo thresholds before they are frozen.

Uses PCG64 streams, deliberately different from the Philox streams of the
package's simulators, and Euler loops of its own, so the pinned numbers in
escrate.pinned are independent of the implementation they later judge.
Contracts with a computed reference (tests/oracles.py) have no pilot. Rerun
with

    python tools/run_pilots.py

and compare the printed values against src/escrate/pinned.py.
"""

import argparse
import math

import numpy as np

FLOOR = 1e-6


def simulate_clamped(rng, drift, sigma, x0, dt, n_steps, n_paths, store_every):
    """Euler chain x <- max(floor, x + drift(x) dt + sigma sqrt(dt) xi),
    vectorized over paths, storing every store_every-th step."""
    sqdt = math.sqrt(dt)
    x = np.full(n_paths, float(x0))
    stored = [x.copy()]
    times = [0.0]
    for k in range(1, n_steps + 1):
        z = rng.standard_normal(n_paths)
        x = x + drift(x) * dt + sigma * sqdt * z
        np.maximum(x, FLOOR, out=x)
        if k % store_every == 0 or k == n_steps:
            stored.append(x.copy())
            times.append(k * dt)
    return np.array(times), np.stack(stored, axis=1)


def lil_pilot(reps=10, n_paths=10_000, dt=1.0, T=10_000.0, t0=10.0,
              store_every=5, eps=0.5, seed=777):
    """Exceedance fraction of (1+eps) sqrt(2 t log log t) for clamped BM."""
    fractions = []
    for rep in range(reps):
        rng = np.random.default_rng(seed + rep)
        times, vals = simulate_clamped(rng, lambda x: 0.0, 1.0, FLOOR, dt,
                                       int(T / dt), n_paths, store_every)
        win = times >= t0
        env = (1.0 + eps) * np.sqrt(2.0 * times[win] * np.log(np.log(times[win])))
        frac = np.mean(np.any(np.abs(vals[:, win]) > env[None, :], axis=1))
        fractions.append(float(frac))
    return np.array(fractions)


def exit_pilot(reps=5, n_paths=10_000, dt=1e-2, T=50.0, x0=0.5, R=1.0, seed=888):
    """Fraction of driftless sigma = sqrt(2) paths exceeding R by time T."""
    fractions = []
    for rep in range(reps):
        rng = np.random.default_rng(seed + rep)
        sqdt = math.sqrt(dt)
        x = np.full(n_paths, x0)
        exited = np.zeros(n_paths, dtype=bool)
        for _ in range(int(T / dt)):
            x = x + math.sqrt(2.0) * sqdt * rng.standard_normal(n_paths)
            np.maximum(x, FLOOR, out=x)
            exited |= x > R
        fractions.append(float(exited.mean()))
    return np.array(fractions)


def envelope_pilot(reps=5, n_paths=2000, dt=1e-2, T=200.0, t0=10.0, C=4.0,
                   store_every=100, seed=999):
    """Exceedance of sqrt(Ct log Ct) for the 3-d Bessel-type radial chain
    (drift 2/r, sigma sqrt(2))."""
    fractions = []
    for rep in range(reps):
        rng = np.random.default_rng(seed + rep)
        times, vals = simulate_clamped(rng, lambda x: 2.0 / x, math.sqrt(2.0),
                                       1.0, dt, int(T / dt), n_paths, store_every)
        win = times >= t0
        ct = C * times[win]
        env = np.sqrt(ct * np.log(ct))
        frac = np.mean(np.any(vals[:, win] > env[None, :], axis=1))
        fractions.append(float(frac))
    return np.array(fractions)


def speed_pilot(reps=5, n_paths=1000, dt=1e-2, T=50.0, seed=555):
    """Mean final/T for the coth-drift chain (hyperbolic n=2, K=1)."""
    means = []
    for rep in range(reps):
        rng = np.random.default_rng(seed + rep)
        sqdt = math.sqrt(dt)
        x = np.full(n_paths, 1.0)
        for _ in range(int(T / dt)):
            x = x + (1.0 / np.tanh(x)) * dt + math.sqrt(2.0) * sqdt * rng.standard_normal(n_paths)
            np.maximum(x, 0.05, out=x)
        means.append(float(x.mean() / T))
    return np.array(means)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()

    lil = lil_pilot()
    se = math.sqrt(lil.mean() * (1 - lil.mean()) / 10_000)
    print(f"lil eps=0.5 fractions: {np.round(lil, 4)}")
    print(f"  suggested pin (max + 5 se): {lil.max() + 5 * se:.4f}")

    ex = exit_pilot()
    print(f"driftless exit fractions: {np.round(ex, 4)} (claim: >= 0.99)")

    env = envelope_pilot()
    se = math.sqrt(max(env.mean() * (1 - env.mean()), 1e-4) / 2000)
    print(f"envelope C=4 fractions: {np.round(env, 4)}")
    print(f"  suggested pin (max + 5 se): {env.max() + 5 * se:.4f}")

    sp = speed_pilot()
    print(f"hyperbolic speed mean final/T: {np.round(sp, 4)} (claim: within 10% of 1)")


if __name__ == "__main__":
    main()
