"""The benchmark's four workloads: fixed lists of ``escrate`` CLI calls.

Each call is a subcommand, an INI config, the exit code it must return, and
the check its output must pass. Calls that simulate take the run's seed as
``--seed``; nothing else depends on it. ``rows`` and ``path_steps`` are the
work a call does, computed from its config: rows of a rate table, and Euler
updates of one chain (one path, one step).

Left out on purpose, until the intrinsic-radius transform is vectorised:
``tabulated`` coefficients in ``unit_energy`` mode (over 110 s for a 3-row
table, scalar PCHIP calls inside nested quadrature) and ``drift =
coefficient`` (one quad and one brentq per path per step, about 3 h for a
default 5000-step run of 1000 paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import checks


@dataclass(frozen=True)
class Call:
    name: str
    command: tuple           # subcommand words, e.g. ("verify", "lil")
    config: Optional[str]    # INI text, or None for ``catalogue``
    check: Callable          # check(out, err) -> list of problems
    expect_rc: int = 0
    seeded: bool = False     # pass the run's seed as --seed
    rows: int = 0            # rate-table rows printed
    path_steps: int = 0      # Euler updates of one chain, summed over chains


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple             # timed, in this order, in every pass
    throughput: str          # "rows", "path_steps" or "calls": the unit of work
    # run once, untimed, in one process, checked like timed calls: their
    # work is negligible next to interpreter start, which setup_s measures
    once: tuple = ()
    probes: tuple = ()       # known-defect probes: untimed, counted in error_rate


def _ini(**sections) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items())


def _rate_call(name, model, points, t_grid=None):
    spec = t_grid or f"geom:1:1e6:{points}"
    return Call(name, ("rate",), _ini(model=model, solver={"t_grid": spec}),
                partial(checks.rate, rows=points), rows=points)


# Tabulated coefficient a(r) = 1 + sqrt(r) on radii 0, 2^0, ..., 2^30.
_TAB_RADII = [0.0] + [2.0 ** k for k in range(31)]
_TABULATED = {
    "family": "tabulated", "n": 3, "mode": "coefficient_energy",
    "radii": ",".join("%.17g" % r for r in _TAB_RADII),
    "values": ",".join("%.17g" % (1.0 + math.sqrt(r)) for r in _TAB_RADII),
}
_CONSTANT3 = {"family": "constant", "n": 3, "mode": "unit_energy"}
_POWER1 = {"family": "power", "alpha": 1, "n": 3}
_HYPERBOLIC = {"warp": "hyperbolic", "n": 2, "k": 1}


def _steps(t, dt):
    return int(t / dt)


RATE_TABLES = Workload(
    name="rate_tables",
    why=("psi quadrature, rho_tilde_inverse and PCHIP rate tables with no sde "
         "or verify: bypass for simulation changes; tabulated unit_energy "
         "(>110 s) is left out"),
    throughput="rows",
    calls=(
        _rate_call("rate_constant", _CONSTANT3, 200),
        _rate_call("rate_power_unit", dict(_POWER1, mode="unit_energy"), 40),
        _rate_call("rate_power_coefficient",
                   dict(_POWER1, mode="coefficient_energy"), 100),
        _rate_call("rate_tabulated", _TABULATED, 3),
    ),
    once=(
        Call("verify_dyadic", ("verify", "dyadic"),
             _ini(model={"family": "constant", "n": 1, "mode": "unit_energy"},
                  verify={"c": 4, "n_levels": 30}),
             checks.passed),
        Call("conserve_tabulated", ("conserve",),
             _ini(model={k: v for k, v in _TABULATED.items() if k != "mode"}),
             partial(checks.conserve, kind="Inconclusive")),
    ),
    probes=(
        # Exits 3 with "QuadratureFailure ... estimate nan" and a raw
        # IntegrationWarning: exp(exp(t)) overflows inside phi.
        _rate_call("probe_squared_log_beta1",
                   {"family": "squared_log", "beta": 1, "n": 3,
                    "mode": "unit_energy"}, 50),
        # Exits 3 from the psi_tilde column (rho_tilde quadrature fails).
        _rate_call("probe_squared_log_beta05",
                   {"family": "squared_log", "beta": 0.5, "n": 3,
                    "mode": "unit_energy"}, 1, t_grid="100"),
    ),
)

# The acceptance test's verify compare (N = 10^4, dt = 1e-3) on t = 1.25
# instead of 5: the arrays, and so the kernels' cache behaviour, stay the
# same, and the call is short enough for the reference loops around it to
# track the core's speed (see bench/run.py).
_COMPARE_N, _COMPARE_T, _COMPARE_DT = 10_000, 1.25, 1e-3

MC_COMPARE = Workload(
    name="mc_compare",
    why=("verify compare of the acceptance test on t=1.25: lean Philox/drift "
         "Euler kernels with no storage, CSV or quadrature; bypass for solver "
         "and CSV changes"),
    throughput="path_steps",
    calls=(
        Call("verify_compare", ("verify", "compare"),
             _ini(model=_HYPERBOLIC,
                  simulation={"x0": 1, "floor": 0.05, "master_seed": 6001},
                  verify={"n_paths": _COMPARE_N, "dt": _COMPARE_DT,
                          "t": _COMPARE_T, "r": 20, "delta": 2}),
             checks.compare, seeded=True,
             # two terminal runs and one coupled pair: four chains
             path_steps=4 * _COMPARE_N * _steps(_COMPARE_T, _COMPARE_DT)),
    ),
)

_PATHS_N, _PATHS_T, _PATHS_DT = 50, 50.0, 0.01
_ENV_N, _ENV_T, _ENV_DT = 1000, 200.0, 0.01
# The pinned LIL pilot's paths (10^4 Brownian paths, unit steps, every 5th
# stored) on [0, 5000] instead of [0, 10^4]: an exceedance on the shorter
# window is one on the longer, so the pinned cap still bounds the fraction.
_LIL_N, _LIL_T, _LIL_DT = 10_000, 5000.0, 1.0


def _mc_paths(lil_cap: float) -> Workload:
    return Workload(
        name="mc_paths",
        why=("stored float64 paths, exceedance/LIL reductions and 10 MB of "
             "CSV: catches a kernel change that slows storage or CSV; "
             "drift=coefficient (~3 h) is left out"),
        throughput="path_steps",
        calls=(
            Call("simulate_paths", ("simulate",),
                 _ini(model=_HYPERBOLIC,
                      simulation={"x0": 1, "t": _PATHS_T, "dt": _PATHS_DT,
                                  "n_paths": _PATHS_N, "master_seed": 7,
                                  "drift": "manifold", "floor": 0.05,
                                  "output": "paths"}),
                 partial(checks.paths, n_paths=_PATHS_N,
                         steps=_steps(_PATHS_T, _PATHS_DT)),
                 seeded=True,
                 path_steps=_PATHS_N * _steps(_PATHS_T, _PATHS_DT)),
            # Bessel-3 chain (drift 2/r, sigma sqrt 2) against the n=3 envelope.
            Call("verify_envelope", ("verify", "envelope"),
                 _ini(model=dict(_CONSTANT3, warp="euclidean"),
                      solver={"t_grid": "geom:1:1000:60", "scale_c": 1},
                      simulation={"x0": 1, "t": _ENV_T, "dt": _ENV_DT,
                                  "n_paths": _ENV_N, "master_seed": 9,
                                  "drift": "manifold", "floor": 0.01,
                                  "store_every": 100},
                      verify={"c_grid": "1,2,4", "t0": 10}),
                 checks.passed, seeded=True,
                 path_steps=_ENV_N * _steps(_ENV_T, _ENV_DT)),
            Call("verify_lil", ("verify", "lil"),
                 _ini(simulation={"x0": 1e-6, "t": _LIL_T, "dt": _LIL_DT,
                                  "n_paths": _LIL_N, "master_seed": 8008,
                                  "drift": "none", "sigma": 1, "floor": 1e-6,
                                  "store_every": 5},
                      verify={"t0": 10, "eps_grid": "0,0.25,0.5,1.0"}),
                 partial(checks.lil, cap=lil_cap), seeded=True,
                 path_steps=_LIL_N * _steps(_LIL_T, _LIL_DT)),
        ),
    )


_README_SIM = {"x0": 1, "t": 50, "dt": 0.01, "n_paths": 1000,
               "master_seed": 7, "drift": "manifold", "floor": 0.05,
               "output": "summary"}

CLI_SHORT = Workload(
    name="cli_short",
    why=("short calls where interpreter start and imports are 70-90% of the "
         "time: the only workload where the import layer moves an end-to-end "
         "number"),
    throughput="calls",
    calls=(
        Call("catalogue", ("catalogue",), None,
             partial(checks.catalogue, rows=12)),
        Call("conserve_constant", ("conserve",),
             _ini(model={"family": "constant"}),
             partial(checks.conserve, kind="Conservative")),
        Call("conserve_power3", ("conserve",),
             _ini(model={"family": "power", "alpha": 3}),
             partial(checks.conserve, kind="NonConservative")),
        Call("conserve_squared_log1", ("conserve",),
             _ini(model={"family": "squared_log", "beta": 1}),
             partial(checks.conserve, kind="Conservative")),
        _rate_call("readme_rate", _CONSTANT3, 50),
        Call("readme_simulate", ("simulate",),
             _ini(model=_HYPERBOLIC, simulation=_README_SIM),
             partial(checks.summary, n_paths=1000), seeded=True,
             path_steps=1000 * _steps(50, 0.01)),
        Call("unknown_key", ("conserve",),
             _ini(model={"family": "constant", "bogus": 1}),
             partial(checks.config_error, key="bogus"), expect_rc=2),
        Call("envelope_infinity", ("verify", "envelope"),
             _ini(model={"warp": "euclidean", "n": 3},
                  simulation={"x0": 1, "t": 20, "dt": 0.01, "n_paths": 200,
                              "master_seed": 11, "drift": "manifold",
                              "floor": 0.01},
                  verify={"c_grid": "1,4", "t0": 1, "envelope": "infinity"}),
             checks.never_exceeded, seeded=True,
             path_steps=200 * _steps(20, 0.01)),
    ),
)


def workloads(lil_cap: float) -> dict:
    """All workloads by name; ``lil_cap`` is the pinned eps=0.5 LIL cap."""
    return {w.name: w for w in
            (RATE_TABLES, MC_COMPARE, _mc_paths(lil_cap), CLI_SHORT)}
