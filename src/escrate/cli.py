"""Command-line interface.

Subcommands: rate, conserve, simulate, verify {envelope|compare|lil|dyadic},
catalogue. Configuration is INI-style (flat sections, key = value); every
command is deterministic given its config, and CSV output is byte-identical
across reruns. Exit codes: 0 ok, 2 config error, 3 solver error,
4 simulation error, 5 verification failure.

numpy and the numeric modules are imported inside the commands that compute,
so ``catalogue``, ``conserve`` on a coefficient family and every config error
run on the standard library and ``escrate.basics`` alone.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from typing import TYPE_CHECKING

from .basics import CATALOGUE, family_verdict, worker_threads
from .errors import (
    ConfigError,
    DomainError,
    EscrateError,
    ExtrapolationError,
    FiniteTotalIntegral,
    NonFiniteState,
    NonPositiveCoefficient,
    NonPositiveDenominator,
    OutOfRange,
    QuadratureFailure,
    SingularOrigin,
)

if TYPE_CHECKING:
    from .profiles import RadialCoefficient
    from .sde import Sde1D

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_SIMULATION = 4
EXIT_VERIFY = 5

_SOLVER_ERRORS = (FiniteTotalIntegral, QuadratureFailure, NonPositiveDenominator,
                  OutOfRange, NonPositiveCoefficient, ExtrapolationError)
_SIM_ERRORS = (NonFiniteState, SingularOrigin)

_ALLOWED_KEYS = {
    "model": {"family", "alpha", "beta", "n", "mode", "warp", "k",
              "radii", "values"},
    "solver": {"r_lo", "scale_c", "t_grid"},
    "simulation": {"x0", "t", "dt", "n_paths", "master_seed", "floor",
                   "barrier", "drift", "sigma", "output", "store_every"},
    "verify": {"c_grid", "eps_grid", "t0", "delta", "r", "t", "n_paths",
               "dt", "c", "n_levels", "envelope", "max_fraction"},
}


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def load_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        extra = set(parser[section]) - _ALLOWED_KEYS[section]
        if extra:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(extra))}")
    return parser


def _need(cfg, section: str):
    if not cfg.has_section(section):
        raise ConfigError(f"missing required config section [{section}]")
    return cfg[section]


def _getfloat(sec, key, default=None):
    raw = sec.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing key '{key}' in [{sec.name}]")
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}' in [{sec.name}] is not a number: {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' in [{sec.name}] must be finite, got {raw!r}")
    return value


def _getint(sec, key, default=None):
    v = _getfloat(sec, key, default)
    if v != int(v):
        raise ConfigError(f"key '{key}' in [{sec.name}] must be an integer")
    return int(v)


def _float_list(sec, key, default="", finite=True):
    """The comma list of numbers in ``key``; non-finite entries are a
    ConfigError unless ``finite`` is False."""
    import numpy as np

    raw = sec.get(key, default).strip()
    try:
        values = np.array([float(tok) for tok in raw.split(",")] if raw else [])
    except ValueError:
        raise ConfigError(f"cannot parse number list: {raw!r}")
    if finite and not np.all(np.isfinite(values)):
        raise ConfigError(f"key '{key}' in [{sec.name}] must be finite, got {raw!r}")
    return values


def _parse_t_grid(sec):
    """t_grid is a comma list, or 'geom:<lo>:<hi>:<count>', or empty."""
    import numpy as np

    raw = sec.get("t_grid", "").strip()
    if raw.startswith("geom:"):
        parts = raw.split(":")
        if len(parts) != 4:
            raise ConfigError("t_grid geometric spec is geom:<lo>:<hi>:<count>")
        try:
            lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError:
            raise ConfigError(f"bad t_grid spec: {raw!r}")
        if not 0 < lo < hi < math.inf or count < 2:
            raise ConfigError(
                "t_grid geometric spec needs finite 0 < lo < hi, count >= 2")
        return np.geomspace(lo, hi, count)
    return _float_list(sec, "t_grid")


def _family(model):
    """The coefficient family named in [model] and its parameter: alpha for
    power, beta for squared_log, None for constant and tabulated."""
    family = model.get("family")
    if family is None:
        raise ConfigError("missing key 'family' in [model]")
    family = family.strip().lower()
    if family in ("constant", "tabulated"):
        return family, None
    if family == "power":
        return family, _getfloat(model, "alpha")
    if family == "squared_log":
        return family, _getfloat(model, "beta")
    raise ConfigError(f"unknown coefficient family {family!r}")


def build_coefficient(model) -> RadialCoefficient:
    from .profiles import RadialCoefficient

    family, param = _family(model)
    try:
        if family == "constant":
            return RadialCoefficient.constant()
        if family == "power":
            return RadialCoefficient.power(param)
        if family == "squared_log":
            return RadialCoefficient.squared_log(param)
        # the table's own check names a non-finite entry
        radii = _float_list(model, "radii", finite=False)
        values = _float_list(model, "values", finite=False)
        return RadialCoefficient.tabulated(radii, values)
    except DomainError as exc:
        raise ConfigError(str(exc))


def build_profile(cfg):
    from .profiles import profile_from_radial

    model = _need(cfg, "model")
    coeff = build_coefficient(model)
    n = _getint(model, "n", 1)
    mode = model.get("mode", "unit_energy").strip()
    try:
        return coeff, profile_from_radial(coeff, n, mode)
    except DomainError as exc:
        raise ConfigError(str(exc))


def build_drift(cfg, floor: float):
    """Resolve the simulation drift from config, checked against ``floor``
    once: a manifold's mean curvature, the radial-coefficient drift or the
    hyperbolic majorant. build_sde gives ``drift = none`` a None drift."""
    from .profiles import ManifoldModel
    from .sde import HyperbolicBound, radial_drift

    model = cfg["model"] if cfg.has_section("model") else {}
    kind = _need(cfg, "simulation").get("drift", "manifold").strip().lower()
    if kind == "manifold":
        warp = (model.get("warp") or "euclidean").strip().lower()
        n = _getint(cfg["model"], "n", 2) if cfg.has_section("model") else 2
        if warp == "euclidean":
            return radial_drift(ManifoldModel.euclidean(n), floor=floor)
        if warp == "hyperbolic":
            K = _getfloat(cfg["model"], "k", 1.0)
            return radial_drift(ManifoldModel.hyperbolic(n, K), floor=floor)
        raise ConfigError(f"unknown warp {warp!r}")
    if kind == "hyperbolic_bound":
        n = _getint(cfg["model"], "n", 2)
        K = _getfloat(cfg["model"], "k", 1.0)
        return radial_drift(HyperbolicBound(n, K), floor=floor)
    if kind == "coefficient":
        coeff = build_coefficient(_need(cfg, "model"))
        n = _getint(cfg["model"], "n", 2)
        return radial_drift((coeff, n), floor=floor)
    raise ConfigError(f"unknown drift kind {kind!r}")


def build_sde(cfg) -> Sde1D:
    from .sde import Sde1D

    sim = _need(cfg, "simulation")
    floor = _getfloat(sim, "floor", 1e-6)
    driftless = sim.get("drift", "").strip().lower() == "none"
    drift = None if driftless else build_drift(cfg, floor)
    sigma_raw = sim.get("sigma")
    if sigma_raw is None:
        return Sde1D(drift=drift, floor=floor)
    try:
        sigma = float(sigma_raw)
    except ValueError:
        raise ConfigError(f"sigma must be a number, got {sigma_raw!r}")
    return Sde1D(drift=drift, sigma=sigma, floor=floor)


def _simulation_args(cfg, seed_override=None) -> dict:
    """Keyword arguments of sde.ensemble from the [simulation] section."""
    sim = _need(cfg, "simulation")
    sde = build_sde(cfg)
    seed = seed_override if seed_override is not None else _getint(sim, "master_seed")
    barrier_raw = sim.get("barrier")
    barrier = None
    if barrier_raw is not None:
        barrier = math.inf if barrier_raw.strip().lower() in ("inf", "+inf") \
            else float(barrier_raw)
    store_every = _getint(sim, "store_every", 1)
    return dict(sde=sde, x0=_getfloat(sim, "x0"), T=_getfloat(sim, "t"),
                dt=_getfloat(sim, "dt"), n_paths=_getint(sim, "n_paths"),
                master_seed=seed, barrier=barrier, store_every=store_every)


def run_ensemble(cfg, seed_override=None):
    from .sde import ensemble

    return ensemble(**_simulation_args(cfg, seed_override))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    if isinstance(x, float):
        return "%.17g" % x
    text = str(x)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


class _Out:
    """CSV sink: a file opened with LF endings, or stdout."""

    def __init__(self, path):
        self.path = path
        self.fh = open(path, "w", newline="\n") if path else sys.stdout

    def row(self, *cells):
        self.fh.write(",".join(_fmt(c) for c in cells) + "\n")

    def line(self, text):
        self.fh.write(text + "\n")

    def close(self):
        if self.path:
            self.fh.close()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_rate(cfg, out: _Out, quiet: bool) -> int:
    from . import rate_solver

    coeff, profile = build_profile(cfg)
    solver = cfg["solver"] if cfg.has_section("solver") else None
    if solver is None:
        raise ConfigError("rate needs a [solver] section")
    t_grid = _parse_t_grid(solver)
    scale_c = _getfloat(solver, "scale_c", rate_solver.PROOF_SCALE_C)
    r_lo = _getfloat(solver, "r_lo") if "r_lo" in solver else None
    out.row("t", "psi", "psi_tilde")
    if t_grid.size == 0:
        return EXIT_OK
    rate = rate_solver.rate_table(
        profile, t_grid, scale_c=scale_c,
        r_lo=r_lo)
    psi_tilde = [None] * rate.times.size
    if profile.label.endswith("unit-energy"):
        psi_tilde = rate_solver.euclidean_rate(rate, coeff).values.tolist()
    for t, psi_val, psi_t in zip(rate.times, rate.values, psi_tilde):
        out.row(float(t), float(psi_val), psi_t)
    if not quiet and rate.shift_note:
        print(f"note: {rate.shift_note}", file=sys.stderr)
    return EXIT_OK


def cmd_conserve(cfg, out: _Out) -> int:
    model = _need(cfg, "model")
    family, param = _family(model)
    kind, leaning = family_verdict(family, param), None
    if kind is None:  # tabulated: the numeric heuristic
        from .rate_solver import conservativeness

        verdict = conservativeness(build_coefficient(model))
        kind, leaning = verdict.kind, verdict.leaning
    params = ""
    if param is not None:
        params = f"{'alpha' if family == 'power' else 'beta'}={_fmt(param)}"
    line = f"verdict={kind} family={family} params={params}"
    if leaning:
        line += f" leaning={leaning}"
    out.line(line)
    return EXIT_OK


def cmd_simulate(cfg, out: _Out, seed_override) -> int:
    from .sde import _stored_steps, ensemble

    sim = _need(cfg, "simulation")
    output = sim.get("output", "paths").strip().lower()
    if output not in ("summary", "paths"):
        raise ConfigError(f"unknown output mode {output!r}")
    args = _simulation_args(cfg, seed_override)
    if output == "summary":
        # store steps 0 and int(T/dt) only; exits are observed at every step
        stored = _stored_steps(args["sde"], args["x0"], args["T"], args["dt"],
                               args["n_paths"], args["store_every"])
        ens = ensemble(**dict(args, store_every=int(stored[-1])))
        exits = ([None] * ens.n_paths if ens.first_exit is None
                 else ens.first_exit.tolist())  # _fmt blanks a NaN: no exit
        out.row("path", "final", "exitTime")
        for i, (x, exit_t) in enumerate(zip(ens.values[:, -1].tolist(), exits)):
            out.row(i, x, exit_t)
        return EXIT_OK
    ens = ensemble(**args)
    out.row("path", "step", "t", "x")
    # Bytes as out.row's: NonFiniteState rules out the NaN that _fmt blanks.
    # A path's rows are one template with its index filled in, over its x
    # values, converted from one row at a time.
    rows = "".join("%%d,%d,%.17g,%%.17g\n" % (round(t / ens.dt), t)
                   for t in ens.times.tolist())
    for i in range(ens.n_paths):
        out.fh.write(rows.replace("%d", str(i)) % tuple(ens.values[i].tolist()))
    return EXIT_OK


def _verdict_exit(passed: bool, label: str, out: _Out) -> int:
    out.line(label)
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_verify(cfg, mode: str, out: _Out, seed_override) -> int:
    import numpy as np

    from . import rate_solver, verify as verify_mod
    from .profiles import ManifoldModel
    from .sde import HyperbolicBound, Sde1D, radial_drift

    ver = _need(cfg, "verify")

    if mode == "envelope":
        C_grid = _float_list(ver, "c_grid", "1")
        t0 = _getfloat(ver, "t0")
        threshold = _getfloat(ver, "max_fraction", 0.5)
        sentinel = ver.get("envelope", "table").strip().lower()
        if sentinel == "zero":
            rate = lambda t: 0.0
        elif sentinel in ("inf", "infinity"):
            rate = lambda t: math.inf
        else:
            _, profile = build_profile(cfg)
            solver = _need(cfg, "solver")
            t_grid = _parse_t_grid(solver)
            if t_grid.size == 0:
                raise ConfigError("envelope mode needs a nonempty t_grid")
            rate = rate_solver.rate_table(
                profile, t_grid,
                scale_c=_getfloat(solver, "scale_c", 1.0))
        args = _simulation_args(cfg, seed_override)
        del args["barrier"]  # the streamed run records no exit times
        report = verify_mod.exceedance_mc(rate=rate, C_grid=C_grid, t0=t0,
                                          **args)
        out.row("C", "fraction")
        for C, f in zip(report.C_grid, report.fractions):
            out.row(float(C), float(f))
        passed = float(report.fractions[-1]) <= threshold
        return _verdict_exit(passed, f"{'PASS' if passed else 'FAIL'} "
                             f"fraction_at_max_C={_fmt(float(report.fractions[-1]))} "
                             f"threshold={_fmt(threshold)}", out)

    if mode == "compare":
        sim = _need(cfg, "simulation")
        model = _need(cfg, "model")
        n = _getint(model, "n", 2)
        K = _getfloat(model, "k", 1.0)
        floor = _getfloat(sim, "floor", 1e-6)
        dominated = Sde1D(drift=radial_drift(ManifoldModel.hyperbolic(n, K),
                                             floor=floor), floor=floor)
        dominating = Sde1D(drift=radial_drift(HyperbolicBound(n, K),
                                              floor=floor), floor=floor)
        seed = seed_override if seed_override is not None \
            else _getint(sim, "master_seed")
        report = verify_mod.comparison_mc(
            dominating, dominated, _getfloat(sim, "x0"), _getfloat(ver, "t"),
            _getfloat(ver, "delta"), _getfloat(ver, "r"),
            _getint(ver, "n_paths"), _getfloat(ver, "dt"), seed)
        out.row("side", "estimate", "stderr")
        out.row("lhs", report.lhs_estimate, report.lhs_stderr)
        out.row("rhs", report.rhs_estimate, report.rhs_stderr)
        passed = not report.violation
        return _verdict_exit(
            passed, f"{'PASS' if passed else 'FAIL'} coupledDominanceFraction="
            f"{_fmt(report.coupled_dominance_fraction)}", out)

    if mode == "lil":
        eps_grid = _float_list(ver, "eps_grid", "0,0.25,0.5,1.0")
        t0 = _getfloat(ver, "t0")
        args = _simulation_args(cfg, seed_override)
        del args["barrier"]  # the streamed run records no exit times
        fractions = verify_mod.lil_mc(t0=t0, eps_grid=eps_grid, **args)
        out.row("eps", "fraction")
        for e, f in zip(eps_grid, fractions):
            out.row(float(e), float(f))
        passed = bool(np.all(np.diff(fractions) <= 0))
        return _verdict_exit(passed, "PASS monotone" if passed
                             else "FAIL fractions not monotone", out)

    if mode == "dyadic":
        _, profile = build_profile(cfg)
        c = _getfloat(ver, "c", 4.0)
        N = _getint(ver, "n_levels", 30)
        scheme = rate_solver.dyadic_scheme(profile, c, N)
        out.row("n", "R", "r", "t", "T", "bound", "partial_sum", "slack")
        for i in range(N):
            out.row(i + 1, scheme.R[i], scheme.r[i], scheme.t[i], scheme.T[i],
                    scheme.bound[i], scheme.partial_sums[i], scheme.slack[i])
        total = float(scheme.partial_sums[-1])
        passed = (math.isfinite(total) and np.all(scheme.slack >= 0)
                  and scheme.bound[-1] < 1e-3 * total)
        return _verdict_exit(passed, f"{'PASS' if passed else 'FAIL'} "
                             f"sum_bound={_fmt(total)}", out)

    raise ConfigError(f"unknown verify mode {mode!r}")


def cmd_catalogue(out: _Out) -> int:
    out.row("case", "range", "psi", "psi_tilde")
    for row in CATALOGUE:
        out.row(*row)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="escrate",
        description="Escape-rate envelopes for diffusions: rate tables, "
                    "conservativeness verdicts, path simulation, Monte Carlo "
                    "verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--config", required=(name != "catalogue"),
                       help="INI config file")
        p.add_argument("--out", help="output CSV path (default stdout)")
        p.add_argument("--seed", type=int, help="override master seed")
        p.add_argument("--quiet", action="store_true",
                       help="suppress informational notes")
        return p

    add("rate", help="tabulate the escape envelope psi")
    add("conserve", help="classify conservativeness")
    add("simulate", help="simulate a path ensemble")
    pv = add("verify", help="run a Monte Carlo verification mode")
    pv.add_argument("mode", choices=["envelope", "compare", "lil", "dyadic"])
    add("catalogue", help="print the closed-form rate catalogue")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = None
    try:
        worker_threads()  # reject a malformed ESCRATE_THREADS before any work
        if args.command == "catalogue":
            out = _Out(args.out)
            return cmd_catalogue(out)
        cfg = load_config(args.config)
        out = _Out(args.out)
        if args.command == "rate":
            return cmd_rate(cfg, out, args.quiet)
        if args.command == "conserve":
            return cmd_conserve(cfg, out)
        if args.command == "simulate":
            return cmd_simulate(cfg, out, args.seed)
        if args.command == "verify":
            return cmd_verify(cfg, args.mode, out, args.seed)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _SOLVER_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except _SIM_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except DomainError as exc:
        print(f"DomainError: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        if out is not None:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
