"""Command-line interface.

Subcommands: rate, conserve, simulate, verify {envelope|compare|lil|dyadic},
catalogue. Configuration is INI-style (flat sections, key = value); every
command is deterministic given its config, and CSV output is byte-identical
across reruns. Exit codes: 0 ok, 5 verification failure, and for an error
the code its class in ``escrate.errors`` declares: 2 config error, 3 solver
error, 4 simulation error. A MemoryError, an array that numpy refuses to
allocate, is one line and exit 2.

numpy and the numeric modules are imported inside the commands that compute,
so ``catalogue``, ``conserve`` on a coefficient family, and a config file that
is missing, malformed or has an unknown key run on the standard library and
``escrate.basics`` alone.

A process is started through ``launch`` (``python -m escrate.cli`` and the
``escrate`` script): once ``main`` has returned, with its output committed,
the standard streams are flushed and the process ends with ``os._exit``,
skipping the interpreter's teardown, except under a profiler or tracer.
In-process callers use ``main``, which returns the exit code.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import math
import os
import shutil
import sys
from functools import partial
from typing import TYPE_CHECKING

from .basics import (CATALOGUE, DEFAULT_ORIGIN_FLOOR, FAMILIES, PROOF_SCALE_C,
                     family_verdict)
from .errors import ConfigError, DomainError, EscrateError

if TYPE_CHECKING:
    from .profiles import RadialCoefficient
    from .sde import Sde1D

EXIT_OK = 0
EXIT_VERIFY = 5

# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _number(raw, where, finite=True):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where} is not a number: {raw!r}") from None
    if finite and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {raw!r}")
    return value


def _int(raw, where):
    text = str(raw).strip()  # digits are read exactly, also beyond 2^53
    value = int(text) if text.isdecimal() else _number(raw, where)
    if value != int(value):
        raise ConfigError(f"{where} must be an integer")
    return int(value)


def _seed(raw, where):
    """An integer in [0, 2^64), the range of a Philox key."""
    seed = _int(raw, where)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{where} must be in [0, 2^64), got {raw!r}")
    return seed


def _barrier(raw, where):
    """A finite number, or inf: no crossing is ever recorded."""
    return math.inf if _real(raw, where) == math.inf else _number(raw, where)


def _word(raw, where):
    return raw.strip().lower()


def _numbers(raw, where, finite=True):
    import numpy as np

    raw = raw.strip()
    try:
        values = np.array([float(tok) for tok in raw.split(",")] if raw else [])
    except ValueError:
        raise ConfigError(f"{where} is not a number: {raw!r}") from None
    if finite and not np.all(np.isfinite(values)):
        raise ConfigError(f"{where} must be finite, got {raw!r}")
    return values


def _t_grid(raw, where):
    """A comma list, or 'geom:<lo>:<hi>:<count>', or empty."""
    raw = raw.strip()
    if not raw.startswith("geom:"):
        return _numbers(raw, where)
    import numpy as np

    parts = raw.split(":")
    if len(parts) != 4:
        raise ConfigError("t_grid geometric spec is geom:<lo>:<hi>:<count>")
    try:
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise ConfigError(f"bad t_grid spec: {raw!r}") from None
    if not 0 < lo < hi < math.inf or count < 2:
        raise ConfigError("t_grid geometric spec needs finite 0 < lo < hi, count >= 2")
    return np.geomspace(lo, hi, count)


# section -> key -> (parser, default). A parser takes the raw text (or the
# default) and the key's name for messages. A default of ... makes the key
# required wherever it is read, None leaves it unset, and a dict holds one
# default per use. sigma and a table's entries may be non-finite: Sde1D and
# the table's own check name them. README's config-key table lists every key.
_real, _any_numbers = partial(_number, finite=False), partial(_numbers, finite=False)
_SCHEMA = {
    "model": {"family": (_word, ...), "alpha": (_number, ...),
              "beta": (_number, ...), "n": (_int, {"profile": 1, "drift": 2}),
              "mode": (_word, "unit_energy"), "warp": (_word, "euclidean"),
              "k": (_number, 1.0), "radii": (_any_numbers, ""),
              "values": (_any_numbers, "")},
    "solver": {"r_lo": (_number, None), "t_grid": (_t_grid, ""),
               "scale_c": (_number, {"rate": PROOF_SCALE_C, "envelope": 1.0})},
    "simulation": {"x0": (_number, ...), "t": (_number, ...),
                   "dt": (_number, ...), "n_paths": (_int, ...),
                   "master_seed": (_seed, ...),
                   "floor": (_number, DEFAULT_ORIGIN_FLOOR),
                   "barrier": (_barrier, None), "drift": (_word, "manifold"),
                   "sigma": (_real, None), "output": (_word, "paths"),
                   "store_every": (_int, 1)},
    "verify": {"c_grid": (_numbers, "1"),
               "eps_grid": (_numbers, "0,0.25,0.5,1.0"),
               "t0": (_number, ...), "delta": (_number, ...),
               "r": (_number, ...), "t": (_number, ...),
               "n_paths": (_int, ...), "dt": (_number, ...),
               "c": (_number, 4.0), "n_levels": (_int, 30),
               "envelope": (_word, "table"), "max_fraction": (_number, 0.5)},
}


def load_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        found = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        message = " ".join(str(exc).split())  # one line
        raise ConfigError(f"malformed config file {path}: {message}") from None
    if not found:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        extra = set(parser[section]) - set(_SCHEMA[section])
        if extra:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(extra))}")
    return parser


def _get(cfg, section: str, key: str, use: str = None):
    """``key`` of ``[section]``, parsed; an absent key or section takes the
    default (the one for ``use`` where it differs by use)."""
    parse, default = _SCHEMA[section][key]
    default = default[use] if isinstance(default, dict) else default
    raw = cfg.get(section, key, fallback=default)
    if raw is ...:
        raise ConfigError(f"missing key '{key}' in [{section}]")
    return None if raw is None else parse(raw, f"key '{key}' in [{section}]")


def _increasing(ver, key: str, mode: str, least: int):
    """[verify] ``key`` (read by ``ver``) for ``mode``: at least ``least``
    strictly increasing values."""
    values = ver(key)
    if values.size == 0:
        raise ConfigError(f"{mode} mode needs a nonempty {key}")
    if values.size < least:
        raise ConfigError(f"{mode} mode needs at least {least} {key} values")
    if (values[1:] <= values[:-1]).any():
        raise ConfigError(f"{mode} mode needs a strictly increasing {key}")
    return values


def _need(cfg, section: str) -> None:
    if not cfg.has_section(section):
        raise ConfigError(f"missing required config section [{section}]")


def _master_seed(cfg, seed):
    """``--seed`` if given (parsed by main), else [simulation] master_seed."""
    return _get(cfg, "simulation", "master_seed") if seed is None else seed


def _family(cfg):
    """The coefficient family named in [model], its parameter's key in
    ``FAMILIES`` and the parameter's value (both None for no parameter)."""
    _need(cfg, "model")
    family = _get(cfg, "model", "family")
    if family not in FAMILIES:
        raise ConfigError(f"unknown coefficient family {family!r}")
    key = FAMILIES[family]
    return family, key, None if key is None else _get(cfg, "model", key)


def build_coefficient(cfg) -> RadialCoefficient:
    from .profiles import RadialCoefficient

    family, _, param = _family(cfg)
    try:
        if family == "tabulated":
            return RadialCoefficient.tabulated(_get(cfg, "model", "radii"),
                                               _get(cfg, "model", "values"))
        make = getattr(RadialCoefficient, family)  # the family's constructor
        return make() if param is None else make(param)
    except DomainError as exc:
        raise ConfigError(str(exc))


def build_profile(cfg):
    from .profiles import profile_from_radial

    coeff = build_coefficient(cfg)
    n, mode = _get(cfg, "model", "n", "profile"), _get(cfg, "model", "mode")
    try:
        return coeff, profile_from_radial(coeff, n, mode)
    except DomainError as exc:
        raise ConfigError(str(exc))


def _rate_args(cfg, use: str):
    """[model]'s coefficient, and rate_table's keyword arguments: its growth
    profile and [solver]'s t_grid, r_lo and scale_c (default by ``use``)."""
    coeff, profile = build_profile(cfg)
    _need(cfg, "solver")
    solver = partial(_get, cfg, "solver")
    return coeff, dict(profile=profile, t_grid=solver("t_grid"),
                       scale_c=solver("scale_c", use), r_lo=solver("r_lo"))


def build_drift(cfg):
    """Resolve the simulation drift from config: a manifold's mean
    curvature, the radial-coefficient drift or the hyperbolic majorant. The
    chain owns the floor. build_sde gives ``drift = none`` a None drift."""
    from .profiles import (coefficient_drift, euclidean_mean_curvature,
                           hyperbolic_majorant, hyperbolic_mean_curvature)

    model = partial(_get, cfg, "model")
    kind, n = _get(cfg, "simulation", "drift"), model("n", "drift")
    if kind == "manifold":
        warp = model("warp")
        if warp == "euclidean":
            return euclidean_mean_curvature(n)
        if warp == "hyperbolic":
            return hyperbolic_mean_curvature(n, model("k"))
        raise ConfigError(f"unknown warp {warp!r}")
    if kind == "hyperbolic_bound":
        return hyperbolic_majorant(n, model("k"))
    if kind == "coefficient":
        return coefficient_drift(build_coefficient(cfg), n)
    raise ConfigError(f"unknown drift kind {kind!r}")


def build_sde(cfg) -> Sde1D:
    from .sde import Sde1D

    _need(cfg, "simulation")
    sim = partial(_get, cfg, "simulation")
    drift = None if sim("drift") == "none" else build_drift(cfg)
    sigma = sim("sigma")  # unset: Sde1D's default
    return Sde1D(drift=drift, floor=sim("floor"),
                 **({} if sigma is None else {"sigma": sigma}))


def _simulation_args(cfg, seed_override=None) -> dict:
    """Keyword arguments of sde.ensemble from the [simulation] section."""
    get = partial(_get, cfg, "simulation")
    return dict(sde=build_sde(cfg), master_seed=_master_seed(cfg, seed_override),
                barrier=get("barrier"), store_every=get("store_every"),
                x0=get("x0"), T=get("t"), dt=get("dt"), n_paths=get("n_paths"))


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
    """CSV sink with LF endings: stdout, or the ``--out`` path.

    A regular file, or a path with nothing there yet, is written through a
    temporary file in the resolved target's directory that ``commit``
    renames onto the target, so a failed run leaves an existing file as it
    was. Anything else (a device such as /dev/null, a FIFO) is written
    directly, since a rename would replace it. A write, flush or close that
    fails is a ConfigError naming the sink."""

    def __init__(self, path):
        self.path, self.temp, self.fh = path, None, sys.stdout
        if not path:
            return
        if os.path.isdir(path):
            self._fail("Is a directory")
        if os.path.exists(path) and not os.access(path, os.W_OK):
            self._fail("Permission denied")
        if not os.path.exists(path) or os.path.isfile(path):
            self.target = os.path.realpath(path)
            head, name = os.path.split(self.target)
            self.temp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
        try:
            self.fh = open(self.temp or path, "w", newline="\n")
            if self.temp and os.path.exists(self.target):
                shutil.copymode(self.target, self.temp)
        except OSError as exc:
            self._fail(exc.strerror)

    def _fail(self, reason):
        """Raise the ConfigError of a sink that cannot be written. A failed
        --out is discarded. A failed stdout is pointed at the null device,
        so the rows still buffered for it are dropped at exit instead of
        failing again ("Exception ignored", exit 120)."""
        if self.path:
            self.discard()
            raise ConfigError(f"cannot write --out {self.path}: {reason}") from None
        with contextlib.suppress(OSError):
            fd = self.fh.fileno()  # none for an in-process stream
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        raise ConfigError(f"cannot write stdout: {reason}") from None

    def write(self, text):
        try:
            self.fh.write(text)
        except OSError as exc:
            self._fail(exc.strerror)

    def row(self, *cells):
        self.write(",".join(_fmt(c) for c in cells) + "\n")

    def line(self, text):
        self.write(text + "\n")

    def commit(self):
        """Flush stdout, or close the file and put the temporary file in the
        target's place."""
        try:
            if not self.path:
                self.fh.flush()
                return
            self.fh.close()
            if self.temp:
                os.replace(self.temp, self.target)
                self.temp = None
        except OSError as exc:
            self._fail(exc.strerror)

    def discard(self):
        """Close the file and remove a temporary file not yet committed."""
        with contextlib.suppress(OSError):
            if self.fh is not sys.stdout:
                self.fh.close()
            if self.temp:
                os.remove(self.temp)
        self.temp = None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_rate(cfg, out: _Out, quiet: bool) -> int:
    from . import rate_solver

    coeff, args = _rate_args(cfg, "rate")
    rows, note = [], ""  # an empty t_grid prints the header alone
    if args["t_grid"].size:
        rate = rate_solver.rate_table(**args)
        psi_tilde = [None] * rate.times.size
        if _get(cfg, "model", "mode") == "unit_energy":
            psi_tilde = rate_solver.euclidean_rate(rate, coeff).values.tolist()
        rows = zip(rate.times, rate.values, psi_tilde)
        note = rate.shift_note
    out.row("t", "psi", "psi_tilde")
    for t, psi_val, psi_t in rows:
        out.row(float(t), float(psi_val), psi_t)
    if not quiet and note:
        print(f"note: {note}", file=sys.stderr)
    return EXIT_OK


def cmd_conserve(cfg, out: _Out) -> int:
    family, key, param = _family(cfg)
    kind, leaning = family_verdict(family, param), None
    if kind is None:  # tabulated: the numeric heuristic
        from .rate_solver import conservativeness

        verdict = conservativeness(build_coefficient(cfg))
        kind, leaning = verdict.kind, verdict.leaning
    params = "" if key is None else f"{key}={_fmt(param)}"
    line = f"verdict={kind} family={family} params={params}"
    if leaning:
        line += f" leaning={leaning}"
    out.line(line)
    return EXIT_OK


def cmd_simulate(cfg, out: _Out, seed_override) -> int:
    from .sde import _check_sim_args, ensemble

    output = _get(cfg, "simulation", "output")
    if output not in ("summary", "paths"):
        raise ConfigError(f"unknown output mode {output!r}")
    args = _simulation_args(cfg, seed_override)
    if output == "summary":
        # store steps 0 and int(T/dt) only; exits are observed at every step
        n_steps = _check_sim_args([args["sde"]], args["x0"], args["T"],
                                  args["dt"], args["n_paths"],
                                  args["master_seed"], args["store_every"])
        ens = ensemble(**dict(args, store_every=n_steps))
        exits = ([None] * len(ens.values) if ens.first_exit is None
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
    rows = "".join("%%d,%d,%.17g,%%.17g\n" % (round(t / args["dt"]), t)
                   for t in ens.times.tolist())
    for i in range(len(ens.values)):
        out.write(rows.replace("%d", str(i)) % tuple(ens.values[i].tolist()))
    return EXIT_OK


def _verdict_exit(passed: bool, label: str, out: _Out) -> int:
    out.line(label)
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_verify(cfg, mode: str, out: _Out, seed_override) -> int:
    import numpy as np

    _need(cfg, "verify")
    ver = partial(_get, cfg, "verify")

    if mode == "dyadic":  # the one mode that simulates nothing
        from .rate_solver import dyadic_scheme

        _, profile = build_profile(cfg)
        c, N = ver("c"), ver("n_levels")
        scheme = dyadic_scheme(profile, c, N)
        out.row("n", "R", "r", "t", "T", "bound", "partial_sum", "slack")
        for i in range(N):
            out.row(i + 1, scheme.R[i], scheme.r[i], scheme.t[i], scheme.T[i],
                    scheme.bound[i], scheme.partial_sums[i], scheme.slack[i])
        total = float(scheme.partial_sums[-1])
        passed = (math.isfinite(total) and np.all(scheme.slack >= 0)
                  and scheme.bound[-1] < 1e-3 * total)
        return _verdict_exit(passed, f"{'PASS' if passed else 'FAIL'} "
                             f"sum_bound={_fmt(total)}", out)

    from . import verify as verify_mod

    if mode == "envelope":
        C_grid = _increasing(ver, "c_grid", "envelope", 1)
        t0, threshold = ver("t0"), ver("max_fraction")
        envelope = ver("envelope")
        if envelope == "zero":
            rate = lambda t: 0.0
        elif envelope in ("inf", "infinity"):
            rate = lambda t: math.inf
        elif envelope != "table":
            raise ConfigError(f"unknown envelope {envelope!r}")
        else:
            from .rate_solver import rate_table

            _, table = _rate_args(cfg, "envelope")
            if table["t_grid"].size == 0:
                raise ConfigError("envelope mode needs a nonempty t_grid")
            rate = rate_table(**table)
        args = _simulation_args(cfg, seed_override)
        del args["barrier"]  # the streamed run records no exit times
        fractions = verify_mod.exceedance(rate=rate, C_grid=C_grid, t0=t0,
                                          **args)
        out.row("C", "fraction")
        for C, f in zip(C_grid, fractions):
            out.row(float(C), float(f))
        passed = float(fractions[-1]) <= threshold
        return _verdict_exit(passed, f"{'PASS' if passed else 'FAIL'} "
                             f"fraction_at_max_C={_fmt(float(fractions[-1]))} "
                             f"threshold={_fmt(threshold)}", out)

    if mode == "compare":
        from .profiles import hyperbolic_majorant, hyperbolic_mean_curvature
        from .sde import Sde1D

        _need(cfg, "simulation")
        _need(cfg, "model")
        n, K = _get(cfg, "model", "n", "drift"), _get(cfg, "model", "k")
        floor = _get(cfg, "simulation", "floor")
        dominated = Sde1D(drift=hyperbolic_mean_curvature(n, K), floor=floor)
        dominating = Sde1D(drift=hyperbolic_majorant(n, K), floor=floor)
        seed = _master_seed(cfg, seed_override)
        report = verify_mod.comparison_mc(
            dominating, dominated, _get(cfg, "simulation", "x0"), ver("t"),
            ver("delta"), ver("r"), ver("n_paths"), ver("dt"), seed)
        out.row("side", "estimate", "stderr")
        out.row("lhs", report.lhs_estimate, report.lhs_stderr)
        out.row("rhs", report.rhs_estimate, report.rhs_stderr)
        passed = not report.violation
        return _verdict_exit(
            passed, f"{'PASS' if passed else 'FAIL'} coupledDominanceFraction="
            f"{_fmt(report.coupled_dominance_fraction)}", out)

    # lil: the last of the modes that argparse accepts
    eps_grid, t0 = _increasing(ver, "eps_grid", "lil", 2), ver("t0")
    args = _simulation_args(cfg, seed_override)
    del args["barrier"]  # the streamed run records no exit times
    fractions = verify_mod.lil_statistic(t0=t0, eps_grid=eps_grid, **args)
    out.row("eps", "fraction")
    for e, f in zip(eps_grid, fractions):
        out.row(float(e), float(f))
    passed = bool(np.all(np.diff(fractions) <= 0))
    return _verdict_exit(passed, "PASS monotone" if passed
                         else "FAIL fractions not monotone", out)


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

    def add(name, seed=False, **kw):
        p = sub.add_parser(name, **kw)
        if name != "catalogue":
            p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", help="output CSV path (default stdout)")
        if seed:
            p.add_argument("--seed", type=str, help="override master seed")
        return p

    add("rate", help="tabulate the escape envelope psi").add_argument(
        "--quiet", action="store_true", help="suppress informational notes")
    add("conserve", help="classify conservativeness")
    add("simulate", seed=True, help="simulate a path ensemble")
    pv = add("verify", seed=True, help="run a Monte Carlo verification mode")
    pv.add_argument("mode", choices=["envelope", "compare", "lil", "dyadic"])
    add("catalogue", help="print the closed-form rate catalogue")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = None
    try:
        cfg = None if args.command == "catalogue" else load_config(args.config)
        seed = getattr(args, "seed", None)  # on simulate and verify only
        seed = None if seed is None else _seed(seed, "--seed")
        out = _Out(args.out)
        if args.command == "catalogue":
            code = cmd_catalogue(out)
        elif args.command == "rate":
            code = cmd_rate(cfg, out, args.quiet)
        elif args.command == "conserve":
            code = cmd_conserve(cfg, out)
        elif args.command == "simulate":
            code = cmd_simulate(cfg, out, seed)
        else:
            code = cmd_verify(cfg, args.mode, out, seed)
        out.commit()
        return code  # EXIT_OK, or EXIT_VERIFY after its FAIL line
    except EscrateError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # an array numpy refused: a config too large
        print(f"MemoryError: {exc}", file=sys.stderr)
        return DomainError.exit_code
    finally:
        if out is not None:
            out.discard()


def launch(argv=None):
    """Run ``main`` as a whole process and end it with main's exit code.

    Once ``main`` has returned, with its output committed, the standard
    streams are flushed and the process ends with ``os._exit``, skipping
    the interpreter's teardown: atexit callbacks do not run (escrate
    registers none). Under a profiler or tracer (cProfile, trace,
    coverage), which writes its report at exit, and when a flush fails,
    the process ends through ``sys.exit`` instead. An exception that
    escapes ``main`` (argparse's SystemExit for ``--help`` or a usage
    error, KeyboardInterrupt, a bug's traceback) propagates unchanged.
    """
    code = main(argv)
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None: the descriptor was closed at start
                stream.flush()
    except OSError:
        sys.exit(code)
    if sys.getprofile() is None and sys.gettrace() is None:
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    launch()
