"""The CLI's config-error contract, swept over the config schema.

One small base config per command and drift route. Each key that
``cli._SCHEMA`` declares for a base's sections is set in turn to each of a
list of hostile values, and the run goes through ``cli.main`` in process.
Where the key's ``_SCHEMA`` parser refuses the value, the run must print
exactly ``ConfigError: <the parser's message>`` and exit 2, or match the
base's run where the command never reads the key; a ``floor`` <= 0, a
non-finite ``sigma`` and an ``n_paths`` below 1 or of 2^63 or more are held
to their run gates' exact lines alike.
Every other run must exit 0, 2, 3, 4 or 5 with stderr empty, one
``<ErrorClass>: `` line whose class declares that exit code, or ``rate``'s
``note:`` line; an error exit prints nothing on stdout. Under pyproject's
``error::RuntimeWarning`` a raw warning is an exception out of ``main``, so
it fails the sweep too. The cases come from the schema, so a new key is
swept without an edit. Two tables pin each parser's messages and reads.

No swept value is a count between the 2^63 noise-coordinate gate and a small
one, so no run asks for a large array.
"""

import contextlib
import io
import math
import re

import pytest

from escrate import errors
from escrate.cli import (_SCHEMA, _barrier, _int, _number, _numbers, _seed,
                         _t_grid, main)

VALUES = ["", "nan", "inf", "-inf", "-1", "0", "-0", "1e-320", "1e308",
          "1e20", "12345678901234567890", "2.5", "abc", "1,2", "true"]

_TABULATED = {"family": "tabulated", "radii": "0,1e3,1e6", "values": "1,2,3"}
_SIM = {"x0": "1", "t": "0.05", "dt": "0.01", "n_paths": "3",
        "master_seed": "1"}

# label -> (command, {section: {key: value}})
BASES = {
    "rate-unit_energy": ("rate", {
        "model": {"family": "power", "alpha": "1", "n": "3"},
        "solver": {"t_grid": "1,10"}}),
    "rate-coefficient_energy": ("rate", {
        "model": {"family": "power", "alpha": "0.5", "n": "2",
                  "mode": "coefficient_energy"},
        "solver": {"t_grid": "1,10", "scale_c": "1"}}),
    "rate-tabulated": ("rate", {
        "model": dict(_TABULATED, n="2", mode="coefficient_energy"),
        "solver": {"t_grid": "1,10", "scale_c": "1"}}),
    "conserve-family": ("conserve", {
        "model": {"family": "power", "alpha": "1"}}),
    "conserve-tabulated": ("conserve", {"model": _TABULATED}),
    "simulate-euclidean": ("simulate", {
        "model": {"n": "2"},
        "simulation": dict(_SIM, output="summary")}),
    "simulate-hyperbolic": ("simulate", {
        "model": {"warp": "hyperbolic", "n": "2", "k": "1"},
        "simulation": dict(_SIM, barrier="2", floor="0.05")}),
    "simulate-hyperbolic_bound": ("simulate", {
        "model": {"n": "2", "k": "1"},
        "simulation": dict(_SIM, drift="hyperbolic_bound", store_every="2")}),
    "simulate-coefficient": ("simulate", {
        "model": {"family": "power", "alpha": "1", "n": "2"},
        "simulation": dict(_SIM, drift="coefficient", floor="0.01")}),
    "simulate-none": ("simulate", {
        "simulation": dict(_SIM, drift="none", sigma="1")}),
    "verify_envelope-table": ("verify envelope", {
        "model": {"family": "constant", "n": "3"},
        "solver": {"t_grid": "1,2,4", "scale_c": "1"},
        "simulation": dict(_SIM, t="2", floor="0.01"),
        "verify": {"c_grid": "1", "t0": "1"}}),
    "verify_envelope-zero": ("verify envelope", {
        "simulation": _SIM,
        "verify": {"t0": "0.02", "envelope": "zero"}}),
    "verify_compare": ("verify compare", {
        "model": {"n": "2", "k": "1"},
        "simulation": {"x0": "1", "floor": "0.05", "master_seed": "21"},
        "verify": {"t": "0.05", "delta": "0.5", "r": "5", "n_paths": "3",
                   "dt": "0.01"}}),
    "verify_lil": ("verify lil", {
        "simulation": dict(_SIM, t="3.1", drift="none", sigma="1"),
        "verify": {"t0": "3"}}),
    "verify_dyadic-family": ("verify dyadic", {
        "model": {"family": "constant", "n": "1"},
        "verify": {"n_levels": "2"}}),
    "verify_dyadic-coefficient_energy": ("verify dyadic", {
        "model": {"family": "power", "alpha": "1", "n": "2",
                  "mode": "coefficient_energy"},
        "verify": {"n_levels": "2"}}),
    "verify_dyadic-tabulated": ("verify dyadic", {
        "model": dict(_TABULATED, n="2"),
        "verify": {"n_levels": "2", "c": "1"}}),
}

_ONE_LINE = re.compile(r"(\w+): [^\n]*\n")


def _ini(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in
                                            body.items())
                   for name, body in sections.items())


def _run(tmp_path, command, sections):
    """(exit code, stdout, stderr) of one run of ``command`` on ``sections``."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(_ini(sections))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(command.split() + ["--config", str(cfg)])
        except Exception as exc:  # a traceback, or a raw warning as an error
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def _pinned(section, key, value):
    """The exact stderr of a run that reads ``value`` for ``key``, or None."""
    parse, _ = _SCHEMA[section][key]
    try:
        parsed = parse(value, f"key '{key}' in [{section}]")
    except errors.ConfigError as exc:
        return f"ConfigError: {exc}\n"
    if key == "floor" and parsed <= 0:
        return "DomainError: floor must be positive\n"
    if key == "sigma" and not math.isfinite(parsed):
        return f"DomainError: sigma must be finite, got {parsed}\n"
    if key == "n_paths" and parsed < 1:
        return "DomainError: n_paths must be >= 1\n"
    if key == "n_paths" and parsed >= 2 ** 63:
        return (f"DomainError: n_paths = {parsed} is more than a run can "
                "take\n")
    return None


def _exit_code(name):
    """The exit code a stderr line's leading name stands for, or None."""
    if name == "MemoryError":
        return errors.DomainError.exit_code
    cls = getattr(errors, name, None)
    if isinstance(cls, type) and issubclass(cls, errors.EscrateError):
        return cls.exit_code
    return None


def _breach(command, rc, out, err):
    """What a run breaks of the contract, or None."""
    if not isinstance(rc, int) or rc not in (0, 2, 3, 4, 5):
        return "exit code"
    if rc in (2, 3, 4) and out != "":
        return "error exit with stdout"
    if err == "":
        return None if rc in (0, 5) else "error exit with empty stderr"
    line = _ONE_LINE.fullmatch(err)
    if line is None:
        return "stderr is not one line"
    if line[1] == "note":
        return None if command == "rate" and rc == 0 else "stray note"
    return None if _exit_code(line[1]) == rc else "exit code of the class"


@pytest.fixture(scope="module")
def base_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bases")
    return {label: _run(tmp, *BASES[label]) for label in BASES}


@pytest.mark.parametrize("label", sorted(BASES))
def test_base_config_runs(base_runs, label):
    # each base is a working run, so a swept value is the only fault
    rc, _, err = base_runs[label]
    assert rc in (0, 5)
    assert err == ""


@pytest.mark.parametrize("label, section, key", [
    (label, section, key)
    for label, (_, sections) in sorted(BASES.items())
    for section in sections for key in _SCHEMA[section]])
def test_swept_key_keeps_the_error_contract(tmp_path, base_runs, label,
                                            section, key):
    command, sections = BASES[label]
    found = []
    for value in VALUES:
        swept = dict(sections, **{section: dict(sections[section],
                                                **{key: value})})
        run = _run(tmp_path, command, swept)
        pinned = _pinned(section, key, value)
        if pinned is None:
            breach = _breach(command, *run)
        else:  # read: the pinned line, named on a breach; unread: the base
            breach = run not in (base_runs[label], (2, "", pinned)) and pinned
        if breach:
            found.append((value, breach, run))
    assert found == []


# parser -> rows of (text, its message for a key named "k") per class of
# value it refuses; READS: rows of (text, the value read) per accepted form
_GEOM = "t_grid geometric spec needs finite 0 < lo < hi, count >= 2"
_NAN, _INF = "k must be finite, got 'nan'", "k must be finite, got 'inf'"
_ABC, _INT = "k is not a number: 'abc'", "k must be an integer"
_X, _NINF = "k is not a number: '1,x'", "k must be finite, got '-inf'"
MESSAGES = {
    _number: [("abc", _ABC), ("nan", _NAN), ("inf", _INF), ("-inf", _NINF),
              ("1e400", "k must be finite, got '1e400'")],
    _int: [("abc", _ABC), ("nan", _NAN), ("inf", _INF), ("2.5", _INT)],
    _seed: [("abc", _ABC), ("inf", _INF), ("2.5", _INT),
            ("-1", "k must be in [0, 2^64), got '-1'"),
            ("18446744073709551616",
             "k must be in [0, 2^64), got '18446744073709551616'")],
    _numbers: [("1,x", _X), ("1,,2", "k is not a number: '1,,2'"),
               ("1,nan", "k must be finite, got '1,nan'")],
    _t_grid: [("1,x", _X), ("geom:0:10:3", _GEOM), ("geom:1:inf:3", _GEOM),
              ("geom:10:1:3", _GEOM), ("geom:1:10:1", _GEOM),
              ("geom:1:10", "t_grid geometric spec is geom:<lo>:<hi>:<count>"),
              ("geom:1:10:many", "bad t_grid spec: 'geom:1:10:many'"),
              ("geom:1:10:2.5", "bad t_grid spec: 'geom:1:10:2.5'")],
    _barrier: [("", "k is not a number: ''"), ("abc", _ABC), ("nan", _NAN),
               ("-inf", _NINF)],
}
READS = {
    _number: [("1e-320", 1e-320), ("2.5", 2.5)],
    _int: [("1e3", 1000), ("12345678901234567890", 12345678901234567890)],
    _seed: [("1e3", 1000), ("18446744073709551615", 2 ** 64 - 1)],
    _numbers: [("", []), ("1,2.5", [1.0, 2.5])],
    _t_grid: [("", []), ("geom:1:100:3", [1.0, 10.0, 100.0])],
    _barrier: [("inf", math.inf), ("1e400", math.inf), ("-2", -2.0)],
}


def _rows(table):
    return [pytest.param(parse, text, want, id=f"{parse.__name__}-{text}")
            for parse, rows in table.items() for text, want in rows]


@pytest.mark.parametrize("parse, text, message", _rows(MESSAGES))
def test_parser_message(parse, text, message):
    with pytest.raises(errors.ConfigError) as exc:
        parse(text, "k")
    assert str(exc.value) == message


@pytest.mark.parametrize("parse, text, value", _rows(READS))
def test_parser_reads(parse, text, value):
    read = parse(text, "k")
    read = read.tolist() if hasattr(read, "tolist") else read
    assert type(read) is type(value) and read == value
