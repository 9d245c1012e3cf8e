"""The CLI's error contract, swept over the config schema.

One small base config per command and drift route. Each key that
``cli._SCHEMA`` declares for a base's sections is set in turn to each of a
list of hostile values, and the run goes through ``cli.main`` in process.
Every run must exit 0, 2, 3, 4 or 5, with stderr empty, one
``<ErrorClass>: `` line whose class declares that exit code, or ``rate``'s
``note:`` line. Under pyproject's ``error::RuntimeWarning`` a raw warning is
an exception out of ``main``, so it fails the sweep too. The cases are
generated from the schema, so a new key is swept without an edit.

No swept value is a count between the 2^63 noise-coordinate gate and a small
one, so no run asks for a large array.
"""

import re

import pytest

from escrate import errors
from escrate.cli import _SCHEMA, main

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


def _exit_code(name):
    """The exit code a stderr line's leading name stands for, or None."""
    if name == "MemoryError":
        return errors.DomainError.exit_code
    cls = getattr(errors, name, None)
    if isinstance(cls, type) and issubclass(cls, errors.EscrateError):
        return cls.exit_code
    return None


def _breach(command, rc, err):
    """What a run's exit code and stderr break of the contract, or None."""
    if not isinstance(rc, int) or rc not in (0, 2, 3, 4, 5):
        return "exit code"
    if err == "":
        return None if rc in (0, 5) else "error exit with empty stderr"
    line = _ONE_LINE.fullmatch(err)
    if line is None:
        return "stderr is not one line"
    if line[1] == "note":
        return None if command == "rate" and rc == 0 else "stray note"
    return None if _exit_code(line[1]) == rc else "exit code of the class"


@pytest.mark.parametrize("label", sorted(BASES))
def test_base_config_runs(tmp_path, capsys, label):
    # each base is a working run, so a swept value is the only fault
    command, sections = BASES[label]
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(_ini(sections))
    assert main(command.split() + ["--config", str(cfg)]) in (0, 5)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("label, section, key", [
    (label, section, key)
    for label, (_, sections) in sorted(BASES.items())
    for section in sections for key in _SCHEMA[section]])
def test_swept_key_keeps_the_error_contract(tmp_path, capsys, label, section,
                                            key):
    command, sections = BASES[label]
    cfg = tmp_path / "cfg.ini"
    found = []
    for value in VALUES:
        swept = dict(sections, **{section: dict(sections[section],
                                                **{key: value})})
        cfg.write_text(_ini(swept))
        try:
            rc = main(command.split() + ["--config", str(cfg)])
        except Exception as exc:  # a traceback, or a raw warning as an error
            rc = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        breach = _breach(command, rc, err)
        if breach:
            found.append((value, breach, rc, err))
    assert found == []
