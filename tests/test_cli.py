"""End-to-end command-line checks, mostly through subprocess: exit codes, CSV
shape, and reproducibility."""

import csv
import io
import json
import os
import re
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

RUN = [sys.executable, "-m", "escrate.cli"]
README_MD = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(args, cwd, env=None):
    return subprocess.run(RUN + args, capture_output=True, text=True,
                          cwd=str(cwd), env=env)


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def readme_configs():
    """README's two example configs, by command: its rate table's and its
    simulation's."""
    rate, simulate = re.findall(r"^```ini\n(.*?)^```$", README_MD.read_text(),
                                re.M | re.S)
    return {"rate": rate, "simulate": simulate}


# Runs that pass every config check but ask numpy for 10^15 elements: past
# any 47-bit address space, so the allocation is refused before any memory is
# touched.
_UNALLOCATABLE = {
    "simulate": (
        "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n[simulation]\nx0 = 1\n"
        "t = 0.5\ndt = 0.01\nn_paths = 1000000000000000\nmaster_seed = 7\n"
        "floor = 0.05\noutput = summary\n"),
    "verify lil": (
        "[simulation]\nx0 = 1\nt = 20\ndt = 0.01\n"
        "n_paths = 1000000000000000\nmaster_seed = 1\ndrift = none\n"
        "sigma = 1\n[verify]\nt0 = 3\n"),
    "verify compare": (
        "[model]\nn = 2\nk = 1\n[simulation]\nx0 = 1\nfloor = 0.05\n"
        "master_seed = 21\n[verify]\nt = 0.5\ndelta = 0.5\nr = 5\n"
        "n_paths = 1000000000000000\ndt = 0.01\n"),
    "rate": ("[model]\nfamily = constant\nn = 3\n"
             "[solver]\nt_grid = geom:1:10:1000000000000000\n"),
}


# simulate's paths output of 50 paths x 5001 steps, about 11 MB of CSV
_PATHS = ("[model]\nwarp = euclidean\nn = 3\n[simulation]\nx0 = 1\nt = 5\n"
          "dt = 0.001\nn_paths = 50\nmaster_seed = 7\ndrift = manifold\n"
          "floor = 0.01\noutput = paths\n")
_PATHS_HEAD = b"path,step,t,x\n0,0,0,1\n0,1,0.001,"


def _buffering(unbuffered):
    """The environment with PYTHONUNBUFFERED set to 1, or unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONUNBUFFERED="1") if unbuffered else env


_SEED_CASES = {  # source, value and message of a refused seed
    "config_negative": ("config", "-1", "key 'master_seed' in "
                        "[simulation] must be in [0, 2^64), got '-1'"),
    "config_1e30": ("config", "1e30", "key 'master_seed' in "
                    "[simulation] must be in [0, 2^64), got '1e30'"),
    "flag_negative": ("flag", "-1", "--seed must be in [0, 2^64), got '-1'"),
    "flag_2_64": ("flag", "18446744073709551616",
                  "--seed must be in [0, 2^64), got '18446744073709551616'"),
    "flag_text": ("flag", "abc", "--seed is not a number: 'abc'"),
}


class TestConfigValidation:
    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "[model]\nfamily = constant\nbogus = 1\n")
        res = run_cli(["conserve", "--config", cfg], tmp_path)
        assert res.returncode == 2
        assert "bogus" in res.stderr

    def test_unknown_section_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "[mystery]\nx = 1\n")
        res = run_cli(["conserve", "--config", cfg], tmp_path)
        assert res.returncode == 2

    def test_solver_tolerance_key_exits_2(self, tmp_path):
        # nothing reads a tolerance: the solver's tolerances are fixed
        cfg = write_config(tmp_path, (
            "[model]\nfamily = constant\nn = 3\nmode = unit_energy\n"
            "[solver]\nt_grid = 1,10\ntolerance = 1e-8\n"))
        res = run_cli(["rate", "--config", cfg], tmp_path)
        assert res.returncode == 2
        assert "tolerance" in res.stderr

    def test_missing_config_exits_2(self, tmp_path):
        res = run_cli(["conserve", "--config", "nope.ini"], tmp_path)
        assert res.returncode == 2

    @pytest.mark.parametrize("body, out, message", [
        (b"x = 1\n", None, "File contains no section headers."),
        (b"[model]\nfamily = constant\nfamily = power\n", None,
         "option 'family' in section 'model' already exists"),
        (b"[model]\nfamily = constant\n[model]\nalpha = 1\n", None,
         "section 'model' already exists"),
        (b"[model]\nfamily = constant\ngarbage\n", None,
         "Source contains parsing errors"),
        (b"[model]\nfamily = con%stant\n", None,
         "unknown coefficient family 'con%stant'"),
        # the message depends on the locale's encoding
        (b"[model]\nfamily = caf\xe9\n", None, ""),
        (b"[model]\nfamily = constant\n", ".",
         "cannot write --out .: Is a directory"),
        (b"[model]\nfamily = constant\n", "missing/x.csv",
         "cannot write --out missing/x.csv: No such file or directory"),
    ], ids=["no_section_header", "duplicate_option", "duplicate_section",
            "line_without_value", "percent_sign", "not_utf8", "out_is_directory",
            "out_in_missing_directory"])
    def test_malformed_config_or_out_exits_2(self, tmp_path, monkeypatch,
                                             capsys, body, out, message):
        # one ConfigError line and no output, not a configparser or OSError
        # traceback
        from escrate import cli

        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.ini").write_bytes(body)
        argv = ["conserve", "--config", "cfg.ini"]
        assert cli.main(argv + (["--out", out] if out else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ConfigError: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, body, code", [
        ("conserve", "[model]\nfamily = nope\n", 2),
        ("simulate", (
            "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n[simulation]\nx0 = 1\n"
            "t = 0.5\ndt = 0.01\nn_paths = 4\nmaster_seed = 1\nfloor = 0\n"
            "output = summary\n"), 2),
        # the benchmark's squared_log beta = 1 probe
        ("rate", (
            "[model]\nfamily = squared_log\nbeta = 1\nn = 3\n"
            "mode = unit_energy\n[solver]\nt_grid = geom:1:1e6:50\n"), 3),
        # the overshooting coefficient drift of TestSimulate
        ("simulate", (
            "[model]\nfamily = squared_log\nbeta = 0.5\nn = 2\n"
            "[simulation]\nx0 = 0.8\nt = 0.2\ndt = 0.001\nn_paths = 20000\n"
            "master_seed = 5\ndrift = coefficient\n"), 4),
        # 10^15 paths: numpy refuses the summary's values array
        ("simulate", _UNALLOCATABLE["simulate"], 2),
    ], ids=["config_error", "zero_floor", "solver_error", "simulation_error",
            "memory_error"])
    def test_failed_run_keeps_existing_out(self, tmp_path, command, body, code):
        # a run writes a temporary file, renamed onto --out only when the
        # command completes: a failure leaves the earlier output and no
        # other file
        dest = tmp_path / "out" / "res.csv"
        dest.parent.mkdir()
        dest.write_bytes(b"t,psi\n1,2\n")
        cfg = write_config(tmp_path, body)
        res = run_cli([command, "--config", cfg, "--out", str(dest)], tmp_path)
        assert res.returncode == code, res.stderr
        assert res.stderr.count("\n") == 1
        assert dest.read_bytes() == b"t,psi\n1,2\n"
        assert os.listdir(dest.parent) == ["res.csv"]

    def test_completed_run_replaces_out(self, tmp_path):
        # exit 5 completes the command: its rows and FAIL line replace the
        # earlier output
        dest = tmp_path / "out" / "res.csv"
        dest.parent.mkdir()
        dest.write_bytes(b"earlier\n")
        cfg = write_config(tmp_path, (
            "[simulation]\nx0 = 1\nt = 2\ndt = 0.01\nn_paths = 20\n"
            "master_seed = 2\ndrift = none\n"
            "[verify]\nenvelope = zero\nc_grid = 1\nt0 = 1\n"))
        printed = run_cli(["verify", "envelope", "--config", cfg], tmp_path)
        assert printed.returncode == 5
        assert printed.stdout.splitlines()[-1].startswith("FAIL ")
        res = run_cli(["verify", "envelope", "--config", cfg, "--out",
                       str(dest)], tmp_path)
        assert res.returncode == 5 and res.stdout == ""
        assert dest.read_text() == printed.stdout
        assert os.listdir(dest.parent) == ["res.csv"]

    def test_out_device_is_written_in_place(self, capsys):
        # a rename would put a regular file where the device was
        from escrate import cli

        assert cli.main(["catalogue", "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        head, name = os.path.split(os.devnull)
        assert not [f for f in os.listdir(head) if f.startswith(f".{name}.")]

    def test_out_symlink_writes_its_target(self, tmp_path, capsys):
        from escrate import cli

        assert cli.main(["catalogue"]) == 0
        printed = capsys.readouterr().out
        real = tmp_path / "real" / "res.csv"
        real.parent.mkdir()
        real.write_bytes(b"earlier\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        assert cli.main(["catalogue", "--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == real
        assert real.read_text() == printed
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "real"]
        assert os.listdir(real.parent) == ["res.csv"]

    def test_read_only_out(self, tmp_path, capsys):
        # as at a direct open: a user who may not write the file gets exit 2
        # before any work and the file keeps its bytes; one who may (root)
        # replaces the bytes, and the file keeps its mode either way
        from escrate import cli

        dest = tmp_path / "res.csv"
        dest.write_bytes(b"earlier\n")
        dest.chmod(0o444)
        writable = os.access(dest, os.W_OK)
        code = cli.main(["catalogue", "--out", str(dest)])
        captured = capsys.readouterr()
        if writable:
            assert code == 0 and captured == ("", "")
            assert dest.read_text().startswith("case,range,psi,psi_tilde\n")
        else:
            assert code == 2
            assert captured.err == (f"ConfigError: cannot write --out {dest}: "
                                    "Permission denied\n")
            assert dest.read_bytes() == b"earlier\n"
        assert stat.S_IMODE(dest.stat().st_mode) == 0o444
        assert os.listdir(tmp_path) == ["res.csv"]

    def test_failed_rename_exits_2(self, tmp_path, monkeypatch, capsys):
        # an OSError on closing or renaming is a ConfigError line, and the
        # temporary file is removed
        from escrate import cli

        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        dest = tmp_path / "res.csv"
        dest.write_bytes(b"earlier\n")
        monkeypatch.setattr(cli.os, "replace", no_space)
        assert cli.main(["catalogue", "--out", str(dest)]) == 2
        assert capsys.readouterr().err == (
            f"ConfigError: cannot write --out {dest}: No space left on device\n")
        assert dest.read_bytes() == b"earlier\n"
        assert os.listdir(tmp_path) == ["res.csv"]

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    def test_closed_pipe_is_one_line(self, tmp_path, unbuffered):
        # the reader of a long CSV stops after 100 bytes (as `| head -c 100`
        # does): one ConfigError line and exit 2, not a BrokenPipeError
        # traceback
        cfg = write_config(tmp_path, _PATHS)
        proc = subprocess.Popen(RUN + ["simulate", "--config", cfg],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=str(tmp_path), env=_buffering(unbuffered))
        assert proc.stdout.read(100).startswith(_PATHS_HEAD)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2, err
        assert err == b"ConfigError: cannot write stdout: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command, to_stdout", [
        ("simulate", True), ("catalogue", True), ("simulate", False)],
        ids=["simulate_stdout", "catalogue_stdout", "simulate_out"])
    def test_full_device_is_one_line(self, tmp_path, command, to_stdout,
                                     unbuffered):
        # a write, or the flush of what catalogue buffered, fails with
        # ENOSPC: one ConfigError line naming the sink and exit 2, with no
        # traceback and no "Exception ignored" at exit (exit 120)
        argv = [command]
        if command == "simulate":
            argv += ["--config", write_config(tmp_path, _PATHS)]
        sink = "stdout" if to_stdout else "--out /dev/full"
        with open("/dev/full", "w") as full:
            res = subprocess.run(
                RUN + argv + ([] if to_stdout else ["--out", "/dev/full"]),
                stdout=full if to_stdout else subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, cwd=str(tmp_path),
                env=_buffering(unbuffered))
        assert res.returncode == 2, res.stderr
        assert res.stderr == (f"ConfigError: cannot write {sink}: "
                              "No space left on device\n")

    def test_failed_write_discards_the_temporary_file(self, tmp_path):
        # a write to --out that fails is the ConfigError of a failed rename,
        # and leaves the earlier file and no temporary one
        from escrate import cli
        from escrate.errors import ConfigError

        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        dest = tmp_path / "res.csv"
        dest.write_bytes(b"earlier\n")
        out = cli._Out(str(dest))
        out.fh.close()
        out.fh = Full()
        with pytest.raises(ConfigError) as err:
            out.row("case", "range")
        assert str(err.value) == (f"cannot write --out {dest}: "
                                  "No space left on device")
        assert dest.read_bytes() == b"earlier\n"
        assert os.listdir(tmp_path) == ["res.csv"]

    @pytest.fixture(scope="class")
    def unset_runs(self, tmp_path_factory):
        # conserve on a family and a 20-path simulate summary, with
        # ESCRATE_THREADS unset: (argv, cwd, stdout) of each
        tmp = tmp_path_factory.mktemp("threads")
        env = dict(os.environ)
        env.pop("ESCRATE_THREADS", None)
        runs = []
        for command, text in (
                ("conserve", "[model]\nfamily = constant\n"),
                ("simulate", (
                    "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n[simulation]\n"
                    "x0 = 1\nt = 1\ndt = 0.01\nn_paths = 20\nmaster_seed = 7\n"
                    "drift = manifold\nfloor = 0.05\noutput = summary\n"))):
            argv = [command, "--config", write_config(tmp, text, f"{command}.ini")]
            res = run_cli(argv, tmp, env)
            assert res.returncode == 0 and res.stderr == "", res.stderr
            runs.append((argv, tmp, res.stdout))
        return runs

    @pytest.mark.parametrize("value", ["1", "4", "0", "many"])
    def test_thread_variable_ignored(self, unset_runs, value):
        # nothing reads ESCRATE_THREADS: any value, valid or not, prints the
        # bytes of a run without it
        env = dict(os.environ, ESCRATE_THREADS=value)
        for argv, cwd, stdout in unset_runs:
            res = run_cli(argv, cwd, env)
            assert res.returncode == 0, res.stderr
            assert res.stderr == ""
            assert res.stdout == stdout, argv[0]

    @pytest.mark.parametrize("command,body,message", [
        ("simulate", "[simulation]\nt = 1\ndt = 0.01\nn_paths = 4\n"
                     "master_seed = 1\n", "missing key 'x0' in [simulation]"),
        ("verify compare", "[model]\nn = 2\n[simulation]\nx0 = 1\n"
                           "master_seed = 1\n",
         "missing required config section [verify]"),
    ], ids=["missing_key", "missing_section"])
    def test_missing_key_or_section_exits_2(self, tmp_path, command, body,
                                            message):
        cfg = write_config(tmp_path, body)
        res = run_cli(command.split() + ["--config", cfg], tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"ConfigError: {message}\n"

    def test_profile_mode_alias_exits_2(self, tmp_path):
        # only unit_energy and coefficient_energy (any case) name a mode
        cfg = write_config(tmp_path, (
            "[model]\nfamily = constant\nn = 3\nmode = unit\n"
            "[solver]\nt_grid = 1,10\n"))
        res = run_cli(["rate", "--config", cfg], tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "unknown profile mode" in res.stderr

    @pytest.mark.parametrize("radii,values,message", [
        ("0,2,1", "1,2,3", "tabulated radii must be strictly increasing, "
                           ">= 2 points"),
        ("0,1", "1,2,3", "tabulated coefficient has 2 radii but 3 values"),
        ("0,nan,2", "1,2,3", "tabulated radii and values must be finite"),
        ("0,1,2", "1,2,1e308", "tabulated slopes or spline coefficients "
                               "are not finite"),
        ("1e-300,2e-300,1", "1,2,1", "tabulated slopes or spline "
                                     "coefficients are not finite"),
    ], ids=["unordered", "more_values", "nan_radius", "overflowing_value",
            "close_knots"])
    @pytest.mark.parametrize("command", ["rate", "conserve"])
    def test_malformed_table_exits_2(self, tmp_path, command, radii, values,
                                     message):
        cfg = write_config(tmp_path, (
            "[model]\nfamily = tabulated\nn = 3\nmode = coefficient_energy\n"
            f"radii = {radii}\nvalues = {values}\n[solver]\nt_grid = 1,10\n"))
        res = run_cli([command, "--config", cfg], tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"ConfigError: {message}\n"

    # verify dyadic never reads a seed, so only the flag cases reach it
    @pytest.mark.parametrize("command,source,seed,message", [
        pytest.param(command, *case, id=f"{command}-{name}")
        for command in ("simulate", "verify compare", "verify dyadic")
        for name, case in _SEED_CASES.items()
        if command != "verify dyadic" or case[0] == "flag"])
    def test_seed_out_of_range_exits_2(self, tmp_path, monkeypatch, capsys,
                                       command, source, seed, message):
        # a Philox key is a uint64: --seed is parsed before any command
        # runs, and a config seed before any chain steps
        from escrate import cli, rate_solver, sde, verify as verify_mod

        def run(*args, **kwargs):
            raise AssertionError("a chain stepped or a scheme was built")

        monkeypatch.setattr(sde, "_shared_noise_run", run)
        monkeypatch.setattr(verify_mod, "comparison_mc", run)
        monkeypatch.setattr(rate_solver, "dyadic_scheme", run)
        cfg = write_config(tmp_path, (
            "[model]\nfamily = constant\nn = 3\nmode = unit_energy\n"
            "[verify]\nc = 4\nn_levels = 30\n") if command == "verify dyadic"
            else (
            "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n[simulation]\nx0 = 1\n"
            "t = 0.5\ndt = 0.01\nn_paths = 4\nfloor = 0.05\noutput = summary\n"
            f"master_seed = {seed if source == 'config' else 7}\n"
            "[verify]\nt = 0.5\ndelta = 0.8\nr = 10\nn_paths = 4\ndt = 0.001\n"))
        flag = ["--seed", seed] if source == "flag" else []
        assert cli.main(command.split() + ["--config", cfg] + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ConfigError: {message}\n"

    @pytest.mark.parametrize("command, body, error", [
        ("rate", "[model]\nfamily = constant\nn = 3\n"
         "[solver]\nt_grid = 1,10\nscale_c = 1e308\n", "FiniteTotalIntegral"),
        ("verify envelope", "[model]\nfamily = constant\nn = 3\n"
         "[solver]\nt_grid = geom:1:100:20\nscale_c = 1\n"
         "[simulation]\nx0 = 1\nt = 20\ndt = 0.01\nn_paths = 30\n"
         "master_seed = 9\nfloor = 0.01\n[verify]\nc_grid = 1,1e308\nt0 = 2\n",
         "ExtrapolationError: envelope for C=1e+308 needs rate values on "),
        ("verify lil", "[simulation]\nx0 = 1\nt = 5\ndt = 0.01\nn_paths = 20\n"
         "master_seed = 1\ndrift = none\nsigma = 1e308\n[verify]\nt0 = 3\n",
         "NonFiniteState"),
        ("verify compare", "[model]\nn = 2\nk = 1\n[simulation]\nx0 = 1\n"
         "floor = 1e-320\nmaster_seed = 21\n[verify]\nt = 0.5\ndelta = 0.5\n"
         "r = 5\nn_paths = 20\ndt = 0.01\n", "NonFiniteState"),
        ("rate", "[model]\nfamily = constant\nn = 3\n"
         "[solver]\nt_grid = 1,1e308\n", "FiniteTotalIntegral"),
        ("rate", "[model]\nfamily = constant\nn = 1e308\n"
         "[solver]\nt_grid = 1,10\n", "FiniteTotalIntegral"),
        ("verify compare", "[model]\nn = 1e308\nk = 1\n[simulation]\nx0 = 1\n"
         "floor = 0.05\nmaster_seed = 21\n[verify]\nt = 0.5\ndelta = 0.5\n"
         "r = 5\nn_paths = 20\ndt = 0.01\n", "NonFiniteState"),
        ("rate", "[model]\nfamily = constant\nn = 3\n"
         "[solver]\nt_grid = 1,10\nr_lo = -1\n",
         "DomainError: lower limit r_lo=-1 must be positive"),
        ("rate", "[model]\nfamily = constant\nn = 3\n"
         "[solver]\nt_grid = 1,10\nr_lo = 0\n",
         "DomainError: lower limit r_lo=0 must be positive"),
        ("verify envelope", "[model]\nfamily = constant\nn = 3\n"
         "[solver]\nt_grid = geom:1:100:20\nscale_c = 1\nr_lo = -1\n"
         "[simulation]\nx0 = 1\nt = 20\ndt = 0.01\nn_paths = 30\n"
         "master_seed = 9\nfloor = 0.01\n[verify]\nt0 = 2\n",
         "DomainError: lower limit r_lo=-1 must be positive"),
        ("rate", "[model]\nfamily = constant\nn = 3\n"
         "[solver]\nt_grid = 1,10\nr_lo = 0.5\n", "NonPositiveDenominator"),
        ("rate", "[model]\nfamily = power\nalpha = 1\nn = 1e308\n"
         "[solver]\nt_grid = 1,10\n", "FiniteTotalIntegral"),
        ("rate", "[model]\nfamily = squared_log\nbeta = 0.5\nn = 1e308\n"
         "[solver]\nt_grid = 1,10\n", "FiniteTotalIntegral"),
        ("rate", "[model]\nfamily = power\nalpha = 1\nn = 1e308\n"
         "mode = coefficient_energy\n[solver]\nt_grid = 1,10\n",
         "FiniteTotalIntegral"),
        ("rate", "[model]\nfamily = power\nalpha = 1e20\nn = 3\n"
         "mode = coefficient_energy\n[solver]\nt_grid = 1,10\n",
         "FiniteTotalIntegral"),
    ], ids=["rate_scale_c", "envelope_c_grid", "lil_sigma", "compare_floor",
            "rate_t_grid", "rate_n", "compare_n", "rate_r_lo_negative",
            "rate_r_lo_zero", "envelope_r_lo_negative", "rate_r_lo_below_e",
            "rate_power_n", "rate_squared_log_n", "coefficient_energy_n",
            "coefficient_energy_alpha"])
    def test_overflow_gives_one_error_line(self, tmp_path, capsys, command,
                                           body, error):
        # a product past float range is inf, and then the typed error; under
        # pyproject's error::RuntimeWarning a raw warning would escape main
        from escrate import cli, errors

        name = error.partition(":")[0]  # the class, then any message start
        cfg = write_config(tmp_path, body)
        rc = cli.main(command.split() + ["--config", cfg])
        assert rc == getattr(errors, name).exit_code
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{name}: ")
        assert captured.err.startswith(error)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(_UNALLOCATABLE))
    def test_unallocatable_array_gives_one_error_line(self, tmp_path, capsys,
                                                      command):
        # under the 2^63-coordinate gate, yet more than memory holds: one
        # MemoryError line and exit 2, not numpy's traceback
        from escrate import cli

        cfg = write_config(tmp_path, _UNALLOCATABLE[command])
        assert cli.main(command.split() + ["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("MemoryError: Unable to allocate ")
        assert err.count("\n") == 1

    def test_lil_envelope_overflow_is_quiet(self, tmp_path, capsys):
        # (1 + eps) sqrt(2 t log log t) past float range is an inf envelope
        # that no path exceeds, with no raw warning
        from escrate import cli

        cfg = write_config(tmp_path, (
            "[simulation]\nx0 = 1\nt = 30\ndt = 0.01\nn_paths = 20\n"
            "master_seed = 1\ndrift = none\nsigma = 1\nfloor = 1e-6\n"
            "[verify]\nt0 = 10\neps_grid = 0,1e308\n"))
        assert cli.main(["verify", "lil", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-2] == "1e+308,0"

    def test_flags_only_where_read(self, monkeypatch, capsys):
        # --quiet only on rate, --seed only on simulate and verify, and
        # catalogue reads no config; every benchmark call still parses
        from escrate import cli

        for argv in (["rate", "--config", "x.ini", "--seed", "3"],
                     ["conserve", "--config", "x.ini", "--quiet"],
                     ["simulate", "--config", "x.ini", "--quiet"],
                     ["catalogue", "--config", "x.ini"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        for workload in workloads.workloads(lil_cap=0.1).values():
            for call in workload.calls + workload.once + workload.probes:
                argv = list(call.command) + ["--out", "x.csv"]
                argv += ["--config", "x.ini"] if call.config is not None else []
                argv += ["--seed", "41"] if call.seeded else []
                cli.build_parser().parse_args(argv)

    def test_each_error_class_declares_its_exit_code(self, monkeypatch, capsys):
        # cli.main prints `Name: message` and exits with the class's code
        from escrate import cli, errors

        classes = [c for c in vars(errors).values() if isinstance(c, type)
                   and issubclass(c, errors.EscrateError)
                   and c is not errors.EscrateError]
        assert len(classes) == 11
        for cls in classes:
            assert cls.exit_code in {2, 3, 4, 5}, cls

            def fail(out, cls=cls):
                raise cls.__new__(cls, "boom")

            monkeypatch.setattr(cli, "cmd_catalogue", fail)
            assert cli.main(["catalogue"]) == cls.exit_code, cls
            assert capsys.readouterr().err == f"{cls.__name__}: boom\n"
        assert errors.DriftOrderViolated.exit_code == 5
        assert errors.NonMonotoneTransform.exit_code == 3


class TestConfigSchema:
    """Every key's parser and default sit in one table, cli._SCHEMA."""

    @staticmethod
    def _stated(cell):
        # a README default cell: required, not set, empty, `x`, or
        # `x` (use), `y` (use) for a default per use
        words = {"required": ..., "not set": None, "empty": ""}
        if cell in words:
            return words[cell]
        uses = re.findall(r"`([^`]*)` \((\w+)\)", cell)
        return {use: text for text, use in uses} if uses else cell.strip("`")

    @classmethod
    def _matches(cls, default, stated):
        if isinstance(default, dict):
            return (isinstance(stated, dict) and stated.keys() == default.keys()
                    and all(cls._matches(default[u], stated[u]) for u in default))
        if isinstance(default, (int, float)):
            return isinstance(stated, str) and float(stated) == default
        return stated == default

    def test_readme_lists_every_key_with_its_default(self):
        from escrate import cli

        readme = README_MD.read_text()
        rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| [^|]+ \| ([^|]+) \|",
                          readme, re.M)
        stated = {(section, key): self._stated(cell.strip())
                  for section, key, cell in rows}
        assert len(stated) == len(rows)
        schema = {(section, key): default
                  for section, keys in cli._SCHEMA.items()
                  for key, (_, default) in keys.items()}
        assert stated.keys() == schema.keys()
        for where, default in schema.items():
            assert self._matches(default, stated[where]), (where, stated[where])

    def test_readme_family_row_lists_the_families(self):
        from escrate.basics import FAMILIES

        readme = README_MD.read_text()
        meaning = {key: cell for key, cell in re.findall(
            r"^\| `\[model\]` \| `(\w+)` \|[^|]+\|[^|]+\| ([^|]+) \|", readme, re.M)}
        assert re.findall(r"`([a-z_]+)`", meaning["family"]) == list(FAMILIES)
        for family, key in FAMILIES.items():
            if key is not None:
                assert f"`{family}`" in meaning[key], key


_TAB_RADII = [0.0] + [2.0 ** k for k in range(31)]
_TABULATED = ("family = tabulated\nn = 3\n"
              "radii = " + ",".join("%.17g" % r for r in _TAB_RADII) + "\n"
              "values = " + ",".join("%.17g" % (1.0 + r ** 0.5) for r in _TAB_RADII)
              + "\n")


_NUMERIC = ("numpy", "escrate.profiles", "escrate.rate_solver", "escrate.sde",
            "escrate.verify")
# what only the solver and the tabulated coefficients' numerics need
_SOLVER = ("escrate.rate_solver", "escrate._numerics")


class TestReadmeExamples:
    @pytest.mark.parametrize("command", ["rate", "simulate"])
    def test_rerun_byte_identical(self, tmp_path, capsys, command):
        # README's own example configs, run twice: exit 0, the same bytes
        from escrate import cli

        cfg = write_config(tmp_path, readme_configs()[command])
        outputs = []
        for run in range(2):
            out = tmp_path / f"{run}.csv"
            assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) == {"rate": 51,
                                                   "simulate": 1001}[command]

    @pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                        reason="numpy has no AVX-512 (X86_V4) loops here")
    def test_same_bytes_on_avx2_and_avx512(self, tmp_path):
        # README's configs in child processes, on numpy's AVX-512 loops and
        # with them disabled: the simulated bytes are equal, while rate rows
        # may move by an ulp or two (README)
        avx2 = dict(os.environ,
                    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        runs = {}
        for command, text in readme_configs().items():
            cfg = write_config(tmp_path, text, f"{command}.ini")
            for env in (None, avx2):
                res = run_cli([command, "--config", cfg], tmp_path, env)
                assert res.returncode == 0 and res.stderr == "", res.stderr
                runs.setdefault(command, []).append(res.stdout)
        assert runs["simulate"][0] == runs["simulate"][1]
        rows = [np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
                for out in runs["rate"]]
        np.testing.assert_allclose(rows[1], rows[0], rtol=1e-14, atol=0)


class TestModulesLoaded:
    def test_each_command_loads_only_what_it_uses(self, tmp_path):
        # (command, config, environment, exit code, modules it must not load);
        # no command loads scipy: the package runs on numpy alone
        family = "[model]\nfamily = {}\n"
        calls = {
            "catalogue": ("catalogue", None, {}, 0, _NUMERIC),
            "conserve_constant": ("conserve", family.format("constant"), {}, 0,
                                  _NUMERIC),
            "conserve_power": ("conserve", family.format("power\nalpha = 3"),
                               {}, 0, _NUMERIC),
            "conserve_squared_log": ("conserve",
                                     family.format("squared_log\nbeta = 1"),
                                     {}, 0, _NUMERIC),
            "unknown_key": ("conserve", family.format("constant\nbogus = 1"),
                            {}, 2, _NUMERIC),
            "missing_config": ("conserve --config missing.ini", None, {}, 2,
                               _NUMERIC),
            "malformed_ini": ("conserve", "family = constant\n", {}, 2,
                              _NUMERIC),
            "threads_ignored": ("conserve", family.format("constant"),
                                {"ESCRATE_THREADS": "many"}, 0, _NUMERIC),
            "rate_family": ("rate", "[model]\nfamily = constant\nn = 3\n"
                            "mode = unit_energy\n[solver]\nt_grid = 1,10\n",
                            {}, 0, ("escrate.sde", "escrate.verify")),
            "rate_tabulated": ("rate", "[model]\n" + _TABULATED
                               + "mode = coefficient_energy\n"
                               "[solver]\nt_grid = 1,10\n",
                               {}, 0, ("escrate.sde", "escrate.verify")),
            "conserve_tabulated": ("conserve", "[model]\n" + _TABULATED, {}, 0,
                                   ("escrate.sde", "escrate.verify")),
            "simulate": ("simulate", (
                "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n[simulation]\n"
                "x0 = 1\nt = 1\ndt = 0.01\nn_paths = 20\nmaster_seed = 7\n"
                "drift = manifold\nfloor = 0.05\noutput = summary\n"),
                {}, 0, ("escrate.verify",) + _SOLVER),
            "compare": ("verify compare", (
                "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n[simulation]\n"
                "x0 = 1\nfloor = 0.05\nmaster_seed = 21\n[verify]\nt = 0.5\n"
                "delta = 0.8\nr = 10\nn_paths = 20\ndt = 0.01\n"), {}, 0,
                _SOLVER),
            "lil": ("verify lil", (
                "[simulation]\nx0 = 1\nt = 20\ndt = 1\nn_paths = 20\n"
                "master_seed = 8\ndrift = none\nsigma = 1\nfloor = 1e-6\n"
                "[verify]\nt0 = 3\n"), {}, 0, _SOLVER + ("escrate.profiles",)),
            **{f"envelope_{word}": ("verify envelope", (
                "[simulation]\nx0 = 1\nt = 5\ndt = 0.01\nn_paths = 20\n"
                "master_seed = 2\ndrift = none\n[verify]\nc_grid = 1\n"
                f"t0 = 1\nenvelope = {word}\nmax_fraction = 1\n"), {}, 0,
                _SOLVER + ("escrate.profiles",))
               for word in ("zero", "infinity")},
            "envelope_table": ("verify envelope", (
                "[model]\nfamily = constant\nn = 3\nmode = unit_energy\n"
                "warp = euclidean\n[solver]\nt_grid = geom:1:100:10\n"
                "scale_c = 1\n[simulation]\nx0 = 1\nt = 5\ndt = 0.01\n"
                "n_paths = 50\nmaster_seed = 9\ndrift = manifold\n"
                "floor = 0.01\n[verify]\nc_grid = 1,2\nt0 = 1\n"), {}, 0, ()),
            "dyadic": ("verify dyadic", (
                "[model]\nfamily = constant\nn = 1\nmode = unit_energy\n"
                "[verify]\nc = 4\nn_levels = 30\n"), {}, 0,
                ("escrate.sde", "escrate.verify")),
        }
        report = ("import json, sys\n"
                  "print(json.dumps(sorted(m for m in sys.modules\n"
                  "      if m.startswith(('numpy', 'escrate', 'scipy'))\n"
                  "      or m in ('dataclasses', 'inspect'))))\n")
        # no command loads dataclasses or inspect beyond what a bare
        # interpreter loads, or one that imports numpy (numpy imports inspect)
        stdlib = {"dataclasses", "inspect"}

        def baseline(imports):
            res = subprocess.run([sys.executable, "-c", imports + report],
                                 capture_output=True, text=True,
                                 cwd=str(tmp_path), check=True)
            return stdlib & set(json.loads(res.stdout))
        bare, with_numpy = baseline(""), baseline("import numpy\n")
        for name, (command, text, env_extra, rc, absent) in calls.items():
            argv = command.split() + ["--out", f"{name}.csv"]
            if text is not None:
                argv += ["--config", write_config(tmp_path, text, f"{name}.ini")]
            script = ("import sys\nimport escrate.cli as cli\n"
                      f"rc = cli.main({argv!r})\n" + report
                      + "sys.exit(rc)\n")
            env = dict(os.environ, **env_extra)
            res = subprocess.run([sys.executable, "-c", script],
                                 capture_output=True, text=True,
                                 cwd=str(tmp_path), env=env)
            assert res.returncode == rc, (name, res.stderr)
            assert (res.stderr == "") == (rc == 0), (name, res.stderr)
            loaded = set(json.loads(res.stdout))
            assert not loaded & set(absent), (name, sorted(loaded & set(absent)))
            assert not any(m.startswith("scipy") for m in loaded), name
            allowed = with_numpy if "numpy" in loaded else bare
            assert loaded & stdlib <= allowed, (name, sorted(loaded & stdlib))
            if rc == 0:
                assert (tmp_path / f"{name}.csv").read_text().strip(), name

        # the package's names resolve on first use
        res = subprocess.run([sys.executable, "-c", (
            "import escrate\n" + report
            + "from escrate import rate_table, Sde1D, comparison_mc\n"
            "assert rate_table.__module__ == 'escrate.rate_solver'\n"
            "assert Sde1D.__module__ == 'escrate.sde'\n"
            "assert comparison_mc.__module__ == 'escrate.verify'\n")],
            capture_output=True, text=True, cwd=str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == ["escrate"]


class TestLaunch:
    # one config per exit code: (command, config, whether it writes --out)
    CASES = {
        0: ("rate", "[model]\nfamily = constant\nn = 3\nmode = unit_energy\n"
               "[solver]\nt_grid = 1,10\nr_lo = 3\n", False),
        2: ("conserve", "[model]\nfamily = constant\nbogus = 1\n", True),
        3: ("rate", "[model]\nfamily = power\nalpha = 3\nn = 2\n"
               "mode = unit_energy\n[solver]\nt_grid = 1,10,100\n", True),
        4: ("simulate", "[simulation]\nx0 = 1\nt = 0.1\ndt = 0.01\n"
                        "n_paths = 4\nmaster_seed = 3\ndrift = none\n"
                        "sigma = 1e300\noutput = summary\n", True),
        5: ("verify envelope", "[simulation]\nx0 = 1\nt = 2\ndt = 0.01\n"
                               "n_paths = 20\nmaster_seed = 2\ndrift = none\n"
                               "[verify]\nenvelope = zero\nc_grid = 1\n"
                               "t0 = 1\n", True),
    }

    @pytest.mark.parametrize("code", sorted(CASES))
    def test_process_matches_main(self, tmp_path, monkeypatch, capsys, code):
        # a launched process gives main's exit code, stdout, stderr and
        # --out bytes
        from escrate import cli

        command, text, to_file = self.CASES[code]
        cfg = write_config(tmp_path, text)
        runs = []
        for side in ("process", "main"):
            work = tmp_path / side
            work.mkdir()
            argv = command.split() + ["--config", cfg]
            argv += ["--out", "out.csv"] if to_file else []
            if side == "process":
                res = run_cli(argv, work)
                streams = (res.returncode, res.stdout, res.stderr)
            else:
                monkeypatch.chdir(work)
                streams = (cli.main(argv), *capsys.readouterr())
            out = work / "out.csv"
            runs.append(streams + (out.read_bytes() if out.exists() else None,))
        assert runs[0] == runs[1]
        assert runs[0][0] == code and any(runs[0][1:])

    def test_long_stdout_arrives_whole(self, tmp_path, capsys):
        # ending with os._exit loses nothing: about 11 MB of CSV through a
        # pipe equal the --out file of the same run
        from escrate import cli

        cfg = write_config(tmp_path, _PATHS)
        res = subprocess.run(RUN + ["simulate", "--config", cfg],
                             capture_output=True, cwd=str(tmp_path))
        assert res.returncode == 0 and res.stderr == b""
        dest = tmp_path / "out.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(dest)]) == 0
        assert capsys.readouterr() == ("", "")
        assert len(res.stdout) > 10 ** 7
        assert res.stdout == dest.read_bytes()
        assert res.stdout.startswith(_PATHS_HEAD)

    def test_profiler_report_is_written(self, tmp_path):
        # under cProfile the process exits through sys.exit, so the
        # profiler prints its table after the CSV
        res = subprocess.run([sys.executable, "-m", "cProfile", "-m",
                              "escrate.cli", "catalogue"], capture_output=True,
                             text=True, cwd=str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith(TestCatalogue.STDOUT)
        assert "function calls" in res.stdout and "Ordered by" in res.stdout

    def test_script_is_the_launcher(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"escrate": "escrate.cli:launch"}

    @pytest.mark.parametrize("hook", [None, "gettrace", "getprofile"])
    def test_ends_with_os_exit_unless_traced(self, monkeypatch, capsys, hook):
        # os._exit after the streams are flushed; sys.exit under a tracer or
        # profiler, which writes its report at exit
        from escrate import cli

        class Ended(Exception):
            pass

        def ended(code):
            raise Ended(code)

        monkeypatch.setattr(cli.os, "_exit", ended)
        for name in ("gettrace", "getprofile"):
            monkeypatch.setattr(cli.sys, name, (lambda: print) if name == hook
                                else (lambda: None))
        with pytest.raises(SystemExit if hook else Ended) as end:
            cli.launch(["catalogue"])
        assert end.value.args == (0,)
        assert capsys.readouterr() == (TestCatalogue.STDOUT, "")

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["rate"], 2), (["catalogue", "--bogus"], 2)],
        ids=["help", "missing_config", "unknown_flag"])
    def test_argparse_exit_is_unchanged(self, monkeypatch, capsys, argv, code):
        # an exception out of main never reaches os._exit
        from escrate import cli

        monkeypatch.setattr(cli.os, "_exit", pytest.fail)
        with pytest.raises(SystemExit) as end:
            cli.launch(argv)
        assert end.value.code == code
        captured = capsys.readouterr()
        assert (captured.out if code == 0 else captured.err).startswith(
            "usage: escrate")

    def test_failed_flush_exits_through_sys_exit(self, monkeypatch, capsys):
        # stdout that cannot be flushed: main's one ConfigError line, then
        # sys.exit with its code, not os._exit
        from escrate import cli

        class Full(io.StringIO):
            def flush(self):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.os, "_exit", pytest.fail)
        monkeypatch.setattr(cli.sys, "stdout", Full())
        with pytest.raises(SystemExit) as end:
            cli.launch(["catalogue"])
        assert end.value.code == 2
        assert capsys.readouterr().err == (
            "ConfigError: cannot write stdout: No space left on device\n")


class TestExports:
    def test_every_public_name_resolves(self):
        # a stale name in a lazy export or an __all__ fails only on first use
        import importlib
        import pkgutil

        import escrate

        for name in escrate.__all__:
            getattr(escrate, name)
        for info in pkgutil.iter_modules(escrate.__path__):
            module = importlib.import_module(f"escrate.{info.name}")
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), (info.name, name)
            exported = escrate._EXPORTS.get(info.name, ())
            if hasattr(module, "__all__"):
                assert set(exported) <= set(module.__all__), info.name


class TestRate:
    def test_quadratic_coefficient_exits_3(self, tmp_path):
        # finite total time integral: no rate curve exists
        cfg = write_config(tmp_path, (
            "[model]\nfamily = power\nalpha = 3\nn = 2\nmode = unit_energy\n"
            "[solver]\nt_grid = 1,10,100\n"))
        res = run_cli(["rate", "--config", cfg], tmp_path)
        assert res.returncode == 3

    def test_empty_grid_prints_header_only(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[model]\nfamily = constant\nn = 3\nmode = unit_energy\n"
            "[solver]\nt_grid =\n"))
        res = run_cli(["rate", "--config", cfg], tmp_path)
        assert res.returncode == 0
        assert res.stdout == "t,psi,psi_tilde\n"

    def test_failing_table_prints_nothing(self, tmp_path, capsys):
        # the table is solved before the header is written, so a failed
        # solve leaves stdout empty
        from escrate import cli

        cfg = write_config(tmp_path, (
            "[model]\nfamily = constant\nn = 3\n[solver]\nt_grid = 1,1e308\n"))
        assert cli.main(["rate", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("FiniteTotalIntegral: ")
        assert captured.err.count("\n") == 1

    def test_rate_rows_monotone(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[model]\nfamily = constant\nn = 3\nmode = unit_energy\n"
            "[solver]\nt_grid = geom:1:1000:8\n"))
        res = run_cli(["rate", "--config", cfg, "--quiet"], tmp_path)
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "t,psi,psi_tilde"
        psis = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(psis) == 8
        assert all(a < b for a, b in zip(psis, psis[1:]))

    def test_power_psi_tilde_is_exact(self, tmp_path):
        # alpha = 1: rho_tilde(s) = 2 (sqrt(1+s) - 1), inverse (1+r/2)^2 - 1
        cfg = write_config(tmp_path, (
            "[model]\nfamily = power\nalpha = 1\nn = 3\nmode = unit_energy\n"
            "[solver]\nt_grid = geom:1:1e6:40\n"))
        res = run_cli(["rate", "--config", cfg, "--quiet"], tmp_path)
        assert res.returncode == 0, res.stderr
        rows = list(csv.reader(io.StringIO(res.stdout)))[1:]
        assert len(rows) == 40
        for _, psi, psi_tilde in rows:
            exact = (1.0 + float(psi) / 2.0) ** 2 - 1.0
            assert float(psi_tilde) == pytest.approx(exact, rel=1e-12)

    def test_psi_tilde_beyond_float_range_is_inf(self, tmp_path):
        # log psi_tilde is about 3.3e9 here
        cfg = write_config(tmp_path, (
            "[model]\nfamily = squared_log\nbeta = 0.5\nn = 3\n"
            "mode = unit_energy\n[solver]\nt_grid = 100\n"))
        res = run_cli(["rate", "--config", cfg, "--quiet"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "Warning" not in res.stderr
        (row,) = list(csv.reader(io.StringIO(res.stdout)))[1:]
        assert row[2] == "inf"

    def test_two_infinite_psi_tilde_rows_print_no_warning(self, tmp_path):
        # the rate table's monotonicity check must not subtract inf from inf
        cfg = write_config(tmp_path, (
            "[model]\nfamily = squared_log\nbeta = 0.5\nn = 3\n"
            "mode = unit_energy\n[solver]\nt_grid = 100,200\n"))
        res = run_cli(["rate", "--config", cfg, "--quiet"], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "Warning" not in res.stderr
        rows = list(csv.reader(io.StringIO(res.stdout)))[1:]
        assert [row[2] for row in rows] == ["inf", "inf"]

    def test_unrepresentable_envelope_fails_cleanly(self, tmp_path):
        # exp(exp(t)) growth: psi passes 1e150 before phi reaches 512 t,
        # and the integrand r*r would overflow soon after
        cfg = write_config(tmp_path, (
            "[model]\nfamily = squared_log\nbeta = 1\nn = 3\n"
            "mode = unit_energy\n[solver]\nt_grid = geom:1:1e6:50\n"))
        res = run_cli(["rate", "--config", cfg, "--quiet"], tmp_path)
        assert res.returncode == 3
        assert "FiniteTotalIntegral" in res.stderr
        assert "not representable" in res.stderr
        assert "Warning" not in res.stderr

    @pytest.mark.parametrize("model, note", [
        ("family = tabulated\nradii = 0,1,10,100\nvalues = 0.01,0.01,0.02,0.04\n"
         "n = 1\n[solver]\n", "lower limit shifted from 2.0 to 5.82692 to "
         "keep the denominator positive"),
        ("family = constant\nn = 3\n[solver]\nr_lo = 3\n",
         "caller-supplied lower limit 3"),
    ], ids=["shifted", "caller_supplied"])
    def test_lower_limit_note_and_quiet(self, tmp_path, capsys, model, note):
        # the note goes to stderr; --quiet drops it and changes no CSV byte
        from escrate import cli

        cfg = write_config(tmp_path, "[model]\nmode = unit_energy\n" + model
                           + "t_grid = 1,10\n")
        assert cli.main(["rate", "--config", cfg]) == 0
        loud = capsys.readouterr()
        assert cli.main(["rate", "--config", cfg, "--quiet"]) == 0
        quiet = capsys.readouterr()
        assert loud.err == f"note: {note}\n"
        assert quiet.err == ""
        assert quiet.out == loud.out
        assert len(loud.out.splitlines()) == 3

    def test_tabulated_unit_energy_table(self, tmp_path):
        radii = [0.0] + [2.0 ** k for k in range(31)]
        cfg = write_config(tmp_path, (
            "[model]\nfamily = tabulated\nn = 3\nmode = unit_energy\n"
            f"radii = {','.join('%.17g' % r for r in radii)}\n"
            f"values = {','.join('%.17g' % (1.0 + r ** 0.5) for r in radii)}\n"
            "[solver]\nt_grid = geom:1:1e6:3\n"))
        start = time.perf_counter()
        res = run_cli(["rate", "--config", cfg, "--quiet"], tmp_path)
        elapsed = time.perf_counter() - start
        assert res.returncode == 0, res.stderr
        assert len(list(csv.reader(io.StringIO(res.stdout)))[1:]) == 3
        assert elapsed < 15.0


class TestConserve:
    @pytest.mark.parametrize("body,expect", [
        ("[model]\nfamily = power\nalpha = 0\n",
         "verdict=Conservative family=power params=alpha=0"),
        ("[model]\nfamily = squared_log\nbeta = 2\n",
         "verdict=NonConservative family=squared_log params=beta=2"),
    ])
    def test_symbolic_families(self, tmp_path, body, expect):
        cfg = write_config(tmp_path, body)
        res = run_cli(["conserve", "--config", cfg], tmp_path)
        assert res.returncode == 0
        assert res.stdout.strip() == expect

    def test_tabulated_is_inconclusive_with_leaning(self, tmp_path):
        radii = ",".join(str(2.0 ** k) for k in range(12))
        cfg = write_config(tmp_path, (
            f"[model]\nfamily = tabulated\nradii = {radii}\n"
            f"values = {','.join('1' for _ in range(12))}\n"))
        res = run_cli(["conserve", "--config", cfg], tmp_path)
        assert res.returncode == 0
        assert "verdict=Inconclusive" in res.stdout
        assert "leaning=Conservative" in res.stdout


class TestSimulate:
    SIM = ("[model]\nfamily = constant\nn = 3\n"
           "[simulation]\nx0 = 1\nt = 0.5\ndt = 0.01\nn_paths = 4\n"
           "master_seed = 12\ndrift = manifold\noutput = summary\n")

    def test_summary_shape(self, tmp_path):
        cfg = write_config(tmp_path, self.SIM)
        res = run_cli(["simulate", "--config", cfg], tmp_path)
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "path,final,exitTime"
        assert len(lines) == 5
        # no barrier configured, so the exit column stays empty
        assert all(l.endswith(",") for l in lines[1:])

    def test_infinite_barrier_is_never_crossed(self, tmp_path):
        # barrier is parsed on its own: inf is allowed where t or dt may not be
        plain = run_cli(["simulate", "--config", write_config(tmp_path, self.SIM)],
                        tmp_path)
        cfg = write_config(tmp_path, self.SIM + "barrier = inf\n", "inf.ini")
        res = run_cli(["simulate", "--config", cfg], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout == plain.stdout

    def test_unrepresentable_step_count_exits_2(self, tmp_path):
        # t and dt are finite, but t/dt is not
        cfg = write_config(tmp_path, (
            "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n[simulation]\n"
            "x0 = 1\nt = 1e300\ndt = 1e-10\nn_paths = 4\nmaster_seed = 7\n"
            "drift = manifold\nfloor = 0.05\noutput = summary\n"))
        res = run_cli(["simulate", "--config", cfg], tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("DomainError: ")
        assert res.stderr.count("\n") == 1

    def test_hyperbolic_bound_without_model_section(self, tmp_path):
        # n and k take the drift defaults, 2 and 1, as drift = manifold does
        body = self.SIM.split("[simulation]")[1].replace("manifold",
                                                         "hyperbolic_bound")
        res = run_cli(["simulate", "--config",
                       write_config(tmp_path, "[simulation]" + body)], tmp_path)
        ref = run_cli(["simulate", "--config", write_config(
            tmp_path, "[model]\nn = 2\nk = 1\n[simulation]" + body, "ref.ini")],
            tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout == ref.stdout and res.stdout.startswith("path,")

    def test_seed_flag_parsed_as_master_seed(self, tmp_path):
        # --seed overrides master_seed through its parser: 1.2e1 is seed 12,
        # and 2^53 + 1 stays exact (a float would round it to 2^53)
        small = write_config(tmp_path, self.SIM)
        big = write_config(tmp_path, self.SIM.replace(
            "master_seed = 12", "master_seed = 9007199254740993"), "big.ini")
        runs = [run_cli(["simulate", "--config", cfg] + flag, tmp_path)
                for cfg, flag in ((small, []), (big, ["--seed", "1.2e1"]),
                                  (big, []),
                                  (small, ["--seed", "9007199254740993"]),
                                  (big, ["--seed", "9007199254740992"]))]
        assert [res.returncode for res in runs] == [0] * 5
        seed_12, flag_12, seed_big, flag_big, flag_2_53 = (
            res.stdout for res in runs)
        assert seed_12 == flag_12 and seed_big == flag_big
        assert len({seed_12, seed_big, flag_2_53}) == 3

    def test_out_file_lf_endings(self, tmp_path):
        cfg = write_config(tmp_path, self.SIM)
        dest = tmp_path / "sim.csv"
        res = run_cli(["simulate", "--config", cfg, "--out", str(dest)],
                      tmp_path)
        assert res.returncode == 0
        raw = dest.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().split("\n")[0] == "path,final,exitTime"

    def test_hyperbolic_drift_moves_linearly(self, tmp_path):
        # coth-drift chain travels at unit speed; crude check at small T
        cfg = write_config(tmp_path, (
            "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n"
            "[simulation]\nx0 = 1\nt = 20\ndt = 0.01\nn_paths = 50\n"
            "master_seed = 3\ndrift = manifold\nfloor = 0.05\n"
            "output = summary\nstore_every = 2000\n"))
        res = run_cli(["simulate", "--config", cfg], tmp_path)
        assert res.returncode == 0
        finals = [float(l.split(",")[1])
                  for l in res.stdout.strip().split("\n")[1:]]
        mean = sum(finals) / len(finals)
        assert abs(mean / 20.0 - 1.0) <= 0.25

    def test_paths_output_matches_row_by_row_reference(self, tmp_path):
        from escrate import cli, sde

        cfg = write_config(tmp_path, (
            "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n"
            "[simulation]\nx0 = 1\nt = 2\ndt = 0.01\nn_paths = 7\n"
            "master_seed = 5\ndrift = manifold\nfloor = 0.05\nbarrier = 2.5\n"
            "store_every = 3\noutput = paths\n"))
        dest = tmp_path / "paths.csv"
        res = run_cli(["simulate", "--config", cfg, "--out", str(dest)],
                      tmp_path)
        assert res.returncode == 0, res.stderr
        ens = sde.ensemble(**cli._simulation_args(cli.load_config(cfg)))
        steps = np.rint(ens.times / 0.01).astype(int).tolist()
        assert steps[:3] == [0, 3, 6]
        rows = ["path,step,t,x"] + [
            ",".join(cli._fmt(c) for c in
                     (i, steps[j], float(t), float(ens.values[i, j])))
            for i in range(len(ens.values)) for j, t in enumerate(ens.times)]
        assert dest.read_bytes() == ("\n".join(rows) + "\n").encode()

    README = readme_configs()["simulate"]

    def test_summary_memory_independent_of_steps(self, tmp_path):
        # the README config: 1000 paths x 5001 steps take 40 MB as float64,
        # but a summary stores steps 0 and 5000 only
        from escrate import cli

        cfg = write_config(tmp_path, self.README)
        out = tmp_path / "summary.csv"
        tracemalloc.start()
        try:
            rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert len(out.read_text().splitlines()) == 1001
        assert peak < 5e6, peak

    def test_summary_step_count_allocates_no_step_index(self, tmp_path,
                                                        monkeypatch):
        # 1e10 steps (under the 2^63 bound): the summary reads the step
        # count without an array of step indices; the kernel, stubbed to
        # report the last step only, is reached
        from escrate import cli, sde

        reached = []

        def kernel(sdes, x0, T, dt, n_paths, seed):
            reached.append(int(T / dt))
            yield int(T / dt), (np.full(n_paths, 2.0),)

        monkeypatch.setattr(sde, "_shared_noise_run", kernel)
        cfg = write_config(tmp_path, (
            "[simulation]\nx0 = 1\nt = 1e300\ndt = 1e290\nn_paths = 3\n"
            "master_seed = 1\nfloor = 0.05\noutput = summary\n"))
        out = tmp_path / "summary.csv"
        tracemalloc.start()
        try:
            rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert reached == [10 ** 10]
        assert out.read_text() == "path,final,exitTime\n0,2,\n1,2,\n2,2,\n"
        assert peak < 1e6, peak

    @pytest.mark.parametrize("store_every", [7, 5000])
    def test_summary_matches_stored_ensemble(self, tmp_path, store_every):
        # exit times come from every step, whatever the configured store_every
        from escrate import cli, sde

        cfg = write_config(tmp_path, (
            "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n"
            "[simulation]\nx0 = 1\nt = 2\ndt = 0.01\nn_paths = 300\n"
            "master_seed = 5\ndrift = manifold\nfloor = 0.05\nbarrier = 3\n"
            f"store_every = {store_every}\noutput = summary\n"))
        dest = tmp_path / "summary.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(dest)]) == 0
        ens = sde.ensemble(**cli._simulation_args(cli.load_config(cfg)))
        exits = np.isfinite(ens.first_exit)
        assert 0 < exits.sum() < len(ens.values)
        rows = ["path,final,exitTime"] + [
            ",".join(cli._fmt(c) for c in
                     (i, float(ens.values[i, -1]), float(ens.first_exit[i])))
            for i in range(len(ens.values))]
        assert dest.read_bytes() == ("\n".join(rows) + "\n").encode()

    @pytest.mark.parametrize("output, message", [
        ("sumary", "ConfigError: unknown output mode 'sumary'"),
        ("summary\nstore_every = 0", "DomainError: store_every must be >= 1"),
    ], ids=["unknown_output", "summary_store_every_0"])
    def test_rejected_before_any_step(self, tmp_path, monkeypatch, capsys,
                                      output, message):
        from escrate import cli, sde

        def kernel(*args, **kwargs):
            raise AssertionError("the Euler kernel ran")

        monkeypatch.setattr(sde, "_shared_noise_run", kernel)
        cfg = write_config(tmp_path, self.README.replace(
            "output = summary", "output = " + output))
        assert cli.main(["simulate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_overshooting_coefficient_drift_one_error_line(self, tmp_path):
        # at the default floor 1e-6 the chain overshoots near the origin;
        # the non-finite drift is quiet and the kernel's typed error is
        # the only line on stderr
        cfg = write_config(tmp_path, (
            "[model]\nfamily = squared_log\nbeta = 0.5\nn = 2\n"
            "[simulation]\nx0 = 0.8\nt = 0.2\ndt = 0.001\nn_paths = 20000\n"
            "master_seed = 5\ndrift = coefficient\n"))
        res = run_cli(["simulate", "--config", cfg], tmp_path)
        assert res.returncode == 4
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("NonFiniteState: ")

    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize("model, drift", [
        ("warp = euclidean", "manifold"), ("warp = hyperbolic\nk = 1", "manifold"),
        ("family = constant", "coefficient")],
        ids=["euclidean", "hyperbolic", "coefficient"])
    def test_dimension_below_one_exits_2(self, tmp_path, monkeypatch, capsys,
                                         model, drift, n):
        from escrate import cli, sde

        def kernel(*args, **kwargs):
            raise AssertionError("the Euler kernel ran")

        monkeypatch.setattr(sde, "_shared_noise_run", kernel)
        cfg = write_config(tmp_path, (
            f"[model]\n{model}\nn = {n}\n[simulation]\nx0 = 1\nt = 0.5\n"
            f"dt = 0.01\nn_paths = 4\nmaster_seed = 12\ndrift = {drift}\n"
            "output = summary\n"))
        assert cli.main(["simulate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "DomainError: dimension n must be >= 1\n"

    def test_below_one_tabulated_coefficient_runs_from_floor(self, tmp_path):
        # a = 0.25 near 0 puts the Euclidean radius of the intrinsic floor
        # 0.05 at 0.025; the drift takes no floor to compare it with
        cfg = write_config(tmp_path, (
            "[model]\nfamily = tabulated\nradii = 0,1,10,100\n"
            "values = 0.25,0.25,0.5,1\nn = 2\n"
            "[simulation]\nx0 = 0.05\nfloor = 0.05\nt = 0.2\ndt = 0.01\n"
            "n_paths = 20\nmaster_seed = 3\ndrift = coefficient\n"
            "output = summary\n"))
        res = run_cli(["simulate", "--config", cfg], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        rows = list(csv.reader(io.StringIO(res.stdout)))
        assert rows[0] == ["path", "final", "exitTime"] and len(rows) == 21
        assert all(float(final) >= 0.05 for _, final, _ in rows[1:])

    def test_coefficient_drift_runs_at_array_speed(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[model]\nfamily = power\nalpha = 1\nn = 3\n"
            "[simulation]\nx0 = 1\nt = 1\ndt = 0.001\nn_paths = 300\n"
            "master_seed = 4\ndrift = coefficient\noutput = summary\n"))
        start = time.perf_counter()
        res = run_cli(["simulate", "--config", cfg], tmp_path)
        elapsed = time.perf_counter() - start
        assert res.returncode == 0, res.stderr
        assert len(res.stdout.strip().split("\n")) == 301
        assert elapsed < 10.0


class TestVerify:
    def test_zero_envelope_fails_with_exit_5(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[simulation]\nx0 = 1\nt = 5\ndt = 0.01\nn_paths = 20\n"
            "master_seed = 2\ndrift = none\n"
            "[verify]\nenvelope = zero\nc_grid = 1\nt0 = 1\n"))
        res = run_cli(["verify", "envelope", "--config", cfg], tmp_path)
        assert res.returncode == 5

    def test_infinite_envelope_passes(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[simulation]\nx0 = 1\nt = 5\ndt = 0.01\nn_paths = 20\n"
            "master_seed = 2\ndrift = none\n"
            "[verify]\nenvelope = infinity\nc_grid = 1\nt0 = 1\n"))
        res = run_cli(["verify", "envelope", "--config", cfg], tmp_path)
        assert res.returncode == 0

    def test_dyadic_summary_line(self, tmp_path):
        cfg = write_config(tmp_path, (
            "[model]\nfamily = constant\nn = 3\nmode = unit_energy\n"
            "[verify]\nc = 4\nn_levels = 30\n"))
        res = run_cli(["verify", "dyadic", "--config", cfg], tmp_path)
        assert res.returncode == 0
        assert "sum_bound=" in res.stdout
        assert "PASS" in res.stdout
        # a valid --seed is accepted and unused: dyadic simulates nothing
        seeded = run_cli(["verify", "dyadic", "--config", cfg, "--seed", "7"],
                         tmp_path)
        assert (seeded.returncode, seeded.stdout) == (0, res.stdout)

    def test_dyadic_fail_line_exits_5(self, tmp_path, capsys):
        # one level: its bound is not below 1e-3 of the sum, which it is
        from escrate import cli

        cfg = write_config(tmp_path, (
            "[model]\nfamily = constant\nn = 1\n[verify]\nc = 4\n"
            "n_levels = 1\n"))
        assert cli.main(["verify", "dyadic", "--config", cfg]) == 5
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == (
            "FAIL sum_bound=0.0082037465721975962")
        assert captured.err == ""

    def test_dyadic_beyond_float_range_exits_2(self, tmp_path):
        # level radii up to 2^601 * 4 pass 1e150; the ball measure exp(V(8))
        # overflows at n = 1e20 and is inf at n = 1e308: each is refused
        # before any level
        for n, levels, what in (("1", "600", "dyadic radius"),
                                ("1e20", "30", "ball measure mu_b1"),
                                ("1e308", "30", "ball measure mu_b1")):
            cfg = write_config(tmp_path, (
                f"[model]\nfamily = constant\nn = {n}\nmode = unit_energy\n"
                f"[verify]\nc = 4\nn_levels = {levels}\n"))
            res = run_cli(["verify", "dyadic", "--config", cfg], tmp_path)
            assert res.returncode == 2, (n, res.stderr)
            assert res.stdout == ""
            assert res.stderr.startswith(f"DomainError: {what} ")
            assert res.stderr.count("\n") == 1
            assert "Warning" not in res.stderr

    def test_compare_rerun_byte_identical(self, tmp_path):
        # 600 paths: three 256-path noise chunks, the last one padded; a
        # second run of the same config writes the same bytes
        from escrate import cli

        hyperbolic = "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n"
        runs = {
            "compare": (["verify", "compare"], hyperbolic + (
                "[simulation]\nx0 = 1\nfloor = 0.05\nmaster_seed = 21\n"
                "[verify]\nt = 0.5\ndelta = 0.8\nr = 10\nn_paths = 600\n"
                "dt = 0.001\n"), b"side,estimate,stderr\nlhs,"),
            "simulate": (["simulate"], hyperbolic + (
                "[simulation]\nx0 = 1\nt = 0.5\ndt = 0.001\nn_paths = 600\n"
                "master_seed = 21\nfloor = 0.05\ndrift = manifold\n"
                "output = summary\n"), b"path,final,exitTime\n0,"),
        }
        for name, (command, body, head) in runs.items():
            cfg = write_config(tmp_path, body, name=f"{name}.ini")
            outputs = []
            for run in range(2):
                out = tmp_path / f"{name}_{run}.csv"
                assert cli.main(command + ["--config", cfg, "--out", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], name
            assert outputs[0].startswith(head), name

    @pytest.mark.parametrize("runs, bound", [(1, 1.6e6), (2, 2.2e6)])
    def test_compare_noise_scratch_bounded(self, tmp_path, runs, bound):
        # the benchmark's verify compare (10^4 paths, 40 noise chunks) on a
        # short horizon: its 8-step fills hold 320 KiB of scaled float32
        # increments, step-major, and one word buffer of 320 KiB, with no
        # float64 copy; about 0.75 MB more is the chains' states and the
        # run's own. Two runs in one trace stay below twice one run's peak
        # (about 1.4e6 B): the first run's scratch is freed
        from escrate import cli

        cfg = write_config(tmp_path, (
            "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n"
            "[simulation]\nx0 = 1\nfloor = 0.05\nmaster_seed = 6001\n"
            "[verify]\nn_paths = 10000\ndt = 0.001\nt = 0.1\nr = 20\n"
            "delta = 2\n"))
        argv = ["verify", "compare", "--config", cfg,
                "--out", str(tmp_path / "compare.csv")]
        assert cli.main(argv) == 0  # first, untraced: lazy imports
        tracemalloc.start()
        try:
            rcs = [cli.main(argv) for _ in range(runs)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rcs == [0] * runs
        assert peak < bound, peak


class TestStreamedVerify:
    """verify lil and verify envelope reduce as the chains step."""

    LIL = ("[simulation]\nx0 = 1e-6\nt = 1000\ndt = 1\nn_paths = 10000\n"
           "master_seed = 8008\ndrift = none\nsigma = 1\nfloor = 1e-6\n")
    ENVELOPE = (
        "[model]\nfamily = constant\nn = 3\nmode = unit_energy\n"
        "warp = euclidean\n"
        "[solver]\nt_grid = geom:1:100:20\nscale_c = 1\n"
        "[simulation]\nx0 = 1\nt = 20\ndt = 0.01\nn_paths = 300\n"
        "master_seed = 9\ndrift = manifold\nfloor = 0.01\n"
        "store_every = 30\n")

    @pytest.mark.parametrize("mode, verify, rc, message", [
        ("lil", "t0 = 2\n", 2,
         "DomainError: t0=2.0 must exceed e so log log t0 > 0"),
        ("envelope", "c_grid = 1,2\nt0 = 20\n", 2,
         "DomainError: burn-in t0=20.0 at or beyond horizon 20.0"),
        ("envelope", "c_grid = 1,20\nt0 = 2\n", 3,
         "ExtrapolationError: envelope for C=20 needs rate values on "
         "[42, 400], table covers [1, 100]"),
        ("envelope", "c_grid = 1,2\nt0 = 2\nmax_fraction = abc\n", 2,
         "ConfigError: key 'max_fraction' in [verify] is not a number: "
         "'abc'"),
        ("envelope", "c_grid = 1,2\nt0 = 2\nenvelope = tabel\n", 2,
         "ConfigError: unknown envelope 'tabel'"),
        ("lil", "t0 = 10\neps_grid =\n", 2,
         "ConfigError: lil mode needs a nonempty eps_grid"),
        ("envelope", "c_grid =\nt0 = 2\n", 2,
         "ConfigError: envelope mode needs a nonempty c_grid"),
        ("envelope", "c_grid = 4,1\nt0 = 2\n", 2,
         "ConfigError: envelope mode needs a strictly increasing c_grid"),
        ("envelope", "c_grid = 1,2,2\nt0 = 2\n", 2,
         "ConfigError: envelope mode needs a strictly increasing c_grid"),
        ("lil", "t0 = 10\neps_grid = 1.0,0.5,0\n", 2,
         "ConfigError: lil mode needs a strictly increasing eps_grid"),
        ("lil", "t0 = 10\neps_grid = 0.5,0.5\n", 2,
         "ConfigError: lil mode needs a strictly increasing eps_grid"),
        ("lil", "t0 = 10\neps_grid = 0.5\n", 2,
         "ConfigError: lil mode needs at least 2 eps_grid values"),
    ], ids=["lil_t0_below_e", "envelope_t0_at_horizon",
            "envelope_table_too_short", "envelope_bad_max_fraction",
            "envelope_unknown_word", "lil_empty_eps_grid",
            "envelope_empty_c_grid", "envelope_decreasing_c_grid",
            "envelope_repeated_c_grid", "lil_decreasing_eps_grid",
            "lil_repeated_eps_grid", "lil_one_eps_value"])
    def test_rejected_before_any_step(self, tmp_path, monkeypatch, capsys,
                                      mode, verify, rc, message):
        from escrate import cli, sde, verify as verify_mod

        def kernel(*args, **kwargs):
            raise AssertionError("the Euler kernel ran")

        monkeypatch.setattr(sde, "_shared_noise_run", kernel)
        monkeypatch.setattr(verify_mod, "_shared_noise_run", kernel)
        body = self.LIL if mode == "lil" else self.ENVELOPE
        cfg = write_config(tmp_path, body + "[verify]\n" + verify)
        assert cli.main(["verify", mode, "--config", cfg]) == rc
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_envelope_reads_the_table_rate_prints(self, tmp_path, monkeypatch,
                                                  capsys):
        # verify envelope's table is rate's, [solver] r_lo included
        from escrate import cli, verify as verify_mod

        tables = []

        def exceedance(rate, C_grid, **kwargs):
            tables.append(rate)
            return np.zeros(len(C_grid))

        monkeypatch.setattr(verify_mod, "exceedance", exceedance)
        cfg = write_config(tmp_path, self.ENVELOPE.replace(
            "scale_c = 1\n", "scale_c = 1\nr_lo = 50\n")
            + "[verify]\nc_grid = 1\nt0 = 2\n")
        assert cli.main(["rate", "--config", cfg, "--quiet"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert cli.main(["verify", "envelope", "--config", cfg]) == 0
        (rate,) = tables
        assert rate.values.tolist() == [float(psi) for _, psi, _ in rows]
        assert rate.values[0] > 50.0

    def test_lil_memory_linear_in_paths(self, tmp_path):
        # 10^4 paths x 1001 stored steps: stored as float64 they take 80 MB
        from escrate import cli

        cfg = write_config(tmp_path, self.LIL + "[verify]\nt0 = 10\n")
        out = tmp_path / "lil.csv"
        tracemalloc.start()
        try:
            rc = cli.main(["verify", "lil", "--config", cfg, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert out.read_text().startswith("eps,fraction\n0,")
        assert peak < 20e6, peak


class TestCatalogue:
    STDOUT = (
        "case,range,psi,psi_tilde\n"
        "diri1,,sqrt(t log t),sqrt(t log t)\n"
        "diri2,alpha<2,sqrt(t log t),(t log t)^(1/(2-alpha))\n"
        "diri3,beta<1,t^(1+beta/(2-2 beta)),exp(t^(1/(1-beta)))\n"
        "diri3,beta=1,exp(t),exp(exp(t))\n"
        "geo1,,sqrt(t log log t),sqrt(t log log t)\n"
        "geo2,alpha<2,sqrt(t log log t),(t log log t)^(1/(2-alpha))\n"
        "geo3,beta<1,t^(1+beta/(2-2 beta)),exp(t^(1/(1-beta)))\n"
        "geo3,beta=1,exp(t),exp(exp(t))\n"
        "g_alpha,alpha=-1,sqrt(t log log t),\n"
        "g_alpha,-1<alpha<1,t^(1/(1-alpha)),\n"
        "g_alpha,alpha=1,exp(t),\n"
        'hyperbolic_linear,"n>=2, K>0",(1+eps)(n-1) sqrt(K) t,\n')

    def test_header_and_known_rows(self, tmp_path):
        res = run_cli(["catalogue"], tmp_path)
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "case,range,psi,psi_tilde"
        assert any(l.startswith("hyperbolic_linear,") for l in lines)
        assert len(lines) == 13
        assert res.stdout == self.STDOUT
        assert res.stderr == ""

    def test_every_row_has_four_cells(self, tmp_path):
        res = run_cli(["catalogue"], tmp_path)
        assert res.returncode == 0
        rows = list(csv.reader(io.StringIO(res.stdout)))
        assert len(rows) == 13
        assert all(len(row) == 4 for row in rows), rows
