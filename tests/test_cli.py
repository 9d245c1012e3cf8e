"""End-to-end command-line checks, mostly through subprocess: exit codes, CSV
shape, and reproducibility."""

import csv
import io
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

RUN = [sys.executable, "-m", "escrate.cli"]


def run_cli(args, cwd):
    env = dict(os.environ)
    env.pop("ESCRATE_THREADS", None)
    return subprocess.run(RUN + args, capture_output=True, text=True,
                          cwd=str(cwd), env=env)


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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

    def test_bad_thread_env_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "[model]\nfamily = constant\n")
        env = dict(os.environ)
        env["ESCRATE_THREADS"] = "many"
        res = subprocess.run(RUN + ["conserve", "--config", cfg],
                             capture_output=True, text=True, cwd=str(tmp_path),
                             env=env)
        assert res.returncode == 2


_TAB_RADII = [0.0] + [2.0 ** k for k in range(31)]
_TABULATED = ("family = tabulated\nn = 3\n"
              "radii = " + ",".join("%.17g" % r for r in _TAB_RADII) + "\n"
              "values = " + ",".join("%.17g" % (1.0 + r ** 0.5) for r in _TAB_RADII)
              + "\n")


class TestNoScipy:
    def test_no_command_loads_scipy(self, tmp_path):
        # every command, integrating or not, runs on numpy alone
        calls = {
            "rate_family": ("rate", "[model]\nfamily = constant\nn = 3\n"
                            "mode = unit_energy\n[solver]\nt_grid = 1,10\n"),
            "rate_tabulated": ("rate", "[model]\n" + _TABULATED
                               + "mode = coefficient_energy\n"
                               "[solver]\nt_grid = 1,10\n"),
            "envelope_table": ("verify envelope", (
                "[model]\nfamily = constant\nn = 3\nmode = unit_energy\n"
                "warp = euclidean\n[solver]\nt_grid = geom:1:100:10\n"
                "scale_c = 1\n[simulation]\nx0 = 1\nt = 5\ndt = 0.01\n"
                "n_paths = 50\nmaster_seed = 9\ndrift = manifold\n"
                "floor = 0.01\n[verify]\nc_grid = 1,2\nt0 = 1\n")),
            "dyadic": ("verify dyadic", (
                "[model]\nfamily = constant\nn = 1\nmode = unit_energy\n"
                "[verify]\nc = 4\nn_levels = 30\n")),
            "conserve_tabulated": ("conserve", "[model]\n" + _TABULATED),
            "simulate": ("simulate", (
                "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n[simulation]\n"
                "x0 = 1\nt = 1\ndt = 0.01\nn_paths = 20\nmaster_seed = 7\n"
                "drift = manifold\nfloor = 0.05\noutput = summary\n")),
        }
        argvs = [["catalogue", "--out", "catalogue.csv"]]
        for name, (command, text) in calls.items():
            cfg = write_config(tmp_path, text, f"{name}.ini")
            argvs.append(command.split() + ["--config", cfg, "--out", f"{name}.csv"])
        script = (
            "import sys\n"
            "import escrate.cli as cli\n"
            f"for argv in {argvs!r}:\n"
            "    rc = cli.main(argv)\n"
            "    loaded = sorted(m for m in sys.modules\n"
            "                    if m == 'scipy' or m.startswith('scipy.'))\n"
            "    if rc != 0 or loaded:\n"
            "        sys.exit(f'{argv[:2]}: rc={rc}, loaded {loaded[:5]}')\n")
        env = dict(os.environ)
        env.pop("ESCRATE_THREADS", None)
        res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, cwd=str(tmp_path), env=env)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        for name in ["catalogue"] + list(calls):
            assert (tmp_path / f"{name}.csv").read_text().strip(), name


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
        assert "leaning=" in res.stdout


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

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, self.SIM)
        a = run_cli(["simulate", "--config", cfg], tmp_path)
        b = run_cli(["simulate", "--config", cfg, "--seed", "13"], tmp_path)
        assert a.returncode == b.returncode == 0
        assert a.stdout != b.stdout

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
        from escrate import cli

        cfg = write_config(tmp_path, (
            "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n"
            "[simulation]\nx0 = 1\nt = 2\ndt = 0.01\nn_paths = 7\n"
            "master_seed = 5\ndrift = manifold\nfloor = 0.05\nbarrier = 2.5\n"
            "store_every = 3\noutput = paths\n"))
        dest = tmp_path / "paths.csv"
        res = run_cli(["simulate", "--config", cfg, "--out", str(dest)],
                      tmp_path)
        assert res.returncode == 0, res.stderr
        ens = cli.run_ensemble(cli.load_config(cfg))
        steps = np.rint(ens.times / ens.dt).astype(int).tolist()
        assert steps[:3] == [0, 3, 6]
        rows = ["path,step,t,x"] + [
            ",".join(cli._fmt(c) for c in
                     (i, steps[j], float(t), float(ens.values[i, j])))
            for i in range(ens.n_paths) for j, t in enumerate(ens.times)]
        assert dest.read_bytes() == ("\n".join(rows) + "\n").encode()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_nonfinite_sigma_exits_2(self, tmp_path, sigma):
        # rejected when the chain is built, before any step or raw warning
        cfg = write_config(tmp_path, self.SIM + f"sigma = {sigma}\n")
        res = run_cli(["simulate", "--config", cfg], tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"DomainError: sigma must be finite, got {sigma}\n"

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

    def test_compare_independent_of_thread_count(self, tmp_path):
        # 600 paths: three 256-path noise chunks, the last one padded
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
            for threads in ("1", "4"):
                out = tmp_path / f"{name}_{threads}.csv"
                env = dict(os.environ, ESCRATE_THREADS=threads)
                res = subprocess.run(
                    RUN + command + ["--config", cfg, "--out", str(out)],
                    capture_output=True, text=True, cwd=str(tmp_path), env=env)
                assert res.returncode == 0, res.stderr
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], name
            assert outputs[0].startswith(head), name

    def test_compare_without_paths_exits_2(self, tmp_path):
        for n_paths in (0, -3):
            cfg = write_config(tmp_path, (
                "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n"
                "[simulation]\nx0 = 1\nfloor = 0.05\nmaster_seed = 21\n"
                "[verify]\nt = 0.5\ndelta = 0.8\nr = 10\n"
                f"n_paths = {n_paths}\ndt = 0.001\n"))
            res = run_cli(["verify", "compare", "--config", cfg], tmp_path)
            assert res.returncode == 2, (n_paths, res.stderr)
            assert "Warning" not in res.stderr


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
         "ExtrapolationError: envelope needs rate values on [42, 400], "
         "table covers [1, 100]"),
        ("envelope", "c_grid = 1,2\nt0 = 2\nmax_fraction = abc\n", 2,
         "ConfigError: key 'max_fraction' in [verify] is not a number: "
         "'abc'"),
    ], ids=["lil_t0_below_e", "envelope_t0_at_horizon",
            "envelope_table_too_short", "envelope_bad_max_fraction"])
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
