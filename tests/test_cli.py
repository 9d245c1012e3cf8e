"""End-to-end command-line checks through subprocess: exit codes, CSV
shape, and reproducibility."""

import csv
import io
import os
import subprocess
import sys
import time

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


class TestCatalogue:
    def test_header_and_known_rows(self, tmp_path):
        res = run_cli(["catalogue"], tmp_path)
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "case,range,psi,psi_tilde"
        assert any(l.startswith("hyperbolic_linear,") for l in lines)
        assert len(lines) == 13

    def test_every_row_has_four_cells(self, tmp_path):
        res = run_cli(["catalogue"], tmp_path)
        assert res.returncode == 0
        rows = list(csv.reader(io.StringIO(res.stdout)))
        assert len(rows) == 13
        assert all(len(row) == 4 for row in rows), rows
