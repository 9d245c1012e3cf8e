"""The benchmark's traced child runs CLI calls in one process and rebinds
escrate's functions by name to count them. A rename in the package that
breaks the tracer, or leaves one of its counters at zero, fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"


def run_traced(tmp_path, calls):
    """Run ``calls`` (argv lists) in one traced child; return each call's
    exit code and stderr, the child's counters and the names of its spans."""
    plan = [{"argv": argv + ["--out", str(tmp_path / f"{i}.csv")],
             "err": str(tmp_path / f"{i}.err")} for i, argv in enumerate(calls)]
    plan_path, result_path = tmp_path / "plan.json", tmp_path / "result.json"
    plan_path.write_text(json.dumps(plan))
    res = subprocess.run([sys.executable, str(CHILD), str(plan_path),
                          str(result_path), "--trace"],
                         capture_output=True, text=True, cwd=str(tmp_path))
    assert res.returncode == 0, res.stderr
    result = json.loads(result_path.read_text())
    errors = [Path(call["err"]).read_text() for call in plan]
    return ([call["rc"] for call in result["calls"]], errors, result["counts"],
            {span[0] for span in result["spans"]})


def test_traced_calls_count_every_layer(tmp_path):
    sim = tmp_path / "sim.ini"
    sim.write_text("[simulation]\nx0 = 1\nt = 0.5\ndt = 0.01\nn_paths = 20\n"
                   "master_seed = 7\nfloor = 0.05\noutput = summary\n")
    rate = tmp_path / "rate.ini"
    rate.write_text("[model]\nfamily = constant\nn = 3\n"
                    "[solver]\nt_grid = 1,2,3,4,5\n")
    rcs, errors, counts, _ = run_traced(tmp_path, [
        ["catalogue"], ["simulate", "--config", str(sim)],
        ["rate", "--config", str(rate)]])
    assert rcs == [0, 0, 0], errors
    for key in ("sde.path_steps", "rate_solver.rows", "profiles.growth_evals"):
        assert counts.get(key, 0) > 0, (key, counts)


@pytest.mark.parametrize("mode, body", [
    ("compare", "[model]\nwarp = hyperbolic\nn = 2\nk = 1\n"
     "[simulation]\nx0 = 1\nfloor = 0.05\nmaster_seed = 21\n"
     "[verify]\nt = 0.2\ndelta = 0.8\nr = 10\nn_paths = 50\ndt = 0.01\n"),
    ("lil", "[simulation]\nx0 = 1\nt = 30\ndt = 0.1\nn_paths = 20\n"
     "master_seed = 1\ndrift = none\nsigma = 1\nfloor = 1e-6\n"
     "[verify]\nt0 = 10\n"),
    ("envelope", "[model]\nfamily = constant\nn = 3\n"
     "[solver]\nt_grid = geom:1:100:20\n"
     "[simulation]\nx0 = 1\nt = 5\ndt = 0.05\nn_paths = 20\nmaster_seed = 9\n"
     "floor = 0.01\n[verify]\nc_grid = 4,8\nt0 = 2\n"),
])
def test_traced_monte_carlo_routes(tmp_path, mode, body):
    # each Monte Carlo route of the kernel builds its Philox streams through
    # the traced sde._path_generator; compare's runs count their path steps,
    # and envelope and lil run inside the verify spans the bench times
    cfg = tmp_path / f"{mode}.ini"
    cfg.write_text(body)
    rcs, errors, counts, spans = run_traced(
        tmp_path, [["verify", mode, "--config", str(cfg)]])
    assert rcs == [0], errors
    assert counts.get("sde.generators", 0) > 0, counts
    if mode == "compare":
        assert counts.get("verify.path_steps", 0) > 0, counts
    span = {"envelope": "verify.exceedance", "lil": "verify.lil_statistic",
            "compare": "verify.comparison_mc"}[mode]
    assert span in spans, spans
