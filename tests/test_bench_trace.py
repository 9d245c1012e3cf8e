"""The benchmark's traced child runs CLI calls in one process and rebinds
escrate's functions by name to count them. A rename in the package that
breaks the tracer, or leaves one of its counters at zero, fails here."""

import json
import subprocess
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"


def test_traced_calls_count_every_layer(tmp_path):
    sim = tmp_path / "sim.ini"
    sim.write_text("[simulation]\nx0 = 1\nt = 0.5\ndt = 0.01\nn_paths = 20\n"
                   "master_seed = 7\nfloor = 0.05\noutput = summary\n")
    rate = tmp_path / "rate.ini"
    rate.write_text("[model]\nfamily = constant\nn = 3\n"
                    "[solver]\nt_grid = 1,2,3,4,5\n")
    calls = [["catalogue"], ["simulate", "--config", str(sim)],
             ["rate", "--config", str(rate)]]
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
    assert [call["rc"] for call in result["calls"]] == [0, 0, 0], errors
    counts = result["counts"]
    for key in ("sde.path_steps", "rate_solver.rows", "profiles.growth_evals"):
        assert counts.get(key, 0) > 0, (key, counts)
