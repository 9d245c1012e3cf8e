"""Digest the CLI's output on fixed configs, to check byte identity.

    python tools/output_digest.py [LABEL ...]

Runs every call, once-call and probe of ``bench/workloads.py``, README's
two example configs, and three runs of the benchmark's tabulated coefficient
that the benchmark leaves out, in one process through ``escrate.cli.main``,
with the package taken from this checkout's ``src``: a 3-row rate table in
``unit_energy`` mode, whose growth profile inverts the tabulated transform
at every quadrature node and breaks at the table's knots; a 200-path,
100-step ``simulate`` summary of its ``drift = coefficient`` chain, which
inverts the transform at every step; and a ``verify dyadic`` of its
``coefficient_energy`` profile with ``c = 4`` and 25 levels, whose slack
integrates phi across the knots. Calls that simulate get ``--seed 41``,
as the benchmark passes its seed.
Each config prints one line: its label (``workload/call``,
``README/command`` or ``extra/call``), its exit code and one sha256 over
its stdout, its stderr and its ``--out`` bytes. LABELs select
configs; none runs all of them. One stderr line names numpy's version and
the highest SIMD target its loops dispatch to (for example ``AVX512_SPR``):
rate and dyadic values can differ in the last ulps between targets.

To check that a change keeps every byte, run the tool in a checkout of the
parent and in the change, and ``diff`` the two outputs. Two digests compare
only when their stderr lines match.
"""

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy  # noqa: E402
from numpy._core import _multiarray_umath  # noqa: E402

import escrate.cli  # noqa: E402
from escrate.pinned import LIL_EPS05_MAX_FRACTION  # noqa: E402
from workloads import _TABULATED, _ini, _rate_call, workloads  # noqa: E402

SEED = 41


def configs() -> dict:
    """(argv without --config and --out, INI text or None) by label."""
    found = {}
    for wl in workloads(LIL_EPS05_MAX_FRACTION).values():
        for call in wl.calls + wl.once + wl.probes:
            seeded = ["--seed", str(SEED)] if call.seeded else []
            found[f"{wl.name}/{call.name}"] = (list(call.command) + seeded,
                                               call.config)
    readme = (ROOT / "README.md").read_text()
    rate, simulate = re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S)
    found["README/rate"] = (["rate"], rate)
    found["README/simulate"] = (["simulate"], simulate)
    tab = _rate_call("rate_tabulated_unit", dict(_TABULATED, mode="unit_energy"), 3)
    found[f"extra/{tab.name}"] = (list(tab.command), tab.config)
    model = {k: v for k, v in _TABULATED.items() if k != "mode"}
    found["extra/simulate_tabulated_drift"] = (
        ["simulate", "--seed", str(SEED)],
        _ini(model=model, simulation={"x0": 1, "t": 1, "dt": 0.01, "n_paths": 200,
                                      "drift": "coefficient", "floor": 0.01,
                                      "output": "summary"}))
    found["extra/verify_dyadic_tabulated"] = (
        ["verify", "dyadic"], _ini(model=_TABULATED, verify={"c": 4, "n_levels": 25}))
    return found


def digest(argv, config) -> tuple:
    """Exit code of one run in a fresh directory, and its output's sha256."""
    with tempfile.TemporaryDirectory() as work:
        if config is not None:
            Path(work, "cfg.ini").write_text(config)
            argv = argv + ["--config", "cfg.ini"]
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                try:
                    rc = escrate.cli.main(argv + ["--out", "out.csv"])
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    traceback.print_exc()
                    rc = 1
        finally:
            os.chdir(cwd)
        csv = Path(work, "out.csv")
        parts = (out.getvalue().encode(), err.getvalue().encode(),
                 csv.read_bytes() if csv.exists() else b"")
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little") + part)
    return rc, h.hexdigest()


def dispatch() -> str:
    """numpy's version and the highest dispatch target this host enables."""
    enabled = [target for target in _multiarray_umath.__cpu_dispatch__
               if _multiarray_umath.__cpu_features__.get(target)]
    return f"numpy {numpy.__version__} dispatch {(enabled or ['baseline'])[-1]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("labels", nargs="*", help="configs to run (default all)")
    args = parser.parse_args(argv)
    found = configs()
    unknown = sorted(set(args.labels) - set(found))
    if unknown:
        parser.error(f"unknown label(s): {', '.join(unknown)}")
    print(dispatch(), file=sys.stderr)
    for label in args.labels or found:
        rc, sha = digest(*found[label])
        print(f"{label} {rc} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
