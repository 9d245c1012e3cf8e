"""The checked-in tools run and give stable output."""

import re
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def test_output_digest_is_stable(tmp_path):
    # two runs of the digest on two fast configs print the same lines: a
    # label, exit 0 and one sha256 each; stderr names numpy's dispatch
    argv = [sys.executable, str(DIGEST), "cli_short/catalogue", "README/rate"]
    runs = [subprocess.run(argv, capture_output=True, text=True,
                           cwd=str(tmp_path)) for _ in range(2)]
    for res in runs:
        assert res.returncode == 0, res.stderr
        assert re.fullmatch(r"numpy \S+ dispatch \w+\n", res.stderr), res.stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["cli_short/catalogue", "0"], ["README/rate", "0"]]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[2]) for line in lines)
    assert runs[1].stdout == runs[0].stdout
