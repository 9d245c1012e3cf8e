"""Output checks for the escrate benchmark, and their self-tests.

Every check takes the bytes a CLI call wrote to ``--out`` and the text it
wrote to stderr, and returns a list of problems; an empty list means the
output is correct. ``python3 bench/checks.py`` runs the self-tests, which
feed each check a good output and a corrupted one and fail unless the check
accepts the first and rejects the second. The benchmark runs the same
self-tests before it measures anything.
"""

from __future__ import annotations

import math
import re
import sys

# A raw Python warning as printed by the warnings module, e.g.
# "/.../rate_solver.py:94: IntegrationWarning: The occurrence of ..."
_WARNING_LINE = re.compile(r"\b\w*Warning:")


def stderr_problems(err: str) -> list:
    """No raw ``*Warning`` line may reach stderr."""
    bad = [line for line in err.splitlines() if _WARNING_LINE.search(line)]
    return [f"raw warning on stderr: {bad[0].strip()[:160]}"] if bad else []


def _rows(out: bytes, header: str):
    lines = out.decode("utf-8", "replace").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != header:
        return None, [f"header is not {header!r}"]
    return [line.split(",") for line in lines[1:]], []


def _floats(rows, col):
    return [float(r[col]) for r in rows]


def _strictly_increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def rate(out: bytes, err: str, rows: int) -> list:
    """``t,psi,psi_tilde`` table: one row per grid point, t and psi strictly
    increasing and finite."""
    table, problems = _rows(out, "t,psi,psi_tilde")
    if problems:
        return problems
    if len(table) != rows:
        return [f"{len(table)} rows, expected {rows}"]
    try:
        t, psi = _floats(table, 0), _floats(table, 1)
    except (ValueError, IndexError):
        return ["unparsable rate row"]
    if not all(math.isfinite(v) for v in t + psi):
        problems.append("non-finite t or psi")
    if not _strictly_increasing(t):
        problems.append("t not strictly increasing")
    if not _strictly_increasing(psi):
        problems.append("psi not strictly increasing")
    return problems


def paths(out: bytes, err: str, n_paths: int, steps: int) -> list:
    """``path,step,t,x`` rows: n_paths * (steps + 1), last row is the last
    path's last step."""
    header = b"path,step,t,x\n"
    if not out.startswith(header):
        return ["header is not 'path,step,t,x'"]
    count = out.count(b"\n") - 1
    if count != n_paths * (steps + 1):
        return [f"{count} rows, expected {n_paths * (steps + 1)}"]
    last = out.rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b",")
    if len(last) != 4 or last[:2] != [b"%d" % (n_paths - 1), b"%d" % steps]:
        return ["last row is not the last path's last step"]
    return []


def summary(out: bytes, err: str, n_paths: int) -> list:
    """``path,final,exitTime`` rows: one per path, finals finite and > 0."""
    table, problems = _rows(out, "path,final,exitTime")
    if problems:
        return problems
    if len(table) != n_paths:
        return [f"{len(table)} rows, expected {n_paths}"]
    try:
        finals = _floats(table, 1)
    except (ValueError, IndexError):
        return ["unparsable summary row"]
    if not all(math.isfinite(v) and v > 0 for v in finals):
        return ["non-finite or nonpositive final value"]
    return []


def _last_line(out: bytes) -> str:
    lines = out.decode("utf-8", "replace").strip().split("\n")
    return lines[-1] if lines else ""


def compare(out: bytes, err: str) -> list:
    """Comparison verdict: PASS with exact coupled dominance."""
    last = _last_line(out)
    return [] if last == "PASS coupledDominanceFraction=1" else [
        f"verdict line is {last!r}"]


def passed(out: bytes, err: str) -> list:
    """Envelope and dyadic verdicts: the last line starts with PASS."""
    last = _last_line(out)
    return [] if last.startswith("PASS ") else [f"verdict line is {last!r}"]


def lil(out: bytes, err: str, cap: float) -> list:
    """LIL fractions: PASS monotone, and the eps=0.5 fraction within the
    pinned pilot cap."""
    text = out.decode("utf-8", "replace").strip().split("\n")
    problems = [] if text[-1] == "PASS monotone" else [
        f"verdict line is {text[-1]!r}"]
    table, bad = _rows("\n".join(text[:-1]).encode(), "eps,fraction")
    if bad:
        return problems + bad
    half = [float(r[1]) for r in table if float(r[0]) == 0.5]
    if len(half) != 1:
        problems.append("no eps=0.5 row")
    elif half[0] > cap:
        problems.append(f"eps=0.5 fraction {half[0]} above pinned cap {cap}")
    return problems


def never_exceeded(out: bytes, err: str) -> list:
    """Envelope at +infinity: PASS and every fraction exactly 0."""
    text = out.decode("utf-8", "replace").strip().split("\n")
    problems = passed(out, err)
    table, bad = _rows("\n".join(text[:-1]).encode(), "C,fraction")
    if bad:
        return problems + bad
    if not table or any(float(r[1]) != 0.0 for r in table):
        problems.append("a path exceeded an infinite envelope")
    return problems


def conserve(out: bytes, err: str, kind: str) -> list:
    """Conservativeness line with the expected verdict kind."""
    line = out.decode("utf-8", "replace").strip()
    return [] if line.startswith(f"verdict={kind} family=") else [
        f"verdict line is {line!r}, expected verdict={kind}"]


def catalogue(out: bytes, err: str, rows: int) -> list:
    """Closed-form catalogue: header and a fixed number of named rows.

    Cells are not counted: the hyperbolic row's range "n>=2, K>0" is written
    unquoted and splits into two."""
    table, problems = _rows(out, "case,range,psi,psi_tilde")
    if problems:
        return problems
    if len(table) != rows or any(len(r) < 4 or not r[0] for r in table):
        return [f"catalogue has {len(table)} rows, expected {rows} named rows"]
    return []


def config_error(out: bytes, err: str, key: str) -> list:
    """Rejected config: a ConfigError naming the offending key."""
    return [] if ("ConfigError" in err and key in err) else [
        f"stderr does not report ConfigError for {key!r}"]


# ---------------------------------------------------------------------------
# Self-tests: each check must accept a good output and reject a corrupted one
# ---------------------------------------------------------------------------

_RATE_OK = b"t,psi,psi_tilde\n1,2.5,\n10,4.25,\n100,9.5,\n"
_LIL_OK = b"eps,fraction\n0,0.6\n0.25,0.3\n0.5,0.14\n1,0.01\nPASS monotone\n"
_ENV_INF = b"C,fraction\n1,0\n2,0\nPASS fraction_at_max_C=0 threshold=0.5\n"

SELF_TESTS = [
    # (name, check, kwargs, good (out, err), corrupted (out, err))
    ("rate", rate, {"rows": 3}, (_RATE_OK, ""),
     (_RATE_OK.replace(b"4.25", b"1.25"), "")),
    ("rate_rows", rate, {"rows": 3}, (_RATE_OK, ""),
     (_RATE_OK.rsplit(b"100", 1)[0], "")),
    ("paths", paths, {"n_paths": 2, "steps": 1},
     (b"path,step,t,x\n0,0,0,1\n0,1,0.5,1.1\n1,0,0,1\n1,1,0.5,0.9\n", ""),
     (b"path,step,t,x\n0,0,0,1\n0,1,0.5,1.1\n1,0,0,1\n", "")),
    ("summary", summary, {"n_paths": 2},
     (b"path,final,exitTime\n0,1.5,\n1,2.5,\n", ""),
     (b"path,final,exitTime\n0,1.5,\n1,nan,\n", "")),
    ("compare", compare, {},
     (b"side,estimate,stderr\nlhs,0.01,0.001\nrhs,0.04,0.002\n"
      b"PASS coupledDominanceFraction=1\n", ""),
     (b"side,estimate,stderr\nlhs,0.01,0.001\nrhs,0.04,0.002\n"
      b"PASS coupledDominanceFraction=0.99990000000000001\n", "")),
    ("passed", passed, {}, (b"n,R\nPASS sum_bound=0.02\n", ""),
     (b"n,R\nFAIL sum_bound=0.02\n", "")),
    ("lil", lil, {"cap": 0.156}, (_LIL_OK, ""),
     (_LIL_OK.replace(b"0.5,0.14", b"0.5,0.2"), "")),
    ("never_exceeded", never_exceeded, {}, (_ENV_INF, ""),
     (_ENV_INF.replace(b"2,0\n", b"2,0.001\n"), "")),
    ("conserve", conserve, {"kind": "Conservative"},
     (b"verdict=Conservative family=constant params=\n", ""),
     (b"verdict=NonConservative family=constant params=\n", "")),
    ("catalogue", catalogue, {"rows": 2},
     (b"case,range,psi,psi_tilde\ndiri1,,a,a\ngeo1,,b,b\n", ""),
     (b"case,range,psi,psi_tilde\ndiri1,,a,a\n", "")),
    ("config_error", config_error, {"key": "bogus"},
     (b"", "ConfigError: unknown key(s) in [model]: bogus\n"),
     (b"", "")),
    ("stderr", lambda out, err: stderr_problems(err), {},
     (b"", "note: lower limit shifted\n"),
     (b"", "x.py:94: IntegrationWarning: roundoff\n  value, err = quad()\n")),
]


def self_test() -> list:
    """Run every self-test; return the names of those that failed."""
    failures = []
    for name, check, kwargs, good, corrupted in SELF_TESTS:
        if check(*good, **kwargs) or not check(*corrupted, **kwargs):
            failures.append(name)
    return failures


if __name__ == "__main__":
    failed = self_test()
    for name in failed:
        print(f"self-test failed: {name}", file=sys.stderr)
    print(f"{len(SELF_TESTS) - len(failed)}/{len(SELF_TESTS)} check self-tests passed")
    sys.exit(1 if failed else 0)
