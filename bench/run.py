"""escrate benchmark: fixed lists of CLI calls, timed end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is taken from ``./src``. Each
call is a fresh ``python -m escrate.cli`` process with an absolute ``src`` on
PYTHONPATH and ``ESCRATE_THREADS`` unset, started only after the previous one
has ended: a closed loop with one client. Calls that simulate get ``--seed``,
derived from ``--seed`` (the only input it changes).

``--trace 0`` runs the workload's calls in passes until ``--seconds`` is
spent (at least two passes), with two set-up launches (``import
escrate.cli`` in a fresh interpreter) before every pass. Then one untimed
process (``bench/trace_child.py``) runs the calls whose work is negligible
next to interpreter start, and the known-defect probes, each once. Every
call is checked: exit code, no raw ``*Warning`` line on stderr, the output
check of ``bench/checks.py``, and the same output bytes in every pass.

This process and its children are pinned to one core, and children get
single-threaded BLAS. The host's other tenants change that core's speed by
up to 2x for tens of seconds at a time, so every timed launch is scaled to a
reference speed: a fixed pure-Python loop runs before and after it, and its
wall time is multiplied by ``REF_S`` over the mean time of the two loops.
The unscaled figures are printed too. End-to-end metrics:

    wall_s           sum over calls of the median scaled wall time of the call
    setup_s          median scaled wall time of the set-up launches
    peak_rss_mb      largest ru_maxrss of a timed call (os.wait4)
    ok_fraction      1 - error_rate; error_rate is failing distinct calls,
                     probes included, over distinct calls (never 0, unlike
                     error_rate, so a bound can be set on it)
    throughput_per_s work / scaled time of the calls doing it: rate-table
                     rows on rate_tables, Euler path-steps on mc_compare and
                     mc_paths, calls on cli_short

``--trace 1`` runs all calls once in one untraced process and once in one
traced process (``bench/trace_child.py``, under ``-X importtime``), checks
both and requires identical bytes, and reports per-layer metrics from the
spans. ``trace.overhead_s`` is traced minus untraced time of the calls.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` count the workload's calls, set-up launches and byte comparisons
(probes are reported through ``ok_fraction`` only), and ``metrics``. The
lines before it give the same metrics by name and unit, the per-kind
metrics ``error_rate``, ``rate_rows_per_s`` and ``path_steps_per_s``, the
unscaled times and the reference loop's median, and the machine. Scratch
files go to ``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import runpy
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from workloads import workloads  # noqa: E402

SETUP_LAUNCHES_PER_PASS = 2
MIN_PASSES = 2
REF_LOOPS = 1_500_000        # iterations of the reference loop
REF_S = 0.125                # its time at the reference speed: about its time
                             # on an idle core of a 2-vCPU Xeon KVM guest
RUN_DEADLINE_S = 170.0       # every child is killed by then; exit well before 180 s
IMPORT_SNIPPET = "import escrate.cli"


class Runner:
    """Launches calls one at a time and keeps what they did."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.sim_seed = seed % 2 ** 32
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        env = dict(os.environ)
        env.pop("ESCRATE_THREADS", None)
        # escrate is single-threaded; idle OpenBLAS threads spin, and would
        # take the one core the calls are pinned to
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        src = str(root / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env
        self.attempted = 0
        self.failures = []

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def launch(self, argv, err_path: Path):
        """Run one child to completion; return (wall s, exit code, maxrss KiB).

        The child is killed at the run deadline."""
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=self.root)
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, max(0.5, self.remaining()))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:     # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss

    def cli_argv(self, call, tag: str):
        """CLI arguments of a call, with its config written and --out set."""
        argv = list(call.command)
        if call.config is not None:
            cfg = self.work / f"{call.name}.ini"
            if not cfg.exists():
                cfg.write_text(call.config)
            argv += ["--config", str(cfg)]
        argv += ["--out", str(self.work / f"{call.name}.{tag}.csv")]
        if call.seeded:
            argv += ["--seed", str(self.sim_seed)]
        return argv

    def collect(self, call, tag: str, rc: int, count: bool = True):
        """Check one finished call; return (problems, output digest)."""
        out_path = self.work / f"{call.name}.{tag}.csv"
        err = (self.work / f"{call.name}.{tag}.err").read_text(errors="replace")
        out = out_path.read_bytes() if out_path.exists() else b""
        out_path.unlink(missing_ok=True)
        problems = []
        if rc != call.expect_rc:
            last = err.strip().splitlines()[-1:] or [""]
            problems.append(f"exit {rc}, expected {call.expect_rc}: {last[0][:160]}")
        problems += checks.stderr_problems(err)
        if rc == call.expect_rc:
            problems += call.check(out, err)
        if count:
            self.count(f"{call.name}.{tag}", problems)
        return problems, hashlib.sha256(out).hexdigest()

    def count(self, label: str, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def run_call(self, call, tag: str):
        argv = [sys.executable, "-m", "escrate.cli"] + self.cli_argv(call, tag)
        wall, rc, rss = self.launch(argv, self.work / f"{call.name}.{tag}.err")
        problems, digest = self.collect(call, tag, rc)
        return wall, rss, problems, digest

    def in_process(self, calls, tag: str, trace: bool = False) -> dict:
        """Run calls one after another in one ``bench/trace_child.py`` process
        (traced under ``-X importtime`` if asked); return what it reports.

        Each call's exit code and stderr are left for ``collect``; a child
        that fails is counted and reports no calls."""
        plan = [{"argv": self.cli_argv(c, tag),
                 "err": str(self.work / f"{c.name}.{tag}.err")} for c in calls]
        plan_path = self.work / f"plan.{tag}.json"
        result_path = self.work / f"result.{tag}.json"
        plan_path.write_text(json.dumps(plan))
        argv = [sys.executable] + (["-X", "importtime"] if trace else []) + [
            str(BENCH_DIR / "trace_child.py"), str(plan_path), str(result_path)]
        _, rc, _ = self.launch(argv + (["--trace"] if trace else []),
                               self.work / f"child.{tag}.err")
        self.count(f"child.{tag}", [] if rc == 0 else [f"exit {rc}"])
        return json.loads(result_path.read_text()) if rc == 0 else {"calls": []}

    def same_bytes(self, call, digests):
        problems = [] if len(digests) >= 2 and len(set(digests)) == 1 else [
            f"output bytes differ across {len(digests)} runs"]
        self.count(f"{call.name}.repeat", problems)
        return not problems


def reference() -> float:
    """Wall time of a fixed pure-Python loop: the speed of the core right now.

    The host's other tenants slow this core by up to 2x for tens of seconds
    at a time, and interpreter-bound calls the most. Run before and after
    each timed launch, on the core the launch is pinned to, it scales that
    launch's time to the reference speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOPS):
        total += i * i
    return time.perf_counter() - start


def run_untraced(runner: Runner, wl, seconds: float):
    # set-up launches go before every pass, so that their median samples the
    # machine over the whole run; it also absorbs the one slow launch that
    # writes bytecode in a fresh checkout
    setup_argv = [sys.executable, "-c", IMPORT_SNIPPET]
    setup = {"raw": [], "scaled": []}
    walls = {c.name: [] for c in wl.calls}
    scaled = {c.name: [] for c in wl.calls}
    digests = {c.name: [] for c in wl.calls}
    refs = [reference()]
    bad = set()

    def scale(wall):
        """Scale the launch that just ended by the loops run around it."""
        refs.append(reference())
        return wall * REF_S * 2 / (refs[-2] + refs[-1])

    rss = 0
    timed = longest = 0.0
    passes = 0
    while True:
        for _ in range(SETUP_LAUNCHES_PER_PASS):
            i = len(setup["raw"])
            wall, rc, _ = runner.launch(setup_argv, runner.work / f"setup{i}.err")
            setup["scaled"].append(scale(wall))
            setup["raw"].append(wall)
            runner.count(f"setup{i}", [] if rc == 0 else [f"exit {rc}"])
        pass_start = time.perf_counter()
        for call in wl.calls:
            wall, call_rss, problems, digest = runner.run_call(call, f"p{passes}")
            scaled[call.name].append(scale(wall))
            walls[call.name].append(wall)
            digests[call.name].append(digest)
            rss = max(rss, call_rss)
            if problems:
                bad.add(call.name)
        passes += 1
        pass_s = time.perf_counter() - pass_start
        timed += pass_s
        longest = max(longest, pass_s)
        if passes >= MIN_PASSES and (timed + longest > seconds
                                     or runner.remaining() < 2 * longest + 30):
            break
    for call in wl.calls:
        if not runner.same_bytes(call, digests[call.name]):
            bad.add(call.name)
    done = runner.in_process(wl.once + wl.probes, "once")["calls"]
    done += [{"rc": None}] * (len(wl.once) + len(wl.probes) - len(done))
    for call, result in zip(wl.once, done):
        if result["rc"] is None or runner.collect(call, "once", result["rc"])[0]:
            bad.add(call.name)
    probe_failures = []
    for probe, result in zip(wl.probes, done[len(wl.once):]):
        problems = (["not run"] if result["rc"] is None else
                    runner.collect(probe, "once", result["rc"], count=False)[0])
        if problems:
            probe_failures.append(f"{probe.name}: {'; '.join(problems)}")

    median = {name: statistics.median(w) for name, w in scaled.items()}
    wall_s = sum(median.values())
    distinct = len(wl.calls) + len(wl.once) + len(wl.probes)
    error_rate = (len(bad) + len(probe_failures)) / distinct

    def rate(attr):
        doing = [c for c in wl.calls if getattr(c, attr)]
        if not doing:
            return None
        return (sum(getattr(c, attr) for c in doing)
                / sum(median[c.name] for c in doing))

    throughput = (len(wl.calls) / wall_s if wl.throughput == "calls"
                  else rate(wl.throughput))
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(setup["scaled"]), "s"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
        "ok_fraction": (1.0 - error_rate, "ratio"),
        "throughput_per_s": (throughput, "1/s"),
    }
    extra = {
        "error_rate": (error_rate, "ratio"),
        "rate_rows_per_s": (rate("rows"), "rows/s"),
        "path_steps_per_s": (rate("path_steps"), "1/s"),
        "wall_unscaled_s": (sum(map(statistics.median, walls.values())), "s"),
        "setup_unscaled_s": (statistics.median(setup["raw"]), "s"),
        "reference_s": (statistics.median(refs), "s"),
        "passes": (passes, "count"),
    }
    detail = {"median_wall_s": median, "walls": walls, "scaled_walls": scaled,
              "setup_walls": setup["raw"], "references": refs,
              "probe_failures": probe_failures}
    return metrics, extra, detail


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def _import_times(text: str):
    """Seconds spent importing escrate, numpy and scipy, from -X importtime.

    Each package's time is the cumulative time of its outermost import rows,
    so modules it pulls in from elsewhere are included."""
    totals = {"escrate": 0.0, "numpy": 0.0, "scipy": 0.0}
    stack = []                      # (level, package or None) of open rows
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue                  # the header row
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((level, int(cum), name.strip()))
    # importtime prints a module after its children; walk it in reverse to
    # meet each parent before the rows nested under it
    for level, cum, name in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        package = name.split(".")[0]
        package = package if package in totals else None
        if package and not any(p == package for _, p in stack):
            totals[package] += cum / 1e6
        stack.append((level, package))
    return totals


def _layer_metrics(traced: dict):
    spans = traced["spans"]
    counts, times = traced["counts"], traced["times"]
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    covered = [s[5] for s in spans]           # drift and noise charged inside
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[i]
    self_time = {}
    for i, s in enumerate(spans):
        layer = s[0].split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + dur[i] - covered[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    def total(name):
        return sum(dur[i] for i in range(n) if spans[i][0] == name
                   and name not in ancestors(i))

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    main_self = sum(dur[i] - covered[i] for i in range(n)
                    if spans[i][0] == "cli.main")
    phi_in_tables = sum(1 for i in range(n) if spans[i][0] == "rate_solver.phi"
                        and "rate_solver.rate_table" in ancestors(i))
    rows = counts.get("rate_solver.rows", 0)
    noise = times.get("sde.noise", 0.0) + times.get("sde.generators", 0.0)
    drift = times.get("sde.drift", 0.0)
    sde_steps = counts.get("sde.path_steps", 0)
    verify_steps = counts.get("verify.path_steps", 0)
    ensemble_s = total("sde.ensemble")
    comparison_s = total("verify.comparison_mc")
    return {
        "cli.load_config_s": (total("cli.load_config"), "s"),
        "cli.self_s": (main_self, "s"),
        "rate_solver.rate_table_s": (total("rate_solver.rate_table"), "s"),
        "rate_solver.phi_calls": (calls("rate_solver.phi"), "count"),
        "rate_solver.phi_per_row": (phi_in_tables / rows if rows else 0.0,
                                    "calls/row"),
        "rate_solver.dyadic_scheme_s": (total("rate_solver.dyadic_scheme"), "s"),
        "rate_solver.conservativeness_s":
            (total("rate_solver.conservativeness"), "s"),
        "rate_solver.self_s": (self_time.get("rate_solver", 0.0), "s"),
        "profiles.rho_tilde_inverse_s":
            (total("profiles.rho_tilde_inverse"), "s"),
        "profiles.rho_tilde_inverse_calls":
            (calls("profiles.rho_tilde_inverse"), "count"),
        "profiles.growth_evals": (counts.get("profiles.growth_evals", 0), "count"),
        "profiles.coeff_evals": (counts.get("profiles.coeff_evals", 0), "count"),
        "profiles.self_s": (self_time.get("profiles", 0.0), "s"),
        "sde.noise_s": (noise, "s"),
        "sde.generators": (counts.get("sde.generators", 0), "count"),
        "sde.drift_s": (drift, "s"),
        "sde.drift_calls": (counts.get("sde.drift", 0), "count"),
        "sde.ensemble_s": (ensemble_s, "s"),
        "sde.path_steps": (sde_steps, "count"),
        "sde.ns_per_path_step": (1e9 * ensemble_s / sde_steps if sde_steps
                                 else 0.0, "ns"),
        "sde.stored_mb": (counts.get("sde.stored_bytes", 0) / 2 ** 20, "MB"),
        "sde.floor_hits": (counts.get("sde.floor_hits", 0), "count"),
        "sde.self_s": (self_time.get("sde", 0.0) + noise + drift, "s"),
        "verify.comparison_mc_s": (comparison_s, "s"),
        "verify.path_steps": (verify_steps, "count"),
        "verify.ns_per_path_step": (1e9 * comparison_s / verify_steps
                                    if verify_steps else 0.0, "ns"),
        "verify.exceedance_s": (total("verify.exceedance"), "s"),
        "verify.lil_statistic_s": (total("verify.lil_statistic"), "s"),
        "verify.self_s": (self_time.get("verify", 0.0), "s"),
        "trace.spans": (n, "count"),
    }


def run_traced(runner: Runner, wl):
    calls = wl.calls + wl.once
    results = {}
    outputs = {}
    for tag in ("plain", "traced"):
        results[tag] = runner.in_process(calls, tag, trace=tag == "traced")
        sizes = {c.name: (runner.work / f"{c.name}.{tag}.csv").stat().st_size
                 for c in calls
                 if (runner.work / f"{c.name}.{tag}.csv").exists()}
        for call, done in zip(calls, results[tag]["calls"]):
            _, digest = runner.collect(call, tag, done["rc"])
            outputs.setdefault(call.name, []).append(digest)
        results[tag]["csv_bytes"] = sum(sizes.values())
    for call in calls:
        runner.same_bytes(call, outputs.get(call.name, []))

    traced = results["traced"]
    metrics = {}
    if "spans" in traced:
        imports = _import_times(
            (runner.work / "child.traced.err").read_text(errors="replace"))
        metrics.update({
            "cli.import_s": (imports["escrate"], "s"),
            "cli.import_numpy_s": (imports["numpy"], "s"),
            "cli.import_scipy_s": (imports["scipy"], "s"),
            "cli.csv_bytes": (traced["csv_bytes"], "B"),
        })
        metrics.update(_layer_metrics(traced))
        (runner.work / "result.traced.json").unlink(missing_ok=True)
        (runner.work / "spans.json").write_text(json.dumps(
            {"names": ["name", "start", "end", "parent", "call", "charged"],
             "calls": [c.name for c in calls], "spans": traced["spans"]}))
    plain_s = sum(c["wall"] for c in results["plain"]["calls"])
    traced_s = sum(c["wall"] for c in traced["calls"])
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    extra = {"untraced_calls_s": (plain_s, "s"), "traced_calls_s": (traced_s, "s")}
    return metrics, extra, {}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def environment(root: Path, seed: int, sim_seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": commit, "seed": seed,
            "sim_seed": sim_seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    pinned = root / "src" / "escrate" / "pinned.py"
    if not (root / "src" / "escrate" / "cli.py").is_file() or not pinned.is_file():
        print("bench: no escrate package under ./src; run from the repository "
              "root", file=sys.stderr)
        return 2
    broken = checks.self_test()
    if broken:
        print(f"bench: output checks accept corrupted output: {broken}",
              file=sys.stderr)
        return 2
    all_workloads = workloads(runpy.run_path(str(pinned))["LIL_EPS05_MAX_FRACTION"])
    wl = all_workloads.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(all_workloads)}", file=sys.stderr)
        return 2

    mode = "trace" if args.trace else "e2e"
    work = root / ".bench_work" / f"{wl.name}-{args.seed}-{mode}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # one core for this process and its children, so that the reference
    # loop measures the core every timed launch runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = Runner(root, work, args.seed)
    if args.trace:
        metrics, extra, detail = run_traced(runner, wl)
    else:
        metrics, extra, detail = run_untraced(runner, wl, args.seconds)

    env = environment(root, args.seed, runner.sim_seed)
    record = {"workload": wl.name, "mode": mode, "environment": env,
              "metrics": metrics, "extra": extra, "detail": detail,
              "failures": runner.failures}
    (work / "results.json").write_text(json.dumps(record, indent=1))

    print(f"# {wl.name} ({mode}) seed={args.seed} " + " ".join(
        f"{k}={v}" for k, v in env.items() if k != "seed"))
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        if value is not None:
            print(f"{wl.name:12s} {name:34s} {value:>16.6g} {unit}")
    for problem in runner.failures:
        print(f"FAIL {problem}")
    for problem in detail.get("probe_failures", []):
        print(f"PROBE (known defect) {problem}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
