"""Run a workload's CLI calls in one process, optionally traced.

    python3 bench/trace_child.py PLAN RESULT [--trace]

PLAN is a JSON list of calls, each ``{"argv": [...], "err": path}``; every
call runs as ``escrate.cli.main(argv)`` with stderr sent to its ``err`` file.
RESULT receives each call's exit code and wall time and, with ``--trace``,
the spans and counters below. Spans stay in memory until the last call ends.

Spans (name, start, end, parent span, call index) are recorded around the
public functions of each escrate module. Every module attribute bound to a
traced function is replaced, so names imported by value (``cli.ensemble``,
``cli.radial_drift``, ``rate_solver.rho_tilde_inverse``,
``verify._path_generator`` ...) are traced too. Functions called per
integrand evaluation or per Euler step are counted, not spanned: growth
profile ``V``, coefficient ``a``, drift evaluations and noise draws. Drift
and noise time is charged to the sde layer and taken out of the self time of
the span it ran in.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
import traceback
import warnings

# Public functions that get a span, by module. Private kernels of verify are
# included because they are where comparison_mc spends its time.
SPANNED = {
    "cli": ("main", "load_config"),
    "rate_solver": ("rate_table", "psi", "phi", "effective_lower_limit",
                    "conservativeness", "dyadic_scheme", "euclidean_rate",
                    "drift_envelope"),
    "profiles": ("rho_tilde_inverse", "profile_from_radial"),
    "sde": ("ensemble", "euler_path", "radial_drift",
            "euclidean_diffusion_nd"),
    "verify": ("exceedance", "comparison_mc", "coupled_dominance",
               "lil_statistic", "_terminal_run", "_coupled_run"),
}

_clock = time.perf_counter


def _path_steps(fn, chains):
    """Counter hook: chains * n_paths * int(T / dt) from the call's arguments."""
    sig = inspect.signature(fn)

    def hook(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        n_paths = bound.get("n_paths", 1)
        return chains * int(n_paths) * int(bound["T"] / bound["dt"])
    return hook


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, call, charged]
        self.stack = []          # indices of open spans
        self.counts = {}
        self.times = {}
        self.call = -1

    def _charge(self, key, elapsed):
        self.counts[key] = self.counts.get(key, 0) + 1
        self.times[key] = self.times.get(key, 0.0) + elapsed
        if self.stack:
            self.spans[self.stack[-1]][5] += elapsed

    def span(self, name, fn, on_exit=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result
        return traced

    def timed(self, key, fn):
        """A per-step function: counted and timed, charged to the sde layer."""
        charge = self._charge

        def traced(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                charge(key, _clock() - start)
        traced.bench_traced = True
        return traced

    def counted(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        def traced(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return traced

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount


class _TimedGenerator:
    """Passes every draw, with all its arguments (``dtype=``, ``out=``), to
    the wrapped Philox generator and charges its time to ``sde.noise``."""

    __slots__ = ("_gen", "_draw")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._draw = tracer.timed("sde.noise", gen.standard_normal)

    def standard_normal(self, *args, **kwargs):
        return self._draw(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _rebind(modules, original, replacement):
    """Point every module attribute bound to ``original`` at ``replacement``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer):
    """Wrap the escrate package in place."""
    import escrate.cli
    from escrate import profiles, rate_solver, sde, verify

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "escrate" or name.startswith("escrate.")]
    by_name = {"cli": escrate.cli, "rate_solver": rate_solver,
               "profiles": profiles, "sde": sde, "verify": verify}

    def ensemble_done(args, kwargs, ens):
        tracer.add("sde.stored_bytes", ens.values.nbytes)
        if ens.floor_hits is not None:
            tracer.add("sde.floor_hits", int(ens.floor_hits.sum()))

    hooks = {
        ("rate_solver", "rate_table"):
            lambda a, k, rate: tracer.add("rate_solver.rows", rate.times.size),
        ("sde", "ensemble"): ensemble_done,
    }
    steps = {("sde", "ensemble"): ("sde.path_steps", 1),
             ("sde", "euler_path"): ("sde.path_steps", 1),
             ("verify", "_terminal_run"): ("verify.path_steps", 1),
             ("verify", "_coupled_run"): ("verify.path_steps", 2)}

    for layer, names in SPANNED.items():
        mod = by_name[layer]
        for name in names:
            fn = getattr(mod, name, None)
            if fn is None:
                continue
            exits = [h for h in (hooks.get((layer, name)),) if h]
            if (layer, name) in steps:
                key, chains = steps[(layer, name)]
                count = _path_steps(fn, chains)
                exits.append(lambda a, k, r, key=key, count=count:
                             tracer.add(key, count(a, k, r)))
            on_exit = (lambda a, k, r, hs=tuple(exits):
                       [h(a, k, r) for h in hs]) if exits else None
            wrapped = tracer.span(f"{layer}.{name}", fn, on_exit)
            if (layer, name) == ("sde", "radial_drift"):
                wrapped = _drift_factory(tracer, wrapped)
            _rebind(modules, fn, wrapped)

    # Every Philox stream, whichever module builds it.
    make_gen = sde._path_generator

    def path_generator(seed):
        start = _clock()
        gen = make_gen(seed)
        tracer._charge("sde.generators", _clock() - start)
        return _TimedGenerator(gen, tracer)
    _rebind(modules, make_gen, path_generator)

    # Drifts that do not come from radial_drift (drift = none).
    build_drift = escrate.cli.build_drift
    escrate.cli.build_drift = _drift_factory(tracer, build_drift)

    profiles.GrowthProfile.V = tracer.counted(
        "profiles.growth_evals", profiles.GrowthProfile.V)
    profiles.RadialCoefficient.a = tracer.counted(
        "profiles.coeff_evals", profiles.RadialCoefficient.a)


def _drift_factory(tracer, factory):
    """Wrap the drift a factory returns, once, so each evaluation is timed."""
    def make(*args, **kwargs):
        drift = factory(*args, **kwargs)
        if getattr(drift, "bench_traced", False):
            return drift
        return tracer.timed("sde.drift", drift)
    return make


def main(argv):
    trace = "--trace" in argv
    plan_path, result_path = [a for a in argv if a != "--trace"]
    with open(plan_path) as fh:
        plan = json.load(fh)
    import escrate.cli

    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    calls = []
    for i, call in enumerate(plan):
        if tracer is not None:
            tracer.call = i
        with open(call["err"], "w") as err, contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            start = _clock()
            try:
                rc = escrate.cli.main(call["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                rc = 1
            calls.append({"rc": rc, "wall": _clock() - start})
    result = {"calls": calls}
    if tracer is not None:
        result.update(spans=tracer.spans, counts=tracer.counts,
                      times=tracer.times)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
