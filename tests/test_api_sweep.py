"""The library's error contract, swept over public callables.

One row per public callable and numeric argument: a base call that
succeeds, and the hostile values that argument must refuse. Each hostile
value must raise DomainError (exit 2) before any run starts:
never a raw TypeError, ValueError or OverflowError, a raw warning (warnings
are errors here), a NaN answer or a typed error from a later stage. The
runs are a few paths over a few steps, so no row asks for a large array.
"""

import math

import numpy as np
import pytest

from escrate.errors import DomainError
from escrate.profiles import (RadialCoefficient, catalogue_case,
                              closed_form_rate, profile_from_radial)
from escrate.rate_solver import dyadic_scheme
from escrate.sde import Sde1D, ensemble
from escrate.verify import (comparison_mc, coupled_dominance, exceedance,
                            lil_statistic)

NAN, INF = math.nan, math.inf
COUNTS = [NAN, INF, -INF, 0, -1, 2.5, 3.0]  # and each row's own extras
SEEDS = [NAN, INF, -1, 2.5, 3.0, 2 ** 64]
POINTS = [NAN, INF, -INF, 0.0, -1.0]  # x0: below the floor or not finite

LOW = Sde1D(drift=None, sigma=1.0)
HIGH = Sde1D(drift=lambda x: np.ones_like(x), sigma=1.0)


def _run(kind, x0=1.0, n_paths=4, seed=1, store_every=2, R=5.0,
         C_grid=(1.0,), t0=0.0, barrier=None):
    """A run of ``kind`` of a few paths over a few steps."""
    T = 3.5 if kind == "lil_statistic" else 0.05  # its window starts past e
    chain = (LOW, x0, T, 0.01, n_paths, seed)
    if kind == "ensemble":
        return ensemble(*chain, barrier=barrier, store_every=store_every)
    if kind == "exceedance":
        return exceedance(*chain, math.sqrt, C_grid, t0,
                          store_every=store_every)
    if kind == "lil_statistic":
        return lil_statistic(*chain, 3.0, [0.0], store_every=store_every)
    if kind == "coupled_dominance":
        return coupled_dominance(LOW, HIGH, x0, T, 0.01, n_paths, seed)
    return comparison_mc(HIGH, LOW, x0, T, 0.5, R, n_paths, 0.01, seed)


# row -> (call of one argument, base value, hostile values)
ROWS = {
    "tabulated-values": (  # a third value whose spline overflows
        lambda v: RadialCoefficient.tabulated([0.0, 1.0, 2.0], [1.0, 2.0, v]),
        3.0, [NAN, INF, 1e308]),
    "dyadic_scheme-N": (
        lambda N: dyadic_scheme(profile_from_radial(
            RadialCoefficient.constant(), 3, "unit_energy"), 4.0, N), 3,
        COUNTS),
    "closed_form_rate-t": (
        lambda t: closed_form_rate(catalogue_case("diri1"), t), 2.0,
        [NAN, -INF, 0.0, -1.0]),
    "comparison_mc-R": (
        lambda R: _run("comparison_mc", R=R), 5.0,
        [NAN, INF, -INF, 0.0, -1.0]),
    "exceedance-C_grid": (
        lambda C: _run("exceedance", C_grid=C), [1.0],
        [[NAN], [INF], [-INF], [0.0], [-1.0]]),
    "exceedance-t0": (
        lambda t0: _run("exceedance", t0=t0), 0.0, [NAN, INF]),
    "ensemble-barrier": (  # a NaN barrier would report no exits
        lambda b: _run("ensemble", barrier=b), 2.0, [NAN]),
}
for _kind in ("ensemble", "exceedance", "lil_statistic", "coupled_dominance",
              "comparison_mc"):
    ROWS[f"{_kind}-n_paths"] = (
        lambda v, k=_kind: _run(k, n_paths=v), 4, COUNTS + [2 ** 64])
    ROWS[f"{_kind}-master_seed"] = (
        lambda v, k=_kind: _run(k, seed=v), 1, SEEDS)
    if _kind != "comparison_mc":  # its r0 < R check refused these already
        ROWS[f"{_kind}-x0"] = (
            lambda v, k=_kind: _run(k, x0=v), 1.0, POINTS)
    if _kind in ("ensemble", "exceedance", "lil_statistic"):
        ROWS[f"{_kind}-store_every"] = (
            lambda v, k=_kind: _run(k, store_every=v), 2, COUNTS)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", sorted(ROWS))
def test_base_call_succeeds(row):
    # each base answers, so a hostile value is the only fault of a row
    call, base, _ = ROWS[row]
    call(base)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", sorted(ROWS))
def test_hostile_values_raise_domain_error(row):
    call, _, values = ROWS[row]
    found = []
    for value in values:
        try:
            answer = call(value)
        except Exception as exc:  # a raw exception, or a raw warning
            if type(exc) is not DomainError:
                found.append((value, f"{type(exc).__name__}: {exc}"))
        else:
            found.append((value, f"answered {answer!r}"))
    assert found == []
