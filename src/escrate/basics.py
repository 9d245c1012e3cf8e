"""The numpy-free part of escrate: what every CLI launch may need.

The closed-form catalogue, the coefficient families with their parameter
keys and conservativeness rule, and the library defaults the config schema
shares need no numerics, so ``catalogue``, ``conserve`` on a family and
every config error run without importing numpy.
``escrate.profiles.CATALOGUE`` is this same object. The frozen base of the
value classes and the count check that ``profiles``, ``sde`` and
``rate_solver`` share live here too, so a chain with no drift formula runs
without loading ``escrate.profiles``.
"""

from __future__ import annotations

from typing import Optional

from .errors import DomainError

__all__ = ["CATALOGUE", "DEFAULT_ORIGIN_FLOOR", "FAMILIES", "PROOF_SCALE_C",
           "family_verdict"]

# Default reflecting floor of a chain.
DEFAULT_ORIGIN_FLOOR = 1e-6

# The proof of the volume-growth theorem yields this envelope time constant.
PROOF_SCALE_C = 512.0


# The catalogue as ``escrate catalogue`` prints it: (case, parameter range,
# psi, psi_tilde), with psi_tilde "" where the case has no Euclidean-metric
# companion. profiles.catalogue_case declares each case: its parameters,
# closed forms and numeric route.
CATALOGUE = (
    ("diri1", "", "sqrt(t log t)", "sqrt(t log t)"),
    ("diri2", "alpha<2", "sqrt(t log t)", "(t log t)^(1/(2-alpha))"),
    ("diri3", "beta<1", "t^(1+beta/(2-2 beta))", "exp(t^(1/(1-beta)))"),
    ("diri3", "beta=1", "exp(t)", "exp(exp(t))"),
    ("geo1", "", "sqrt(t log log t)", "sqrt(t log log t)"),
    ("geo2", "alpha<2", "sqrt(t log log t)", "(t log log t)^(1/(2-alpha))"),
    ("geo3", "beta<1", "t^(1+beta/(2-2 beta))", "exp(t^(1/(1-beta)))"),
    ("geo3", "beta=1", "exp(t)", "exp(exp(t))"),
    ("g_alpha", "alpha=-1", "sqrt(t log log t)", ""),
    ("g_alpha", "-1<alpha<1", "t^(1/(1-alpha))", ""),
    ("g_alpha", "alpha=1", "exp(t)", ""),
    ("hyperbolic_linear", "n>=2, K>0", "(1+eps)(n-1) sqrt(K) t", ""),
)


class _Frozen:
    """Base of the value classes whose constructor sets every field once:
    assigning or deleting an attribute of an instance is an AttributeError
    (a chain's kernel trusts the floor its constructor checked)."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _check_count(value, name: str) -> None:
    """DomainError unless value is an integer >= 1 (NaN included)."""
    import numbers  # loaded by numpy already; a launch without numpy skips it

    if not value >= 1:
        raise DomainError(f"{name} must be >= 1")
    if not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")


# Each coefficient family (a RadialCoefficient constructor of the same name)
# and the [model] key of its parameter, None for a family without one.
FAMILIES = {"constant": None, "power": "alpha", "squared_log": "beta",
            "tabulated": None}


def family_verdict(family: str, param) -> Optional[str]:
    """Conservative or NonConservative for a coefficient family and its
    parameter: constant; power for alpha <= 2; squared_log for beta <= 1.
    None for a family with no symbolic rule (tabulated)."""
    if family == "constant":
        return "Conservative"
    if family == "power":
        return "Conservative" if param <= 2.0 else "NonConservative"
    if family == "squared_log":
        return "Conservative" if param <= 1.0 else "NonConservative"
    return None
