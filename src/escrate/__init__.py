"""Escape-rate envelopes for diffusions from volume growth and drift comparison.

The public names below resolve on first use: ``import escrate`` loads no
numeric module, and ``escrate.rate_table`` imports ``escrate.rate_solver``
(and numpy) when it is first read.
"""

import importlib

# the public names of each module
_EXPORTS = {
    "errors": ("EscrateError",),
    "profiles": ("CatalogueCase", "GrowthProfile", "RadialCoefficient",
                 "catalogue_case", "closed_form_rate", "coefficient_drift",
                 "euclidean_mean_curvature", "hyperbolic_majorant",
                 "hyperbolic_mean_curvature", "profile_from_radial"),
    "rate_solver": ("DyadicScheme", "RateFunction", "Verdict",
                    "conservativeness", "dyadic_scheme", "euclidean_rate",
                    "phi", "psi", "rate_table"),
    "sde": ("PathEnsemble", "Sde1D", "ensemble"),
    "verify": ("comparison_mc", "coupled_dominance", "exceedance",
               "lil_statistic"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
