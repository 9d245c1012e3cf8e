"""Escape-rate envelopes for diffusions from volume growth and drift comparison."""

from .errors import EscrateError
from .profiles import (
    CatalogueCase,
    GrowthProfile,
    ManifoldModel,
    RadialCoefficient,
    catalogue_case,
    closed_form_rate,
    profile_from_radial,
)
from .rate_solver import (
    DyadicScheme,
    RateFunction,
    Verdict,
    conservativeness,
    dyadic_scheme,
    euclidean_rate,
    phi,
    psi,
    rate_table,
)
from .sde import HyperbolicBound, PathEnsemble, Sde1D, ensemble, radial_drift
from .verify import (
    comparison_mc,
    coupled_dominance,
    exceedance,
    exceedance_mc,
    lil_mc,
    lil_statistic,
)

__version__ = "0.1.0"
