"""Exception hierarchy shared by all escrate modules.

Each error class declares the exit code the CLI returns for it: 2 for a
config or domain error, 3 for a solver failure, 4 for a non-finite
simulation state (NonFiniteState), 5 for a failed verification.
"""


class EscrateError(Exception):
    """Base class for all escrate errors."""
    exit_code: int


class NonPositiveCoefficient(EscrateError):
    """Radial coefficient is not strictly positive where it must be."""
    exit_code = 3


class QuadratureFailure(EscrateError):
    """Adaptive integration could not reach the requested tolerance."""
    exit_code = 3


class OutOfRange(EscrateError):
    """Inversion target lies outside the range of the monotone function."""
    exit_code = 3


class DomainError(EscrateError):
    """Argument outside the domain where the formula is defined."""
    exit_code = 2


class NonMonotoneTransform(EscrateError):
    """Supplied transform f is not strictly increasing on the grid."""
    exit_code = 3


class NonPositiveDenominator(EscrateError):
    """Rate integrand denominator fails positivity.

    Carries the first offending radius in ``.radius``.
    """
    exit_code = 3

    def __init__(self, radius, message=None):
        self.radius = radius
        super().__init__(message or f"denominator not positive at r={radius!r}")


class FiniteTotalIntegral(EscrateError):
    """The rate integral converges to a finite limit below the requested time.

    The profile is in the non-conservative regime: no radius R satisfies
    phi(R) = t.
    """
    exit_code = 3


class ExtrapolationError(EscrateError):
    """Evaluation requested beyond the sampled domain of a rate table."""
    exit_code = 3


class NonFiniteState(EscrateError):
    """A simulation step produced a non-finite value.

    Carries in ``.step`` the first step of the window of up to 128 steps in
    which the state went non-finite: every chain runs on the one stepping
    kernel, which checks its states once per window.
    """
    exit_code = 4

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


class DriftOrderViolated(EscrateError):
    """Pointwise drift domination fails.

    Carries a grid point where the order fails in ``.radius``. Only the
    library's ``comparison_mc`` and ``coupled_dominance`` raise it; no CLI
    config chooses the compared drifts.
    """
    exit_code = 5

    def __init__(self, radius, message=None):
        self.radius = radius
        super().__init__(message or f"drift order violated at r={radius!r}")


class ConfigError(EscrateError):
    """Run configuration is missing, malformed, or carries unknown keys."""
    exit_code = 2
