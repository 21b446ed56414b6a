"""Exception types shared across the package."""


class TorusflowError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(TorusflowError):
    """Bad input: malformed spec, non-admissible parameter, broken invariant."""


class MetricFormatError(ValidationError):
    """Metric description file does not follow the documented grammar."""


class StepFailure(TorusflowError):
    """Adaptive integrator could not reach the requested horizon."""


class NotEscaping(TorusflowError):
    """Asymptotic-direction estimate requested for a trajectory that has not escaped."""


class DegenerateSpacing(TorusflowError):
    """Node spacing of a discrete curve collapsed outside the admissible band."""


class NumericalBlowup(TorusflowError):
    """Curvature exploded without the curve shrinking; step-halving budget exhausted."""


class NotConverged(TorusflowError):
    """Iterative refinement (flow plateau or Newton shooting) exhausted its budget."""
