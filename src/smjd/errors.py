"""Exception types shared across the library."""

from __future__ import annotations


class SmjdError(Exception):
    """Base class for library errors."""


class AgeBeyondSupport(SmjdError):
    """Hazard rate requested at an age where the holding-time cdf is ~1."""

    def __init__(self, state: int, age: float):
        self.state = state
        self.age = age
        super().__init__(
            f"hazard undefined: holding-time cdf at age {age} in state "
            f"{state} is within 1e-15 of 1"
        )


class InfiniteHazard(SmjdError):
    """Hazard rate requested at age 0 of a Weibull state with shape < 1."""

    def __init__(self, state: int, shape: float):
        self.state = state
        super().__init__(f"hazard infinite at age 0 in state {state}: "
                         f"Weibull shape {shape} < 1")


class BoundViolation(SmjdError):
    """A realized hazard exceeded the declared majorant during thinning."""


class NonFinitePath(SmjdError):
    """A simulated state coordinate became non-finite.

    Carries the index of the first offending path in its ensemble, so the
    path can be reproduced from its noise stream.
    """

    def __init__(self, message: str, path_index: int):
        self.path_index = path_index
        super().__init__(message)


class InvalidParameter(SmjdError, ValueError):
    """A constructor refused the value of one parameter, named by ``field``."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


class DegenerateVol(SmjdError):
    """Volatility is zero where a division by sigma is required."""


class SingularDenominator(SmjdError):
    """The control-rule denominator is numerically zero."""


class SingularPhi(SmjdError):
    """The linear-rule slope functional is numerically zero."""


class FixedPointDiverged(SmjdError):
    """A functional's fixed point still moved after its cap on rounds; the
    message names the node."""


class AdmissibilityFailure(SmjdError):
    """A perturbed policy failed the finite-objective admissibility probe."""


class ConfigError(SmjdError):
    """Experiment configuration is malformed; message names the field path."""
