"""Shared exception types."""


class MonoidGeoError(Exception):
    pass


class UndefinedProduct(MonoidGeoError, ArithmeticError):
    """Raised for the undefined product 0 * infinity."""


class HorizonTooSmall(MonoidGeoError):
    """A required distance is only known to exceed the current horizon."""


class InvalidElement(MonoidGeoError, ValueError):
    pass


class InvalidLetter(MonoidGeoError, ValueError):
    pass


class NonTerminating(MonoidGeoError):
    """Rewriting exceeded its step cap."""


class NoPath(MonoidGeoError):
    """No geodesic exists (distance infinite or not certified finite)."""


class HypothesisFailed(MonoidGeoError):
    """A pipeline pre-check failed; `hypothesis` names the failed check."""

    def __init__(self, hypothesis, detail=""):
        self.hypothesis = hypothesis
        self.detail = detail
        super().__init__(f"hypothesis failed: {hypothesis}" + (f" ({detail})" if detail else ""))


class FactorizationFailed(MonoidGeoError):
    def __init__(self, element, step, detail=""):
        self.element = element
        self.step = step
        self.detail = detail
        super().__init__(f"factorization failed at step {step} for {element}: {detail}")


class SpecParseError(MonoidGeoError, ValueError):
    """Malformed monoid spec document."""


class SpecValidationError(MonoidGeoError, ValueError):
    """Well-formed monoid spec document describing an invalid structure."""
