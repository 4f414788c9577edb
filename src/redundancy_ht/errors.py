"""Exception hierarchy shared by all modules."""


class ModelError(ValueError):
    """Invalid model data (bad rates, duplicate types, malformed file)."""


class DomainError(ValueError):
    """Operation called outside its mathematical domain (unstable model, bad subset, ...)."""


class CapExceeded(RuntimeError):
    """Enumeration refused because the instance exceeds a documented size cap."""


class PoleError(ArithmeticError):
    """A generating-function denominator reached zero (evaluation at or beyond a pole)."""


class ConsistencyError(AssertionError):
    """An internal structural identity that must hold was violated."""
