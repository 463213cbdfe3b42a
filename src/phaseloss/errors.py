"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """Arguments violate a precondition (shape, range, finiteness)."""


class InvalidState(ValueError):
    """A density operator fails positivity or normalization checks."""


class SingularInformation(ArithmeticError):
    """Information matrix is numerically singular; carries the near-null
    direction, of the first singular point for a stack."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


class DegenerateChannel(ValueError):
    """Channel parameter sits at an endpoint where the model degenerates."""


class Unsupported(RuntimeError):
    """Requested combination of scheme and state is not defined."""
