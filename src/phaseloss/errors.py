"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """Arguments violate a precondition (shape, range, finiteness).

    ``index`` is the flat position of the first offending point when a
    stacked input fails, None for a single point.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InvalidState(ValueError):
    """A density operator fails positivity or normalization checks."""


class SingularInformation(ArithmeticError):
    """Information matrix is numerically singular; carries the near-null direction.

    ``index`` is the flat position of the first singular point of a stack,
    None for a single matrix.
    """

    def __init__(self, message, direction=None, index=None):
        super().__init__(message)
        self.direction = direction
        self.index = index


class DegenerateChannel(ValueError):
    """Channel parameter sits at an endpoint where the model degenerates."""


class Unsupported(RuntimeError):
    """Requested combination of scheme and state is not defined."""
