"""Shared exception types."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the given inputs."""
    sigma = None  # the tree node being built when it was raised, if any


class ResourceLimitError(RuntimeError):
    """A search or materialization exceeded its configured budget.

    Carries the progress made so far, so callers can report how close the
    computation got before the budget ran out.
    """

    def __init__(self, message, partial_sum=None, steps=None, sigma=None):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.steps = steps
        self.sigma = sigma
