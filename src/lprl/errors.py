"""Shared exception types."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the given inputs."""
    sigma = None  # the tree node being built when it was raised, if any


class ResourceLimitError(RuntimeError):
    """A materialization or an entrywise comparison would pass
    ``MATERIALIZE_LIMIT`` entries, or would need a window entry past the
    exactly representable indices."""
    sigma = None  # the tree node being built when it was raised, if any
