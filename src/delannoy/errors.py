"""Exceptions shared by the layers of the engine."""


class InvariantError(AssertionError):
    """A guaranteed property of a computed value failed; unlike `assert`, kept under `python -O`."""
