"""Exception types shared across the package."""


class DegenerateModelError(ValueError):
    """The model has no size-1 edge density, so a collapse never starts."""


class BracketError(RuntimeError):
    """A bisection bracket does not straddle the target."""

