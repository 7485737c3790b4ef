"""Exception taxonomy shared across the package.

Two families matter to callers: problems with the input itself
(InputError, CLI exit code 2) and failures of a numerical procedure on
valid input (NumericalError, CLI exit code 3).
"""


class InputError(ValueError):
    """Malformed document, dimension mismatch, or violated precondition."""


class NotElliptic(InputError):
    """Model is not elliptic where ellipticity is required.

    Carries the offending eigenvalue when one is known.
    """

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class NearBoundary(InputError):
    """Requested evaluation point is outside the leaf or too close to it."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class NumericalError(RuntimeError):
    """A numerical procedure failed on input that passed validation."""


class NumericalFailure(NumericalError):
    """A result failed its own check: a residual over its bound or a non-finite value."""


class LeafSolveError(NumericalError):
    """Newton iteration for a leaf parametrization did not converge."""
