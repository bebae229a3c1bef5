"""Exception types shared across the package."""


class BregoptError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(BregoptError, ValueError):
    """An array argument has the wrong shape for the target manifold."""


class FeasibilityError(BregoptError, ValueError):
    """A point violates the manifold constraint beyond tolerance."""


class RetractionError(BregoptError, ValueError):
    """Degenerate retraction input (e.g. zero sum on the sphere, or a
    rank-deficient matrix for the QR retraction)."""


class TransportError(BregoptError, ValueError):
    """Vector transport is undefined between the given points (e.g.
    antipodal points on the sphere)."""


class SingularTimeError(BregoptError, ValueError):
    """The time-position coordinate of an extended state is non-positive,
    which puts the time-dependent Hamiltonian outside its domain."""


class NewtonError(BregoptError, RuntimeError):
    """A Lagrange-multiplier solve found no multiplier that puts the step
    back on the manifold, within its residual tolerance.

    Attributes:
        residual_norm: infinity norm of the residual at the last iterate.
        iterations: number of iterations performed.
    """

    def __init__(self, message, residual_norm=None, iterations=None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


class ConfigError(BregoptError, ValueError):
    """A benchmark configuration file is malformed or inconsistent."""
