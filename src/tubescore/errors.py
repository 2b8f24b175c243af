"""Exception taxonomy for geometric and numerical failure modes."""


class TubescoreError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(TubescoreError):
    """Invalid or inconsistent run configuration."""


class ManifoldMismatch(TubescoreError):
    """An operand does not live on the manifold it is used with."""


class UnsupportedManifold(TubescoreError):
    """Requested operation is not provided for this manifold."""


class BeyondInjectivity(TubescoreError):
    """Tangent vector is too long for a well-defined exponential-map inverse."""


class QuadratureNotConverged(TubescoreError):
    """Quadrature refinement hit the node cap before reaching the requested tolerance."""


class DegenerateScore(TubescoreError):
    """Score magnitude at the probe point is too small for a stable projection."""


class EmptyWindow(TubescoreError):
    """No samples received positive kernel weight at the probe point."""


class NonFiniteResult(TubescoreError):
    """A result about to be written is NaN or infinite."""
