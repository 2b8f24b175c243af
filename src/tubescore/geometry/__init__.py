"""Exact geometric primitives for the supported embedded manifolds."""
from .base import Manifold, wrap_angle
from .curvature import CurvatureBundle
from .plane import AffinePlane
from .quadrature import gauss_legendre
from .sphere import Sphere
from .torus import FlatTorus

__all__ = [
    "AffinePlane",
    "CurvatureBundle",
    "FlatTorus",
    "Manifold",
    "Sphere",
    "gauss_legendre",
    "wrap_angle",
]
