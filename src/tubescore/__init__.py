"""Score targets, quadrature oracles and estimators on embedded manifolds."""

__version__ = "0.1.0"

from . import errors
from .geometry import (
    AffinePlane,
    CurvatureBundle,
    FlatTorus,
    Manifold,
    Sphere,
)
from .densities import (
    DensityModel,
    IsotropicGaussian,
    ProductVonMises,
    SphereTMarginal,
    Uniform,
    VonMisesFisher,
)
from .targets import (
    CorruptedBatch,
    corrupt,
    flat_reduction_residuals,
)
from .oracle import (
    FiberPosterior,
    RBOracle,
    ZonalTarget,
    conditional_target,
    extract_extrinsic_coefficient,
    extrinsic_term,
    predicted_expansion,
    surrogate_factors,
)
from .estimators import (
    binned_means,
    coarsening_check,
    epanechnikov,
    equal_mass_bins,
    local_average,
    optimal_bandwidth,
    probe_points,
    projected_risk,
)
from .langevin import (
    ChainConfig,
    marginal_diagnostic,
    run_chains,
    two_sample_ks,
)

__all__ = [
    "AffinePlane",
    "ChainConfig",
    "CorruptedBatch",
    "CurvatureBundle",
    "DensityModel",
    "FiberPosterior",
    "FlatTorus",
    "IsotropicGaussian",
    "Manifold",
    "ProductVonMises",
    "RBOracle",
    "Sphere",
    "SphereTMarginal",
    "Uniform",
    "VonMisesFisher",
    "ZonalTarget",
    "__version__",
    "binned_means",
    "coarsening_check",
    "conditional_target",
    "corrupt",
    "epanechnikov",
    "equal_mass_bins",
    "errors",
    "extract_extrinsic_coefficient",
    "extrinsic_term",
    "flat_reduction_residuals",
    "local_average",
    "marginal_diagnostic",
    "optimal_bandwidth",
    "predicted_expansion",
    "probe_points",
    "projected_risk",
    "run_chains",
    "surrogate_factors",
    "two_sample_ks",
]
