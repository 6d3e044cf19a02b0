"""Geometric entanglement witnesses for bipartite qudit states.

A numpy library for two-qutrit entanglement analysis: Weyl operator bases
and Bell projectors, the three-parameter Bell-diagonal state family with the
Horodecki line embedded in it, tangent-hyperplane (geometric) entanglement
witnesses with a sufficient Weyl-coefficient certification, Hilbert-Schmidt
entanglement measures on the gamma = 0 slice, a nearest-PPT projection, and
a seeded separable sampling oracle.  The `entwit` CLI exposes classification,
slice sweeps, detection-threshold scans and a threshold-reproduction battery.
"""

__version__ = "0.1.0"

from .operators import (
    BipartiteOperator,
    DensityMatrix,
    hermitian_spectrum,
    hs_inner,
    hs_norm,
    identity,
    is_positive_semidefinite,
    maximally_mixed,
    operator_from_dict,
    operator_to_dict,
    partial_transpose,
    tensor,
)
from .weyl import WeylExpansion, WeylIndex, bell_projector, max_entangled, weyl, weyl_expand
from .families import (
    SimplexParams,
    SimplexState,
    gamma_slice_point,
    horodecki_state,
    horodecki_to_simplex,
    line_state,
    simplex_spectrum,
    simplex_state,
)
from .witness import (
    DETECTION_GAMMA,
    CROSSING_GAMMA,
    DetectionProfile,
    GeometricWitness,
    LineWitnessCoefficients,
    WitnessCertificate,
    certify_witness,
    detection_profile,
    geometric_witness,
    horodecki_detection_range,
    hs_measure_gamma0,
    line_witness,
    line_witness_coefficients,
    nearest_separable_gamma0,
    region_witnesses,
)
from .ppt import (
    NearestPptResult,
    PptVerdict,
    SamplerConfig,
    classify_ppt,
    min_separable_expectation,
    nearest_ppt,
)

__all__ = [
    "__version__",
    "BipartiteOperator",
    "DensityMatrix",
    "identity",
    "maximally_mixed",
    "hs_inner",
    "hs_norm",
    "tensor",
    "partial_transpose",
    "hermitian_spectrum",
    "is_positive_semidefinite",
    "operator_to_dict",
    "operator_from_dict",
    "WeylIndex",
    "WeylExpansion",
    "weyl",
    "max_entangled",
    "bell_projector",
    "weyl_expand",
    "SimplexParams",
    "SimplexState",
    "simplex_state",
    "simplex_spectrum",
    "horodecki_state",
    "horodecki_to_simplex",
    "line_state",
    "gamma_slice_point",
    "GeometricWitness",
    "WitnessCertificate",
    "DetectionProfile",
    "LineWitnessCoefficients",
    "DETECTION_GAMMA",
    "CROSSING_GAMMA",
    "geometric_witness",
    "certify_witness",
    "region_witnesses",
    "nearest_separable_gamma0",
    "hs_measure_gamma0",
    "line_witness",
    "line_witness_coefficients",
    "detection_profile",
    "horodecki_detection_range",
    "PptVerdict",
    "NearestPptResult",
    "SamplerConfig",
    "classify_ppt",
    "nearest_ppt",
    "min_separable_expectation",
]
