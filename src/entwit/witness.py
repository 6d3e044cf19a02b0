"""Geometric entanglement witnesses and their certification.

A geometric witness is the tangent-hyperplane operator

    C = sigma - rho - <sigma, sigma - rho> 1

built from a reference state sigma and a target state rho.  By construction
<sigma, C> = 0 and <rho, C> = -||sigma - rho||^2 (or -||sigma - rho|| after
normalizing by the distance).  Witnesses of two family states are built
from their Bell weights (`_tangent_traces`).

Certification uses the Weyl-coefficient criterion: an operator of the form

    a ( (d-1) 1 + sum_{n,m} c_{n,m} U_{n,m} (x) U_{-n,m} ),   a > 0,

has nonnegative expectation on every separable state whenever all
|c_{n,m}| <= 1.  The criterion is sufficient only; a failed certification is
inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .operators import (
    CERTIFICATE_SLACK,
    COEFF_ZERO_TOL,
    OPERATOR_HERMITICITY_TOL,
    PSD_TOL,
    BipartiteOperator,
    DensityMatrix,
    _as_operator,
    _hermiticity_defect,
    hs_inner,
    hs_norm,
)
from .families import (SimplexParams, simplex_state, _bell_diagonal,
                       _family_pt_minimum, _family_weights, _horodecki_params)
from .weyl import _weyl_coefficients

__all__ = [
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
]

#: |gamma| below which no point of the segment toward maximal mixture is
#: certifiable: 1/sqrt(21).
DETECTION_GAMMA = 1.0 / math.sqrt(21.0)

#: |gamma| of the deepest certifiable line, where both coefficient moduli
#: cross: sqrt(5)/7.
CROSSING_GAMMA = math.sqrt(5.0) / 7.0

#: Largest |gamma| of a line-witness anchor: 3/7, with a margin for rounding.
_ANCHOR_GAMMA_MAX = 3 / 7 + 1e-12


@dataclass(frozen=True, eq=False)
class GeometricWitness:
    """Tangent-hyperplane operator with its source pair attached.

    `normalization` is ||sigma - rho|| when the operator was divided by the
    state distance, else 1.0.
    """

    op: BipartiteOperator = field(repr=False)
    reference: DensityMatrix = field(repr=False)
    target: DensityMatrix = field(repr=False)
    normalization: float = 1.0


@dataclass(frozen=True, eq=False)
class WitnessCertificate:
    """Outcome of the Weyl-coefficient certification.

    certified=True proves Tr(sigma W) >= 0 for every separable sigma;
    certified=False is inconclusive.  `c_table[n, m]` holds the coefficient
    on U_{n,m} (x) U_{-n,m} relative to the leading scale `a`; the identity
    slot (0, 0) is 0 by convention (absorbed into a*(d-1)).
    """

    in_certifiable_form: bool
    a: float
    c_table: np.ndarray = field(repr=False)
    max_abs_c: float = 0.0
    certified: bool = False
    off_form_residual: float = 0.0

    def to_dict(self) -> dict:
        d = self.c_table.shape[0]
        table = [
            [[float(self.c_table[n, m].real), float(self.c_table[n, m].imag)]
             for m in range(d)]
            for n in range(d)
        ]
        return {
            "in_certifiable_form": self.in_certifiable_form,
            "a": float(self.a),
            "max_abs_c": float(self.max_abs_c),
            "certified": self.certified,
            "off_form_residual": float(self.off_form_residual),
            "c_table": table,
        }


@dataclass(frozen=True)
class DetectionProfile:
    """Certifiability thresholds of the segment toward maximal mixture.

    lambda_1 and lambda_2 solve |c_1| = 1 and |c_2| = 1; both coefficient
    moduli decrease in lambda, so lambda_min = max(lambda_1, lambda_2) is
    the smallest certifiable segment parameter.  `detects` means
    lambda_min < 1, i.e. the certified part of the segment is nonempty.
    """

    gamma: float
    lambda_1: float
    lambda_2: float
    lambda_min: float
    detects: bool

    def to_dict(self) -> dict:
        return {
            "gamma": float(self.gamma),
            "lambda_1": float(self.lambda_1),
            "lambda_2": float(self.lambda_2),
            "lambda_min": float(self.lambda_min),
            "detects": self.detects,
        }


class LineWitnessCoefficients(NamedTuple):
    """Closed-form scale and Weyl coefficients (a, c1, c2) of a line witness."""

    a: float
    c1: float
    c2: complex


def geometric_witness(sigma: DensityMatrix, rho: DensityMatrix,
                      normalize: bool = True) -> GeometricWitness:
    """Witness candidate C = sigma - rho - <sigma, sigma - rho> 1 of any two
    states, as 9x9 matrices: the hyperplane passes through the reference
    sigma and has the target rho on its negative side.  `normalize` divides
    by ||sigma - rho||, so that <rho, C> = -||sigma - rho||.  Raises
    ValueError when sigma == rho (no hyperplane exists).
    """
    diff = sigma.op - rho.op
    dist = hs_norm(diff)
    if dist < 1e-14:
        raise ValueError("reference and target coincide; no hyperplane exists")
    side = diff.dim
    shift = hs_inner(sigma.op, diff).real
    mat = diff.entries - shift * np.eye(side)
    if normalize:
        mat = mat / dist
    return GeometricWitness(
        op=BipartiteOperator(diff.dim_a, diff.dim_b, mat),
        reference=sigma,
        target=rho,
        normalization=dist if normalize else 1.0,
    )


def _certifies(a, max_abs_c):
    """The certificate of a Weyl-form operator with scale a and max |c|,
    elementwise over arrays."""
    return (a > 0) & (max_abs_c <= 1.0 + CERTIFICATE_SLACK)


class _Certificates(NamedTuple):
    """`WitnessCertificate` fields of a stack of N operators, as arrays with
    a leading axis of N."""

    in_certifiable_form: np.ndarray
    a: np.ndarray
    c_table: np.ndarray
    max_abs_c: np.ndarray
    certified: np.ndarray
    off_form_residual: np.ndarray


@lru_cache(maxsize=None)
def _paired_entries(d: int) -> np.ndarray:
    """Flat indices of the paired entries of a d^2 x d^2 coefficient table.

    Row d n + m holds the coefficients of U_{n,m} (x) U_{l,k}; its pair
    sits in column d (-n mod d) + m, and the identity pair comes first.
    """
    rows = np.arange(d * d)
    n, m = np.divmod(rows, d)
    index = rows * d * d + (-n) % d * d + m
    index.setflags(write=False)
    return index


def _certify_stack(mats: np.ndarray, dim_a: int, dim_b: int) -> _Certificates:
    """The Weyl-coefficient criterion on a stack (N, D, D) of operators.

    Each operator goes through the gates of `certify_witness`, which is the
    N=1 case, with the arithmetic of a stack of one: ValueError when any
    operator is not Hermitian within OPERATOR_HERMITICITY_TOL.
    """
    if not _hermiticity_defect(mats) <= OPERATOR_HERMITICITY_TOL:
        raise ValueError("certification requires a Hermitian operator")
    d = dim_a
    coeffs = _weyl_coefficients(mats, dim_a, dim_b).reshape(len(mats), -1)
    pairs = _paired_entries(d)
    paired = coeffs[:, pairs]
    off = np.abs(coeffs)
    off[:, pairs] = 0.0

    id_coeff = paired[:, 0]
    a = id_coeff.real / (d - 1)
    off_form = np.maximum(np.abs(id_coeff.imag), off.max(axis=1))
    positive = a > 0
    c_table = paired / np.where(positive, a, 1.0)[:, None]
    c_table[~positive] = 0.0
    c_table[:, 0] = 0.0

    in_form = (off_form <= COEFF_ZERO_TOL) & (id_coeff.real > 0)
    max_abs_c = np.abs(c_table).max(axis=1)
    return _Certificates(in_form, a, c_table.reshape(-1, d, d), max_abs_c,
                         in_form & _certifies(a, max_abs_c), off_form)


def certify_witness(w) -> WitnessCertificate:
    """Check the Weyl-coefficient criterion on a Hermitian operator.

    The operator is in certifiable form when its expansion is supported on
    the identity plus pairs ((n,m), (-n mod d, m)) only, with a positive
    identity coefficient.  The leading scale is a = (identity
    coefficient)/(d-1), the table entries are the paired coefficients
    divided by a, off-form coefficients must be within COEFF_ZERO_TOL of 0,
    and certification requires max |c| <= 1 + CERTIFICATE_SLACK.  The N=1
    case of `_certify_stack`.
    """
    op = _as_operator(w)
    stack = _certify_stack(op.entries[None], op.dim_a, op.dim_b)
    c_table = stack.c_table[0]
    c_table.setflags(write=False)
    return WitnessCertificate(
        in_certifiable_form=bool(stack.in_certifiable_form[0]),
        a=float(stack.a[0]),
        c_table=c_table,
        max_abs_c=float(stack.max_abs_c[0]),
        certified=bool(stack.certified[0]),
        off_form_residual=float(stack.off_form_residual[0]),
    )


def _tangent_traces(reference: SimplexParams, target: SimplexParams,
                    normalize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(t, ||sigma - rho||) of the tangent witness sum_k t_k P_k of two family
    states with Bell weights s and r: t = s - r - s . (s - r), over the
    distance when `normalize`, since the P_k are orthonormal and sum to 1.

    Parameters that broadcast to N pairs give traces (N, 9) and N distances,
    each with the dot products of one pair: the weight rows are made
    contiguous, since `np.vecdot` sums a strided row in another order."""
    s = np.ascontiguousarray(_family_weights(*reference))
    diff = np.ascontiguousarray(s - _family_weights(*target))
    dist = np.sqrt(np.vecdot(diff, diff))
    traces = diff - np.vecdot(s, diff)[..., None]
    return (traces / dist[..., None] if normalize else traces), dist


def _family_witness(reference: SimplexParams, target: SimplexParams,
                    normalize: bool) -> GeometricWitness:
    """`geometric_witness` of two family states, from `_tangent_traces`."""
    traces, dist = _tangent_traces(reference, target, normalize)
    return GeometricWitness(BipartiteOperator(3, 3, _bell_diagonal(traces)),
                            simplex_state(reference).density(),
                            simplex_state(target).density(),
                            dist if normalize else 1.0)


# (nearest separable state, entangled state) of the gamma = 0 region witnesses
_REGION_PAIRS = ((SimplexParams(0.25, 0.0, 0.0), SimplexParams(0.5, 0.0, 0.0)),
                 (SimplexParams(1 / 12, 7 / 15, 0.0),
                  SimplexParams(0.0, 0.8, 0.0)))


@lru_cache(maxsize=None)
def region_witnesses() -> tuple[GeometricWitness, GeometricWitness]:
    """The two certified witnesses of the gamma = 0 slice.

    Built from canonical (nearest separable state, entangled state) pairs,
    one per region; both carry normalization ||sigma - rho||, so their
    expectation on an entangled slice state is minus its distance measure.
    In Weyl form they read (2*1 -/+ U1 - U2)/(6 sqrt 2).
    """
    return tuple(_family_witness(sigma, rho, True)
                 for sigma, rho in _REGION_PAIRS)


def _measure_values(alpha: float, beta: float) -> tuple[float, float]:
    d_one = 2 * math.sqrt(2) / 3 * (alpha - 0.25 - beta / 8)
    d_two = math.sqrt(2) / 3 * (-alpha - 0.5 + 1.25 * beta)
    return d_one, d_two


def _gamma0_pt_minimum(alpha: float, beta: float) -> float:
    weights = _family_weights(alpha, beta, 0.0)
    min_eig = weights.min()
    if not min_eig >= -PSD_TOL:
        raise ValueError(
            f"({alpha}, {beta}, 0) is not a state: min eigenvalue "
            f"{min_eig:.3e}"
        )
    return float(_family_pt_minimum(alpha, beta, 0.0))


def _gamma0_nearest(alpha, beta):
    """(measure, in region I, nearest alpha, nearest beta) of NPT points of
    the gamma = 0 slice, elementwise over arrays.

    The measure is the larger of the two region distances, each positive
    exactly on its own region; the nearest separable point is
    (1/4 + beta/8, beta) in region I and
    ((-2 + 20 alpha + 5 beta)/24, (2 + 4 alpha + beta)/6) in region II.
    ValueError for a point outside both region formulas.
    """
    d_one, d_two = _measure_values(alpha, beta)
    outside = np.flatnonzero((d_one <= 0) & (d_two <= 0))
    if outside.size:
        k = outside[0]
        raise ValueError(f"NPT state ({np.ravel(alpha)[k]}, "
                         f"{np.ravel(beta)[k]}) outside both region formulas")
    region_one = d_one >= d_two
    return (np.where(region_one, d_one, d_two), region_one,
            np.where(region_one, 0.25 + beta / 8,
                     (-2 + 20 * alpha + 5 * beta) / 24),
            np.where(region_one, beta, (2 + 4 * alpha + beta) / 6))


def nearest_separable_gamma0(alpha: float, beta: float):
    """Nearest separable state to an NPT point of the gamma = 0 slice.

    On this slice the PPT states coincide with the separable states, and the
    nearest point has the closed form of `_gamma0_nearest`.

    Returns (SimplexParams, region) with region "I" or "II".  Rejects inputs
    that are not PSD or that are already PPT.
    """
    if _gamma0_pt_minimum(alpha, beta) >= -PSD_TOL:
        raise ValueError(
            "state is PPT, hence separable on this slice; distance 0"
        )
    _, region_one, near_alpha, near_beta = _gamma0_nearest(alpha, beta)
    return (SimplexParams(float(near_alpha), float(near_beta), 0.0),
            "I" if region_one else "II")


def hs_measure_gamma0(alpha: float, beta: float) -> tuple[float, str]:
    """Distance to the separable set on the gamma = 0 slice, with region label.

    Equals the norm distance to the nearest separable state and minus the
    expectation of the matching region witness.  PPT inputs return
    (0.0, "separable"); non-PSD inputs are rejected.
    """
    if _gamma0_pt_minimum(alpha, beta) >= -PSD_TOL:
        return 0.0, "separable"
    measure, region_one, _, _ = _gamma0_nearest(alpha, beta)
    return float(measure), "I" if region_one else "II"


def line_witness_coefficients(gamma: float, lam: float) -> LineWitnessCoefficients:
    """Closed-form (a, c1, c2) of the line witness, any gamma, lambda > 0;
    elementwise over arrays that broadcast.

    a = (1 + 3 gamma^2)/36 * lambda (1 - lambda),
    c1 = -8 / (7 lambda (1 + 3 gamma^2)),
    c2 = 2 (1 - 7 sqrt(3) gamma i) / (7 lambda (1 + 3 gamma^2)).
    """
    if (np.asarray(lam) <= 0).any():
        raise ValueError("lambda must be positive; coefficients diverge at 0")
    denom = 1.0 + 3.0 * gamma * gamma
    a = -denom / 36.0 * lam * (lam - 1.0)
    c1 = -8.0 / (7.0 * lam * denom)
    c2 = 2.0 * (1.0 - 7.0 * math.sqrt(3.0) * gamma * 1j) / (7.0 * lam * denom)
    return LineWitnessCoefficients(a=a, c1=c1, c2=c2)


def _line_pair(gamma, lam) -> tuple[SimplexParams, SimplexParams]:
    """(reference, anchor) of the line witness: the Horodecki state at
    b = (5 - 7 gamma)/2 and the family member at lam times its parameters,
    lam*anchor + (1-lam)/9 * 1; rejects gamma and lambda as `line_witness`.
    Elementwise over arrays that broadcast, naming the first rejected one."""
    # a scalar becomes a numpy scalar, whose arithmetic is cheaper than a
    # 0-d array's
    gamma = np.asarray(gamma, dtype=float)[()]
    lam = np.asarray(lam, dtype=float)[()]
    magnitude = abs(gamma)
    gamma_inside = (1 / 7 < magnitude) & (magnitude <= _ANCHOR_GAMMA_MAX)
    lam_inside = (0.0 < lam) & (lam <= 1.0)
    if not (gamma_inside & lam_inside).all():
        if not gamma_inside.all():
            raise ValueError(
                f"gamma={np.extract(~gamma_inside, gamma)[0]} outside the "
                "anchor windows [-3/7, -1/7) and (1/7, 3/7]"
            )
        raise ValueError(
            f"lambda={np.extract(~lam_inside, lam)[0]} outside (0, 1]")
    anchor = _horodecki_params((5.0 - 7.0 * gamma) / 2.0)
    return SimplexParams(*(lam * x for x in anchor)), anchor


def line_witness(gamma: float, lam: float):
    """Witness along the segment from a PPT Horodecki anchor to 1/9.

    The anchor is the Horodecki state at b = (5 - 7 gamma)/2, so gamma must
    lie in the PPT window [-3/7, -1/7) or (1/7, 3/7] (the negative window
    anchors at the known PPT-entangled states; the positive window is its
    mirror slice).  Requires 0 < lambda <= 1; at lambda = 1 the reference
    is the anchor and the operator is exactly zero.

    Returns (GeometricWitness, LineWitnessCoefficients); the witness is
    unnormalized, matching the closed form a(2*1 + c1 U1 + c2 U2I + c2* U2II).
    """
    return (_family_witness(*_line_pair(gamma, lam), False),
            line_witness_coefficients(gamma, lam))


def detection_profile(gamma: float) -> DetectionProfile:
    """Solve |c1| = 1 and |c2| = 1 for lambda at fixed gamma.

    Both moduli fall off as 1/lambda, so the roots are unique:
    lambda_1 = 8/(7 (1+3 gamma^2)) and
    lambda_2 = 2 sqrt(1 + 147 gamma^2)/(7 (1+3 gamma^2)).
    Detection (lambda_min < 1) happens exactly for |gamma| > 1/sqrt(21).
    """
    if gamma == 0:
        raise ValueError("gamma must be nonzero (anchor would be the gamma=0 slice)")
    if abs(gamma) > _ANCHOR_GAMMA_MAX:
        raise ValueError(f"|gamma|={abs(gamma)} outside the PPT anchor window (<= 3/7)")
    denom = 7.0 * (1.0 + 3.0 * gamma * gamma)
    lambda_1 = 8.0 / denom
    lambda_2 = 2.0 * math.sqrt(1.0 + 147.0 * gamma * gamma) / denom
    lambda_min = max(lambda_1, lambda_2)
    return DetectionProfile(
        gamma=float(gamma),
        lambda_1=lambda_1,
        lambda_2=lambda_2,
        lambda_min=lambda_min,
        detects=bool(lambda_min < 1.0),
    )


def horodecki_detection_range() -> tuple[tuple[float, float], tuple[float, float]]:
    """Horodecki b-intervals whose states the line witnesses certify as entangled.

    Returns ([1, (15 - sqrt 21)/6), ((15 + sqrt 21)/6, 4]); the interior of
    each interval maps through gamma = (5 - 2b)/7 to a detecting profile.
    """
    root = math.sqrt(21.0)
    return ((1.0, (15.0 - root) / 6.0), ((15.0 + root) / 6.0, 4.0))
