"""Geometric entanglement witnesses and their certification.

A geometric witness is the tangent-hyperplane operator

    C = sigma - rho - <sigma, sigma - rho> 1

built from a reference state sigma and a target state rho.  By construction
<sigma, C> = 0 and <rho, C> = -||sigma - rho||^2 (or -||sigma - rho|| after
normalizing by the distance).

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
    PSD_TOL,
    BipartiteOperator,
    DensityMatrix,
    hs_inner,
    hs_norm,
)
from .families import (SimplexParams, horodecki_state, line_state,
                       simplex_state, _family_weights, _pt_minimum)
from .weyl import weyl_expand

__all__ = [
    "GeometricWitness",
    "WitnessCertificate",
    "DetectionProfile",
    "LineWitnessCoefficients",
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

_COEFF_ZERO_TOL = 1e-12


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
    """Witness candidate C = sigma - rho - <sigma, sigma - rho> 1.

    Parameters
    ----------
    sigma : DensityMatrix
        Reference state; the hyperplane passes through it.
    rho : DensityMatrix
        Target state, on the negative side of the hyperplane.
    normalize : bool
        Divide by ||sigma - rho||, so that <rho, C> = -||sigma - rho||.

    Raises ValueError when sigma == rho (no hyperplane exists).
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


def certify_witness(w, zero_tol: float = _COEFF_ZERO_TOL) -> WitnessCertificate:
    """Check the Weyl-coefficient criterion on a Hermitian operator.

    The operator is in certifiable form when its expansion is supported on
    the identity plus pairs ((n,m), (-n mod d, m)) only, with a positive
    identity coefficient.  The leading scale is a = (identity
    coefficient)/(d-1), the table entries are the paired coefficients
    divided by a, and certification requires max |c| <= 1 + 1e-12.
    """
    op = w.op if isinstance(w, GeometricWitness) else w
    if isinstance(op, DensityMatrix):
        op = op.op
    if not op.is_hermitian(1e-10):
        raise ValueError("certification requires a Hermitian operator")
    expansion = weyl_expand(op)
    d = expansion.d
    coeffs = expansion.coeffs

    id_coeff = coeffs[0, 0, 0, 0]
    a = id_coeff.real / (d - 1)

    c_table = np.zeros((d, d), dtype=complex)
    off_form = abs(id_coeff.imag)
    for n in range(d):
        for m in range(d):
            if n == 0 and m == 0:
                off = np.abs(coeffs[0, 0]).copy()
                off[0, 0] = 0.0
                off_form = max(off_form, off.max())
                continue
            partner = ((-n) % d, m)
            paired = coeffs[n, m, partner[0], partner[1]]
            if a > 0:
                c_table[n, m] = paired / a
            off = np.abs(coeffs[n, m]).copy()
            off[partner] = 0.0
            off_form = max(off_form, off.max())

    in_form = bool(off_form <= zero_tol and id_coeff.real > 0)
    max_abs_c = float(np.abs(c_table).max())
    certified = bool(in_form and max_abs_c <= 1.0 + 1e-12)
    c_table.setflags(write=False)
    return WitnessCertificate(
        in_certifiable_form=in_form,
        a=float(a),
        c_table=c_table,
        max_abs_c=max_abs_c,
        certified=certified,
        off_form_residual=float(off_form),
    )


@lru_cache(maxsize=None)
def region_witnesses() -> tuple[GeometricWitness, GeometricWitness]:
    """The two certified witnesses of the gamma = 0 slice.

    Built from canonical (nearest separable state, entangled state) pairs,
    one per region; both carry normalization ||sigma - rho||, so their
    expectation on an entangled slice state is minus its distance measure.
    In Weyl form they read (2*1 -/+ U1 - U2)/(6 sqrt 2).
    """
    rho_one = simplex_state(SimplexParams(0.5, 0.0, 0.0)).density()
    sigma_one = simplex_state(SimplexParams(0.25, 0.0, 0.0)).density()
    rho_two = simplex_state(SimplexParams(0.0, 0.8, 0.0)).density()
    sigma_two = simplex_state(SimplexParams(1 / 12, 7 / 15, 0.0)).density()
    return (
        geometric_witness(sigma_one, rho_one, normalize=True),
        geometric_witness(sigma_two, rho_two, normalize=True),
    )


def _measure_values(alpha: float, beta: float) -> tuple[float, float]:
    d_one = 2 * math.sqrt(2) / 3 * (alpha - 0.25 - beta / 8)
    d_two = math.sqrt(2) / 3 * (-alpha - 0.5 + 1.25 * beta)
    return d_one, d_two


def _gamma0_pt_minimum(alpha: float, beta: float, psd_tol: float) -> float:
    weights = _family_weights(alpha, beta, 0.0)
    min_eig = weights.min()
    if not min_eig >= -psd_tol:
        raise ValueError(
            f"({alpha}, {beta}, 0) is not a state: min eigenvalue "
            f"{min_eig:.3e}"
        )
    return float(_pt_minimum(weights[None])[0])


def _gamma0_measure(alpha: float, beta: float) -> tuple[float, str]:
    """(distance measure, region) of a valid NPT point of the gamma = 0 slice."""
    # the distance formulas are positive exactly on their own region; both
    # positive cannot happen for valid states, smaller distance would win
    d_one, d_two = _measure_values(alpha, beta)
    if d_one <= 0 and d_two <= 0:
        raise ValueError(
            f"NPT state ({alpha}, {beta}) outside both region formulas"
        )
    return (d_one, "I") if d_one >= d_two else (d_two, "II")


def nearest_separable_gamma0(alpha: float, beta: float,
                             psd_tol: float = PSD_TOL):
    """Nearest separable state to an NPT point of the gamma = 0 slice.

    On this slice the PPT states coincide with the separable states, and the
    nearest point has the closed form (1/4 + beta/8, beta) in region I and
    ((-2 + 20 alpha + 5 beta)/24, (2 + 4 alpha + beta)/6) in region II.

    Returns (SimplexParams, region) with region "I" or "II".  Rejects inputs
    that are not PSD or that are already PPT.
    """
    pt_min = _gamma0_pt_minimum(alpha, beta, psd_tol)
    if pt_min >= -psd_tol:
        raise ValueError(
            "state is PPT, hence separable on this slice; distance 0"
        )
    _, region = _gamma0_measure(alpha, beta)
    if region == "I":
        params = SimplexParams(0.25 + beta / 8, beta, 0.0)
    else:
        params = SimplexParams(
            (-2 + 20 * alpha + 5 * beta) / 24, (2 + 4 * alpha + beta) / 6, 0.0
        )
    return params, region


def hs_measure_gamma0(alpha: float, beta: float,
                      psd_tol: float = PSD_TOL) -> tuple[float, str]:
    """Distance to the separable set on the gamma = 0 slice, with region label.

    Equals the norm distance to the nearest separable state and minus the
    expectation of the matching region witness.  PPT inputs return
    (0.0, "separable"); non-PSD inputs are rejected.
    """
    pt_min = _gamma0_pt_minimum(alpha, beta, psd_tol)
    if pt_min >= -psd_tol:
        return 0.0, "separable"
    return _gamma0_measure(alpha, beta)


def line_witness_coefficients(gamma: float, lam: float) -> LineWitnessCoefficients:
    """Closed-form (a, c1, c2) of the line witness, any gamma, lambda > 0.

    a = (1 + 3 gamma^2)/36 * lambda (1 - lambda),
    c1 = -8 / (7 lambda (1 + 3 gamma^2)),
    c2 = 2 (1 - 7 sqrt(3) gamma i) / (7 lambda (1 + 3 gamma^2)).
    """
    if lam <= 0:
        raise ValueError("lambda must be positive; coefficients diverge at 0")
    denom = 1.0 + 3.0 * gamma * gamma
    a = -denom / 36.0 * lam * (lam - 1.0)
    c1 = -8.0 / (7.0 * lam * denom)
    c2 = 2.0 * (1.0 - 7.0 * math.sqrt(3.0) * gamma * 1j) / (7.0 * lam * denom)
    return LineWitnessCoefficients(a=a, c1=c1, c2=c2)


def _gamma_window_ok(gamma: float, tol: float = 1e-12) -> bool:
    return 1 / 7 < abs(gamma) <= 3 / 7 + tol


def line_witness(gamma: float, lam: float):
    """Witness along the segment from a PPT Horodecki anchor to 1/9.

    The anchor is the Horodecki state at b = (5 - 7 gamma)/2, so gamma must
    lie in the PPT window [-3/7, -1/7) or (1/7, 3/7] (the negative window
    anchors at the known PPT-entangled states; the positive window is its
    mirror slice).  Requires 0 < lambda <= 1; at lambda = 1 the operator
    degenerates to zero.

    Returns (GeometricWitness, LineWitnessCoefficients); the witness is
    unnormalized, matching the closed form a(2*1 + c1 U1 + c2 U2I + c2* U2II).
    """
    if not _gamma_window_ok(gamma):
        raise ValueError(
            f"gamma={gamma} outside the anchor windows [-3/7, -1/7) and (1/7, 3/7]"
        )
    lam = float(lam)
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lambda={lam} outside (0, 1]")
    coeffs = line_witness_coefficients(gamma, lam)
    anchor = horodecki_state((5.0 - 7.0 * gamma) / 2.0)
    reference = line_state(anchor, lam)
    if lam == 1.0:
        # segment endpoint: reference == anchor, the hyperplane degenerates
        op = BipartiteOperator(3, 3, np.zeros((9, 9)))
        witness = GeometricWitness(op=op, reference=reference, target=anchor,
                                   normalization=1.0)
    else:
        witness = geometric_witness(reference, anchor, normalize=False)
    return witness, coeffs


def detection_profile(gamma: float) -> DetectionProfile:
    """Solve |c1| = 1 and |c2| = 1 for lambda at fixed gamma.

    Both moduli fall off as 1/lambda, so the roots are unique:
    lambda_1 = 8/(7 (1+3 gamma^2)) and
    lambda_2 = 2 sqrt(1 + 147 gamma^2)/(7 (1+3 gamma^2)).
    Detection (lambda_min < 1) happens exactly for |gamma| > 1/sqrt(21).
    """
    if gamma == 0:
        raise ValueError("gamma must be nonzero (anchor would be the gamma=0 slice)")
    if abs(gamma) > 3 / 7 + 1e-12:
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
