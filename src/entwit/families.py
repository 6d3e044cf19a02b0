"""Parameterized two-qutrit state families.

Three families appear throughout:

* the three-parameter mixture rho_{alpha,beta,gamma} of the maximally mixed
  state with Bell projectors (Bell-diagonal, closed-form spectrum),
* the one-parameter Horodecki line rho_b, 0 <= b <= 5, which embeds into the
  three-parameter family at alpha=(6-b)/21, beta=-2b/21, gamma=(5-2b)/7,
* the segment from any state toward the maximally mixed state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .operators import PSD_TOL, BipartiteOperator, DensityMatrix
from .weyl import bell_projector, max_entangled

__all__ = [
    "SimplexParams",
    "SimplexState",
    "simplex_state",
    "simplex_spectrum",
    "horodecki_state",
    "horodecki_to_simplex",
    "line_state",
    "gamma_slice_point",
]


class SimplexParams(NamedTuple):
    """Mixing weights (alpha, beta, gamma) of the three-parameter family."""

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True, eq=False)
class SimplexState:
    """A constructed family member, tagged with validity.

    Construction is total: non-positive-semidefinite parameter choices are
    flagged (`valid=False`), never rejected, so parameter sweeps can chart
    the positivity border itself.
    """

    params: SimplexParams
    op: BipartiteOperator = field(repr=False)
    min_eigenvalue: float
    valid: bool

    def density(self, psd_tol: float = PSD_TOL) -> DensityMatrix:
        """The state as a DensityMatrix; raises ValueError when not PSD."""
        return DensityMatrix(self.op, psd_tol=psd_tol)


@lru_cache(maxsize=None)
def _family_blocks():
    ident = np.eye(9, dtype=complex)
    p00 = bell_projector(3, (0, 0)).entries
    pair = bell_projector(3, (1, 0)).entries + bell_projector(3, (2, 0)).entries
    triple = sum(bell_projector(3, (n, 1)).entries for n in range(3))
    return ident, p00, pair, triple


def _family_matrices(alpha, beta, gamma):
    """Family matrices, stacked over the weights' broadcast shape, and their
    closed-form minimum eigenvalues; scalar weights give one 9x9 matrix."""
    ident, p00, pair, triple = _family_blocks()
    outer = np.multiply.outer
    base = (1.0 - alpha - beta - gamma) / 9.0
    half_beta, third_gamma = beta / 2.0, gamma / 3.0
    mats = (outer(base, ident) + outer(alpha, p00) + outer(half_beta, pair)
            + outer(third_gamma, triple))
    min_eigs = base + np.minimum(np.minimum(alpha, half_beta),
                                 np.minimum(third_gamma, 0.0))
    return mats, min_eigs


def simplex_state(params, psd_tol: float = PSD_TOL) -> SimplexState:
    """Two-qutrit state (1-a-b-g)/9 * 1 + a P00 + b/2 (P10+P20) + g/3 (P01+P11+P21).

    Always unit trace.  `valid` records whether the closed-form spectrum is
    nonnegative within `psd_tol`; the minimum eigenvalue comes along either
    way.
    """
    params = SimplexParams(*map(float, params))
    mat, min_eig = _family_matrices(*params)
    return SimplexState(
        params=params,
        op=BipartiteOperator(3, 3, mat),
        min_eigenvalue=float(min_eig),
        valid=bool(min_eig >= -psd_tol),
    )


def simplex_spectrum(params) -> np.ndarray:
    """Closed-form spectrum of the three-parameter family, ascending.

    The family is Bell-diagonal, so the eigenvalues are the Bell-projector
    weights: e+alpha (x1), e+beta/2 (x2), e+gamma/3 (x3) and e (x3) with
    e = (1-alpha-beta-gamma)/9.
    """
    alpha, beta, gamma = params
    e = (1.0 - alpha - beta - gamma) / 9.0
    vals = np.array(
        [e + alpha] + [e + beta / 2.0] * 2 + [e + gamma / 3.0] * 3 + [e] * 3
    )
    return np.sort(vals)


@lru_cache(maxsize=None)
def _sigma_cycles():
    plus = np.zeros((9, 9), dtype=complex)
    minus = np.zeros((9, 9), dtype=complex)
    for i, j in [(0, 1), (1, 2), (2, 0)]:
        plus[3 * i + j, 3 * i + j] = 1 / 3
    for i, j in [(1, 0), (2, 1), (0, 2)]:
        minus[3 * i + j, 3 * i + j] = 1 / 3
    return plus, minus


def horodecki_state(b: float) -> DensityMatrix:
    """One-parameter family 2/7 |phi+><phi+| + b/7 sigma+ + (5-b)/7 sigma-.

    sigma+ mixes |01>,|12>,|20| and sigma- mixes |10>,|21>,|02> uniformly.
    Valid for 0 <= b <= 5; NPT for b < 1 and b > 4, PPT in between.
    """
    b = float(b)
    if not 0.0 <= b <= 5.0:
        raise ValueError(f"b={b} outside the allowed range [0, 5]")
    phi = max_entangled(3)
    p00 = np.outer(phi, phi.conj())
    plus, minus = _sigma_cycles()
    mat = (2 / 7) * p00 + (b / 7) * plus + ((5 - b) / 7) * minus
    return DensityMatrix(BipartiteOperator(3, 3, mat))


def horodecki_to_simplex(b: float) -> SimplexParams:
    """Embedding of the Horodecki line into the three-parameter family."""
    b = float(b)
    if not 0.0 <= b <= 5.0:
        raise ValueError(f"b={b} outside the allowed range [0, 5]")
    return SimplexParams((6 - b) / 21, -2 * b / 21, (5 - 2 * b) / 7)


def line_state(rho: DensityMatrix, lam: float) -> DensityMatrix:
    """Point lam*rho + (1-lam)/D * 1 on the segment toward maximal mixture."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda={lam} outside the segment [0, 1]")
    side = rho.op.dim
    mat = lam * rho.entries + (1 - lam) / side * np.eye(side)
    return DensityMatrix(BipartiteOperator(rho.dim_a, rho.dim_b, mat))


def gamma_slice_point(b: float) -> tuple[float, float]:
    """(alpha, beta) of the PPT-entangled Horodecki point in its gamma slice.

    Defined only on the PPT-entangled window 3 < b <= 4, i.e. gamma =
    (5-2b)/7 in [-3/7, -1/7).  Consistent with horodecki_to_simplex.
    """
    b = float(b)
    if not 3.0 < b <= 4.0:
        raise ValueError(
            f"b={b} outside the PPT-entangled window 3 < b <= 4 "
            "(gamma in [-3/7, -1/7))"
        )
    gamma = (5 - 2 * b) / 7
    return ((1 + gamma) / 6, (-5 + 7 * gamma) / 21)
