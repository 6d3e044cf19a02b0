"""Parameterized two-qutrit state families.

Three families appear throughout:

* the three-parameter mixture rho_{alpha,beta,gamma} of the maximally mixed
  state with Bell projectors (Bell-diagonal, closed-form spectrum),
* the one-parameter Horodecki line rho_b, 0 <= b <= 5, which embeds into the
  three-parameter family at alpha=(6-b)/21, beta=-2b/21, gamma=(5-2b)/7,
* the segment from any state toward the maximally mixed state.

The three-parameter family is defined once, by its Bell weights
(rho = sum_k w_k P_k); the weights-to-matrix map, the PT minimum from one
3x3 block and the Bell traces of witnesses live here with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .operators import PSD_TOL, BipartiteOperator, DensityMatrix, _pt_array
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

# |00>, |12>, |21>: the product states with (i + j) mod 3 = 0
_PT_BLOCK = np.array([0, 5, 7])


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
def _bell_stack() -> np.ndarray:
    """The 9 two-qutrit Bell projectors, P_{n,m} at index 3n + m."""
    stack = np.array([bell_projector(3, (n, m)).entries
                      for n in range(3) for m in range(3)])
    stack.setflags(write=False)
    return stack


def _bell_diagonal(weights) -> np.ndarray:
    """sum_k w_k P_k: one 9x9 matrix for weights of shape (9,), a stack of
    them for shape (N, 9)."""
    flat = weights @ _bell_stack().reshape(9, 81)
    return flat.reshape(*weights.shape[:-1], 9, 9)


@lru_cache(maxsize=None)
def _pt_block_table() -> np.ndarray:
    """B[k] = block of P_k^Gamma on |00>, |12>, |21>, flattened to (9, 9).

    For rho = sum_k w_k P_k the block of rho^Gamma is (w @ B).reshape(3, 3),
    and its spectrum is that of the whole 9x9 rho^Gamma, three times over.
    Each P_k is invariant under U (x) U* for every Weyl U, so rho^Gamma
    (transposed on subsystem 2) commutes with every U (x) U.  The phase pair
    U_{1,0} (x) U_{1,0} multiplies |ij> by exp(-2 pi i (i + j)/3), so
    rho^Gamma splits into three 3x3 blocks by (i + j) mod 3.  The shift pair
    U_{0,1} (x) U_{0,1} maps |ij> to |i+1, j+1>, i.e. block s onto block
    s + 2, so it carries the blocks unitarily onto one another and all three
    have the same spectrum.
    """
    pt = _pt_array(_bell_stack(), 3, 3, 2)
    table = pt[:, _PT_BLOCK[:, None], _PT_BLOCK].reshape(9, 9)
    table.setflags(write=False)
    return table


def _pt_minimum(weights: np.ndarray) -> np.ndarray:
    """Minimum PT eigenvalue of each sum_k w_k P_k, weights of shape (N, 9),
    from one 3x3 block (`_pt_block_table`)."""
    blocks = np.vecdot(weights[:, None, :], _pt_block_table().T)
    return np.linalg.eigvalsh(blocks.reshape(-1, 3, 3))[:, 0]


def _bell_traces(entries: np.ndarray) -> np.ndarray:
    """t_k = Tr(P_k W), so that Tr(rho W) = w . t for rho = sum_k w_k P_k."""
    traces = np.vecdot(_bell_stack().reshape(9, 81), entries.ravel()).real
    traces.setflags(write=False)
    return traces


def _family_weights(alpha, beta, gamma):
    """Bell weights of the family, w[..., 3n + m] on P_{n,m}: shape (9,) for
    scalar parameters, (N, 9) for parameters that broadcast to length N.

    These are the closed-form eigenvalues: (1-alpha-beta-gamma)/9 plus alpha
    on P00, beta/2 on P10 and P20, gamma/3 on P01, P11 and P21.
    """
    base = (1.0 - alpha - beta - gamma) / 9.0
    # each entry carries base, hence the full broadcast shape
    a, b, g = base + alpha, base + beta / 2.0, base + gamma / 3.0
    return np.array([a, g, base, b, g, base, b, g, base]).T


def simplex_state(params, psd_tol: float = PSD_TOL) -> SimplexState:
    """Two-qutrit state (1-a-b-g)/9 * 1 + a P00 + b/2 (P10+P20) + g/3 (P01+P11+P21).

    Always unit trace.  `valid` records whether the closed-form spectrum is
    nonnegative within `psd_tol`; the minimum eigenvalue comes along either
    way.
    """
    params = SimplexParams(*map(float, params))
    weights = _family_weights(*params)
    min_eig = weights.min()
    return SimplexState(
        params=params,
        op=BipartiteOperator(3, 3, _bell_diagonal(weights)),
        min_eigenvalue=float(min_eig),
        valid=bool(min_eig >= -psd_tol),
    )


def simplex_spectrum(params) -> np.ndarray:
    """Closed-form spectrum of the three-parameter family, ascending.

    The family is Bell-diagonal, so the eigenvalues are the Bell-projector
    weights: e+alpha (x1), e+beta/2 (x2), e+gamma/3 (x3) and e (x3) with
    e = (1-alpha-beta-gamma)/9.
    """
    return np.sort(_family_weights(*map(float, params)))


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
