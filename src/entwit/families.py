"""Parameterized two-qutrit state families.

Three families appear throughout:

* the three-parameter mixture rho_{alpha,beta,gamma} of the maximally mixed
  state with Bell projectors (Bell-diagonal, closed-form spectrum),
* the one-parameter Horodecki line rho_b, 0 <= b <= 5, the member at
  alpha=(6-b)/21, beta=-2b/21, gamma=(5-2b)/7,
* the segment lam*rho + (1-lam)/9 * 1 toward the maximally mixed state,
  the member at lam*(alpha, beta, gamma).

The family is defined once, by its Bell weights (rho = sum_k w_k P_k), and
every family state is built from them; the weights-to-matrix map, the PT
minimum of general weights from one 3x3 block and its closed form on the
family live here with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .operators import PSD_TOL, BipartiteOperator, DensityMatrix, _pt_array
from .weyl import _bell_stack

__all__ = [
    "SimplexParams",
    "SimplexState",
    "simplex_state",
    "simplex_spectrum",
    "horodecki_state",
    "horodecki_to_simplex",
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


def _bell_diagonal(weights) -> np.ndarray:
    """sum_k w_k P_k: one 9x9 matrix for weights of shape (9,), a stack of
    them for shape (N, 9).

    Summed elementwise in index order, so a row of a stack is bit for bit
    the matrix of its weights alone; a matrix product sums in an order that
    depends on the shape.
    """
    weights = weights[..., None, None]
    projectors = _bell_stack(3)
    mats = weights[..., 0, :, :] * projectors[0]
    for k in range(1, 9):
        mats += weights[..., k, :, :] * projectors[k]
    return mats


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
    pt = _pt_array(_bell_stack(3), 3, 3, 2)
    table = pt[:, _PT_BLOCK[:, None], _PT_BLOCK].reshape(9, 9)
    table.setflags(write=False)
    return table


def _pt_minimum(weights: np.ndarray) -> np.ndarray:
    """Minimum PT eigenvalue of each sum_k w_k P_k, weights of shape (N, 9),
    from one 3x3 block (`_pt_block_table`)."""
    blocks = np.vecdot(weights[:, None, :], _pt_block_table().T)
    return np.linalg.eigvalsh(blocks.reshape(-1, 3, 3))[:, 0]


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


def _family_pt_minimum(alpha, beta, gamma):
    """Minimum PT eigenvalue of the family member, elementwise over
    parameters that broadcast; exact, with no eigensolve.

    With the weights of `_family_weights` (a on P00, b on P10 and P20, g on
    P01, P11 and P21, e = (1-alpha-beta-gamma)/9 on P02, P12 and P22), the
    block of `_pt_block_table` on |00>, |12>, |21> is

        [[(a + 2b)/3, 0,         0        ],
         [0,          e,         (a - b)/3],
         [0,          (a - b)/3, g        ]].

    Its (0, 1) and (0, 2) entries are g (1 + w + conj w)/3 and
    e (1 + conj w + w)/3 with w = exp(2 pi i/3), so they vanish, and the
    (1, 2) entry (a + b (w + conj w))/3 = (a - b)/3 is real: the block
    splits into a 1x1 block e + (alpha + beta)/3 and a real symmetric 2x2
    block with mean e + gamma/6, half-gap gamma/6 and off-diagonal
    (alpha - beta/2)/3.
    The minimum is the smaller of the 1x1 entry and the 2x2 block's lower
    eigenvalue.
    """
    base = (1.0 - alpha - beta - gamma) / 9.0
    return np.minimum(base + (alpha + beta) / 3.0,
                      base + gamma / 6.0
                      - np.hypot(gamma / 6.0, (alpha - beta / 2.0) / 3.0))


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
    """Closed-form spectrum of the three-parameter family, ascending: shape
    (9,) for one (alpha, beta, gamma), (N, 9) for parameters of shape (N, 3).

    The family is Bell-diagonal, so the eigenvalues are the Bell-projector
    weights: e+alpha (x1), e+beta/2 (x2), e+gamma/3 (x3) and e (x3) with
    e = (1-alpha-beta-gamma)/9.
    """
    params = np.asarray(params, dtype=float)
    return np.sort(_family_weights(*np.moveaxis(params, -1, 0)), axis=-1)


def _horodecki_params(b) -> SimplexParams:
    """The family parameters of the Horodecki member at b, elementwise over
    an array of b."""
    return SimplexParams((6 - b) / 21, -2 * b / 21, (5 - 2 * b) / 7)


def horodecki_to_simplex(b: float) -> SimplexParams:
    """Embedding of the Horodecki line into the three-parameter family."""
    b = float(b)
    if not 0.0 <= b <= 5.0:
        raise ValueError(f"b={b} outside the allowed range [0, 5]")
    return _horodecki_params(b)


def horodecki_state(b: float) -> DensityMatrix:
    """One-parameter family 2/7 |phi+><phi+| + b/7 sigma+ + (5-b)/7 sigma-.

    sigma+ mixes |01>,|12>,|20> and sigma- mixes |10>,|21>,|02> uniformly.
    Valid for 0 <= b <= 5; NPT for b < 1 and b > 4, PPT in between.  Built
    as the family member at `horodecki_to_simplex(b)`.
    """
    return simplex_state(horodecki_to_simplex(b)).density()


def gamma_slice_point(b: float) -> tuple[float, float]:
    """(alpha, beta) of the PPT-entangled Horodecki point in its gamma slice.

    Defined only on the PPT-entangled window 3 < b <= 4, i.e. gamma =
    (5-2b)/7 in [-3/7, -1/7): ((1+gamma)/6, (-5+7 gamma)/21) there.
    """
    b = float(b)
    if not 3.0 < b <= 4.0:
        raise ValueError(
            f"b={b} outside the PPT-entangled window 3 < b <= 4 "
            "(gamma in [-3/7, -1/7))"
        )
    return horodecki_to_simplex(b)[:2]
