"""Weyl shift-and-phase operators, maximally entangled states, Bell projectors.

The single-qudit Weyl operators implemented here are

    U_{n,m} = sum_k exp(-2 pi i k n / d) |k><(k - m) mod d| ,

an orthogonal unitary basis: Tr(U_{n,m}^dag U_{n',m'}) = d delta delta.
The orientation (sign of the phase, direction of the shift) is chosen so
that, together with the row-major product-basis convention of
:mod:`entwit.operators`, the two-qutrit state families in
:mod:`entwit.families` reproduce their quoted closed forms exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .operators import (COEFF_ZERO_TOL, BipartiteOperator, DensityMatrix,
                        _as_operator)

__all__ = [
    "WeylIndex",
    "WeylExpansion",
    "weyl_operator",
    "max_entangled",
    "bell_projector",
    "weyl_expand",
]


class WeylIndex(NamedTuple):
    """Index pair (n, m); negative entries reduce mod d, so (-1, 1) ~ (d-1, 1)."""

    n: int
    m: int

    def normalized(self, d: int) -> "WeylIndex":
        return WeylIndex(int(self.n) % d, int(self.m) % d)


@lru_cache(maxsize=None)
def _weyl_stack(d: int) -> np.ndarray:
    """All d^2 Weyl operators, stack[n, m] = U_{n,m}, shape (d, d, d, d).

    Every phase is read from one table of d-th roots of unity whose entries
    j and d - j are exact conjugates (entry d/2 of an even d is exactly -1),
    so U_{-n,m} is exactly conj(U_{n,m}).
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    k = np.arange(d)
    roots = np.exp(-2j * np.pi * k / d)
    upper = k[k > d / 2]
    roots[upper] = roots[d - upper].conj()
    if d % 2 == 0:
        roots[d // 2] = -1.0
    n, m = k[:, None, None], k[None, :, None]
    stack = np.zeros((d, d, d, d), dtype=complex)
    stack[n, m, k, (k - m) % d] = roots[k * n % d]
    stack.setflags(write=False)
    return stack


def _realign(mats: np.ndarray, d: int) -> np.ndarray:
    """R(X)[(a c), (b e)] = X[(a b), (c e)] on a d^2 x d^2 matrix or a stack
    of them; R is an involution, and R(A (x) B) is the outer product of
    flattened A and B."""
    blocks = mats.reshape(mats.shape[:-2] + (d, d, d, d))
    return blocks.swapaxes(-3, -2).reshape(mats.shape)


def weyl_operator(d: int, idx) -> np.ndarray:
    """Single-system Weyl operator U_{n,m} on C^d.

    U_{0,0} is the identity and every other U_{n,m} is traceless.  The
    returned array is a read-only cached view.
    """
    stack = _weyl_stack(d)
    n, m = WeylIndex(*idx).normalized(d)
    return stack[n, m]


def max_entangled(d: int) -> np.ndarray:
    """The unit vector (1/sqrt(d)) sum_j |j>|j>."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1 / np.sqrt(d)
    return vec


@lru_cache(maxsize=None)
def _bell_stack(d: int) -> np.ndarray:
    """All d^2 Bell projectors, P_{n,m} at index d n + m.

    (U_{n,m} (x) 1)|phi+> has entry U_{n,m}[a, b]/sqrt(d) at row d a + b, so
    P_{n,m} is the outer product of flattened U_{n,m} with itself, over d.
    """
    vecs = _weyl_stack(d).reshape(d * d, d * d)
    stack = vecs[:, :, None] * vecs[:, None, :].conj() / d
    stack.setflags(write=False)
    return stack


def bell_projector(d: int, idx) -> DensityMatrix:
    """Rank-1 projector onto (U_{n,m} (x) 1)|phi+>.

    The d^2 projectors are mutually orthogonal and resolve the identity.
    """
    stack = _bell_stack(d)
    n, m = WeylIndex(*idx).normalized(d)
    return DensityMatrix(BipartiteOperator(d, d, stack[n * d + m]))


@dataclass(frozen=True, eq=False)
class WeylExpansion:
    """Complete coefficient table of an operator in the U (x) U basis.

    `coeffs[n, m, l, k]` multiplies U_{n,m} (x) U_{l,k}; the table includes
    the identity pair (0,0),(0,0).  For a Hermitian operator the coefficient
    of a basis element and of its adjoint are complex conjugates.
    """

    d: int
    coeffs: np.ndarray = field(repr=False)

    def coefficient(self, left, right) -> complex:
        n, m = WeylIndex(*left).normalized(self.d)
        l, k = WeylIndex(*right).normalized(self.d)
        return complex(self.coeffs[n, m, l, k])

    def reconstruct(self) -> BipartiteOperator:
        d = self.d
        basis = _weyl_stack(d).reshape(d * d, d * d)
        flat = self.coeffs.reshape(d * d, d * d)
        return BipartiteOperator(d, d, _realign(basis.T @ flat @ basis, d))

    def significant(self):
        """Index pairs whose coefficient magnitude exceeds COEFF_ZERO_TOL."""
        out = []
        for n, m, l, k in np.argwhere(np.abs(self.coeffs) > COEFF_ZERO_TOL):
            out.append(((int(n), int(m)), (int(l), int(k)),
                        complex(self.coeffs[n, m, l, k])))
        return out


def _weyl_coefficients(mats: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """U (x) U coefficient tables of a stack (N, d^2, d^2) of operators.

    Entry [i, (n m), (l k)] is <U_{n,m} (x) U_{l,k}, mats[i]>/d^2, which is
    entry ((n m), (l k)) of u R(x) u^T / d^2 with u the conjugated Weyl basis
    as rows; every operator of the stack takes the same arithmetic as a
    stack of one.
    """
    if dim_a != dim_b:
        raise ValueError("Weyl expansion requires equal subsystem dimensions")
    d = dim_a
    basis = _weyl_stack(d).reshape(d * d, d * d).conj()
    return basis @ _realign(mats, d) @ basis.T / (d * d)


def weyl_expand(x) -> WeylExpansion:
    """Expand a bipartite operator with d1 = d2 = d in the U (x) U basis.

    The N=1 case of `_weyl_coefficients`; the reconstruction reproduces the
    input to machine precision.
    """
    op = _as_operator(x)
    d = op.dim_a
    coeffs = _weyl_coefficients(op.entries[None], d, op.dim_b)[0]
    return WeylExpansion(d, coeffs.reshape(d, d, d, d))
