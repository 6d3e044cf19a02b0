"""Dense complex operators on a bipartite Hilbert space.

Basis convention: the product basis |i>|j> of a d1 x d2 system is ordered
row-major, |i>|j> -> row i*d2 + j.  This fixes the block layout of tensor
products and of the partial transposition unambiguously.  All matrices are
dense; the systems of interest are 9 x 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
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
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class BipartiteOperator:
    """Complex matrix on a (d1*d2)-dimensional product space.

    Parameters
    ----------
    dim_a, dim_b : int
        Subsystem dimensions d1 and d2.
    entries : array_like
        Square complex matrix of side d1*d2.
    """

    dim_a: int
    dim_b: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be positive integers")
        mat = np.asarray(self.entries, dtype=complex)
        side = self.dim_a * self.dim_b
        if mat.shape != (side, side):
            raise ValueError(
                f"entries must be {side}x{side} for dims ({self.dim_a},{self.dim_b}), "
                f"got {mat.shape}"
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        """Total dimension d1*d2."""
        return self.dim_a * self.dim_b

    def dagger(self) -> "BipartiteOperator":
        return BipartiteOperator(self.dim_a, self.dim_b, self.entries.conj().T)

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return np.abs(self.entries - self.entries.conj().T).max() <= tol

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def _like(self, entries) -> "BipartiteOperator":
        return BipartiteOperator(self.dim_a, self.dim_b, entries)

    def __add__(self, other):
        other = _as_operator(other)
        _check_same_dims(self, other)
        return self._like(self.entries + other.entries)

    def __sub__(self, other):
        other = _as_operator(other)
        _check_same_dims(self, other)
        return self._like(self.entries - other.entries)

    def __neg__(self):
        return self._like(-self.entries)

    def __mul__(self, scalar):
        return self._like(self.entries * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self._like(self.entries / complex(scalar))


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite bipartite operator.

    The PSD gate is a tolerance check: every eigenvalue must be >= -psd_tol.
    Construction fails with ValueError when any invariant is violated.
    """

    def __init__(self, op: BipartiteOperator, psd_tol: float = PSD_TOL):
        if not isinstance(op, BipartiteOperator):
            op = _as_operator(op)
        mat = op.entries
        herm_defect = np.abs(mat - mat.conj().T).max()
        if herm_defect > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: max |A - A^dag| = {herm_defect:.3e}")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr!r}, must equal 1 within {TRACE_TOL}")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < -psd_tol:
            raise ValueError(
                f"not positive semidefinite: min eigenvalue {min_eig:.3e} < -{psd_tol}"
            )
        self.op = op
        self.min_eigenvalue = min_eig

    @property
    def dim_a(self) -> int:
        return self.op.dim_a

    @property
    def dim_b(self) -> int:
        return self.op.dim_b

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries


def _as_operator(x) -> BipartiteOperator:
    """Coerce DensityMatrix/BipartiteOperator to BipartiteOperator."""
    if isinstance(x, BipartiteOperator):
        return x
    if isinstance(x, DensityMatrix):
        return x.op
    raise TypeError(f"expected BipartiteOperator or DensityMatrix, got {type(x)!r}")


def _check_same_dims(a: BipartiteOperator, b: BipartiteOperator):
    if (a.dim_a, a.dim_b) != (b.dim_a, b.dim_b):
        raise ValueError(
            f"dimension mismatch: ({a.dim_a},{a.dim_b}) vs ({b.dim_a},{b.dim_b})"
        )


def identity(dim_a: int, dim_b: int) -> BipartiteOperator:
    """Identity operator on the d1 x d2 product space."""
    return BipartiteOperator(dim_a, dim_b, np.eye(dim_a * dim_b, dtype=complex))


def maximally_mixed(dim_a: int, dim_b: int) -> DensityMatrix:
    """The state 1/D on the d1 x d2 product space."""
    side = dim_a * dim_b
    return DensityMatrix(BipartiteOperator(dim_a, dim_b, np.eye(side) / side))


def hs_inner(a, b) -> complex:
    """Trace inner product <A, B> = Tr(A^dag B).

    Conjugate-symmetric: hs_inner(a, b) == conj(hs_inner(b, a)).  Accepts
    BipartiteOperator or DensityMatrix on either side.
    """
    a = _as_operator(a)
    b = _as_operator(b)
    _check_same_dims(a, b)
    return complex(np.vdot(a.entries, b.entries))


def hs_norm(a) -> float:
    """Frobenius norm sqrt(<A, A>); zero only for the zero operator."""
    return float(np.linalg.norm(_as_operator(a).entries))


def tensor(a, b) -> BipartiteOperator:
    """Kronecker product of two single-system operators.

    `a` acts on subsystem 1 (d1 x d1), `b` on subsystem 2 (d2 x d2).
    Tr(a (x) b) = Tr(a) Tr(b).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("first factor must be a square matrix")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("second factor must be a square matrix")
    return BipartiteOperator(a.shape[0], b.shape[0], np.kron(a, b))


def _pt_array(mat: np.ndarray, dim_a: int, dim_b: int, subsystem: int) -> np.ndarray:
    """Partial transpose of one matrix, or of a stack along leading axes."""
    blocks = mat.reshape(mat.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    if subsystem == 1:
        blocks = blocks.swapaxes(-4, -2)
    elif subsystem == 2:
        blocks = blocks.swapaxes(-3, -1)
    else:
        raise ValueError("subsystem must be 1 or 2")
    return blocks.reshape(mat.shape)


def partial_transpose(x, subsystem: int) -> BipartiteOperator:
    """Transpose one subsystem only.

    Involutive, trace-preserving, Hermiticity-preserving; an entry
    permutation, so it also preserves the Frobenius norm.
    """
    op = _as_operator(x)
    return op._like(_pt_array(op.entries, op.dim_a, op.dim_b, subsystem))


def hermitian_spectrum(h, tol: float = 1e-10) -> np.ndarray:
    """All real eigenvalues of a Hermitian operator, ascending.

    Rejects inputs that are not Hermitian within `tol`.  Uses a
    Hermitian-specific solver so the spectrum is real and stable near
    degeneracies.
    """
    op = _as_operator(h)
    defect = np.abs(op.entries - op.entries.conj().T).max()
    if defect > tol:
        raise ValueError(f"not Hermitian within {tol}: defect {defect:.3e}")
    return np.linalg.eigvalsh(op.entries)


def is_positive_semidefinite(h, tol: float = PSD_TOL) -> tuple[bool, float]:
    """PSD gate: (min_eigenvalue >= -tol, min_eigenvalue)."""
    min_eig = float(hermitian_spectrum(h)[0])
    return (min_eig >= -tol, min_eig)


def operator_to_dict(x) -> dict:
    """Serialize to the shared JSON object {dim_a, dim_b, entries}.

    `entries` is a row-major list of [re, im] pairs.
    """
    op = _as_operator(x)
    flat = op.entries.ravel()
    return {
        "dim_a": op.dim_a,
        "dim_b": op.dim_b,
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }


def operator_from_dict(obj: dict) -> BipartiteOperator:
    """Parse the shared JSON operator object."""
    try:
        dims = obj["dim_a"], obj["dim_b"]
        dim_a, dim_b = map(int, dims)
        pairs = obj["entries"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed operator object: {exc}") from exc
    if (dim_a, dim_b) != dims:
        raise ValueError(f"dim_a and dim_b must be integers, got {dims}")
    side = dim_a * dim_b
    if len(pairs) != side * side:
        raise ValueError(
            f"entries has {len(pairs)} elements, expected {side * side}"
        )
    try:
        flat = np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"entries must be [re, im] number pairs: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise ValueError(
            f"entries[{bad[0]}] is not finite (NaN or Infinity): {pairs[bad[0]]}"
        )
    return BipartiteOperator(dim_a, dim_b, flat.reshape(side, side))
