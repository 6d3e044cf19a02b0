"""Dense operators on a bipartite Hilbert space.

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

HERMITICITY_TOL = 1e-12  # max |A - A^dag| of a density matrix
TRACE_TOL = 1e-12  # |Tr rho - 1|
PSD_TOL = 1e-10  # lowest eigenvalue >= -PSD_TOL; also the PPT test
OPERATOR_HERMITICITY_TOL = 1e-10  # max |A - A^dag| to diagonalize or certify
COEFF_ZERO_TOL = 1e-12  # a Weyl coefficient this small reads as zero
CERTIFICATE_SLACK = 1e-12  # certified: max |c| <= 1 + CERTIFICATE_SLACK


@dataclass(frozen=True, eq=False)
class BipartiteOperator:
    """Matrix on a (d1*d2)-dimensional product space.

    Parameters
    ----------
    dim_a, dim_b : int
        Subsystem dimensions d1 and d2.
    entries : array_like
        Square matrix of side d1*d2.  Real input (bool, integer or float)
        is held as float64, so a real symmetric operator is diagonalized by
        real LAPACK; any other input is held as complex128.
    """

    dim_a: int
    dim_b: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be positive integers")
        mat = np.asarray(self.entries)
        # a private copy, whatever the input's dtype
        mat = np.array(mat, dtype=float if mat.dtype.kind in "biuf" else complex)
        side = self.dim_a * self.dim_b
        if mat.shape != (side, side):
            raise ValueError(
                f"entries must be {side}x{side} for dims ({self.dim_a},{self.dim_b}), "
                f"got {mat.shape}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        """Total dimension d1*d2."""
        return self.dim_a * self.dim_b

    def dagger(self) -> "BipartiteOperator":
        return BipartiteOperator(self.dim_a, self.dim_b, self.entries.conj().T)

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return _hermiticity_defect(self.entries) <= tol

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
        return self._like(self.entries * _scalar(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self._like(self.entries / _scalar(scalar))


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite bipartite operator.

    The PSD gate is a tolerance check: every eigenvalue must be >= -PSD_TOL.
    Construction fails with ValueError when any invariant is violated.
    """

    def __init__(self, op: BipartiteOperator):
        op = _as_operator(op)
        self.min_eigenvalue = float(_density_gate(op.entries[None])[0])
        self.op = op

    @property
    def dim_a(self) -> int:
        return self.op.dim_a

    @property
    def dim_b(self) -> int:
        return self.op.dim_b

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries


def _scalar(x) -> complex | float:
    """complex(x), as a float where its imaginary part is 0, so that a real
    operator scaled by a real number stays real."""
    z = complex(x)
    return z.real if z.imag == 0 else z


def _hermiticity_defect(mats: np.ndarray) -> float:
    """max |A - A^dag| over the entries of a square matrix, or of every
    matrix of a stack along leading axes."""
    return float(np.abs(mats - mats.conj().swapaxes(-1, -2)).max())


def _density_gate(mats: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of each matrix of a stack (N, D, D) that passes
    the gates of a density matrix, in their order: Hermitian within
    HERMITICITY_TOL, unit trace within TRACE_TOL, every eigenvalue
    >= -PSD_TOL.  ValueError with the worst value of the first gate that
    fails; `DensityMatrix` is the N=1 case.
    """
    herm_defect = _hermiticity_defect(mats)
    if herm_defect > HERMITICITY_TOL:
        raise ValueError(f"not Hermitian: max |A - A^dag| = {herm_defect:.3e}")
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    trace_error = abs(tr - 1.0)
    if trace_error.max() > TRACE_TOL:
        raise ValueError(f"trace is {tr[trace_error.argmax()]!r}, must equal 1 "
                         f"within {TRACE_TOL}")
    min_eig = np.linalg.eigvalsh(mats)[:, 0]
    lowest = min_eig.min()
    if lowest < -PSD_TOL:
        raise ValueError(
            f"not positive semidefinite: min eigenvalue {lowest:.3e} "
            f"< -{PSD_TOL}"
        )
    return min_eig


def _as_operator(x) -> BipartiteOperator:
    """A BipartiteOperator, or the one a wrapper holds as `.op` (DensityMatrix,
    GeometricWitness); TypeError for anything else."""
    op = getattr(x, "op", x)
    if not isinstance(op, BipartiteOperator):
        raise TypeError(
            f"expected BipartiteOperator or a wrapper of one, got {type(x)!r}")
    return op


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


def _hs_norms(mats: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (N, D, D), with the dot
    products of `np.linalg.norm` on one matrix: sqrt(Re.Re + Im.Im)."""
    flat = mats.reshape(len(mats), -1)
    return np.sqrt(np.vecdot(flat.real, flat.real)
                   + np.vecdot(flat.imag, flat.imag))


def hs_norm(a) -> float:
    """Frobenius norm sqrt(<A, A>); zero only for the zero operator.  The
    N=1 case of `_hs_norms`."""
    return float(_hs_norms(_as_operator(a).entries[None])[0])


def tensor(a, b) -> BipartiteOperator:
    """Kronecker product of two single-system operators.

    `a` acts on subsystem 1 (d1 x d1), `b` on subsystem 2 (d2 x d2).
    Tr(a (x) b) = Tr(a) Tr(b).
    """
    a = np.asarray(a)
    b = np.asarray(b)
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


def hermitian_spectrum(h) -> np.ndarray:
    """All real eigenvalues of a Hermitian operator, ascending.

    Rejects inputs that are not Hermitian within OPERATOR_HERMITICITY_TOL.
    Uses a Hermitian-specific solver so the spectrum is real and stable near
    degeneracies.
    """
    op = _as_operator(h)
    defect = _hermiticity_defect(op.entries)
    if defect > OPERATOR_HERMITICITY_TOL:
        raise ValueError(f"not Hermitian within {OPERATOR_HERMITICITY_TOL}: "
                         f"defect {defect:.3e}")
    return np.linalg.eigvalsh(op.entries)


def is_positive_semidefinite(h) -> tuple[bool, float]:
    """PSD gate: (min_eigenvalue >= -PSD_TOL, min_eigenvalue)."""
    min_eig = float(hermitian_spectrum(h)[0])
    return (min_eig >= -PSD_TOL, min_eig)


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
    """Parse the shared JSON operator object.

    The operator is held as float64 when every imaginary part is exactly 0,
    as `BipartiteOperator` holds real input, so an operator read back from
    `operator_to_dict` is held as it was built; otherwise as complex128.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"malformed operator object: expected a JSON object "
                         f"with keys dim_a, dim_b and entries, got "
                         f"{type(obj).__name__}")
    for key in ("dim_a", "dim_b", "entries"):
        if key not in obj:
            raise ValueError(f"malformed operator object: missing key '{key}'")
    dims, pairs = (obj["dim_a"], obj["dim_b"]), obj["entries"]
    try:
        dim_a, dim_b = map(int, dims)
        # a JSON true equals 1, but is no integer
        integral = ((dim_a, dim_b) == dims
                    and not any(isinstance(x, bool) for x in dims))
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"dim_a and dim_b must be integers, got {dims}")
    if dim_a < 1 or dim_b < 1:
        raise ValueError(f"dim_a and dim_b must be positive, got {dims}")
    if not isinstance(pairs, list):
        raise ValueError(f"entries must be a list of [re, im] pairs, got "
                         f"{type(pairs).__name__}")
    side = dim_a * dim_b
    if len(pairs) != side * side:
        raise ValueError(
            f"entries has {len(pairs)} elements, expected {side * side}"
        )
    try:
        flat = np.array([complex(re, im) for re, im in pairs])
        if any(isinstance(x, bool) for pair in pairs for x in pair):
            raise TypeError("true and false are not numbers")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"entries must be [re, im] number pairs: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise ValueError(
            f"entries[{bad[0]}] is not finite (NaN or Infinity): {pairs[bad[0]]}"
        )
    if not flat.imag.any():
        flat = flat.real
    return BipartiteOperator(dim_a, dim_b, flat.reshape(side, side))
