"""PPT classification, nearest-PPT projection, and a separable-minimum probe.

Partial transposition is always applied to subsystem 2; the choice does not
affect spectra (the two partial transposes differ by a full transposition)
and fixing it keeps results bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    PSD_TOL,
    BipartiteOperator,
    DensityMatrix,
    _pt_array,
)

__all__ = [
    "PptVerdict",
    "NearestPptResult",
    "SamplerConfig",
    "classify_ppt",
    "nearest_ppt",
    "min_separable_expectation",
]


@dataclass(frozen=True)
class PptVerdict:
    """PPT/NPT label with the minimum partial-transpose eigenvalue."""

    label: str
    min_pt_eigenvalue: float
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "min_pt_eigenvalue": float(self.min_pt_eigenvalue),
            "tolerance": float(self.tolerance),
        }


@dataclass(frozen=True, eq=False)
class NearestPptResult:
    """Outcome of the nearest-PPT projection.

    `state` is always a valid density matrix (the last iterate projected
    onto the unit-trace PSD set); when `converged` is False it need not be
    PPT and `residual` reports how far the iteration still moved.
    """

    state: DensityMatrix = field(repr=False)
    converged: bool
    iterations: int
    residual: float
    min_pt_eigenvalue: float

    def to_dict(self) -> dict:
        from .operators import operator_to_dict

        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual": float(self.residual),
            "min_pt_eigenvalue": float(self.min_pt_eigenvalue),
            "state": operator_to_dict(self.state.op),
        }


#: Seesaw plan of `min_separable_expectation`: starts taken from the sampled
#: pool, sweep cap, and the per-sweep drop below which a start has converged.
_SEESAW_STARTS = 8
_SEESAW_SWEEPS = 100
_SEESAW_TOL = 1e-15


@dataclass(frozen=True)
class SamplerConfig:
    """Seeded sampling plan: `count` Haar-random pure product states."""

    seed: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")


def classify_ppt(rho: DensityMatrix, tol: float = PSD_TOL) -> PptVerdict:
    """NPT iff the partial transpose has an eigenvalue below -tol."""
    pt = _pt_array(rho.entries, rho.dim_a, rho.dim_b, 2)
    min_eig = float(np.linalg.eigvalsh(pt)[0])
    label = "NPT" if min_eig < -tol else "PPT"
    return PptVerdict(label=label, min_pt_eigenvalue=min_eig, tolerance=tol)


def _project_spectrum_to_simplex(vals: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto {x >= 0, sum x = 1}."""
    u = np.sort(vals)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(u) + 1)
    pivot = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[pivot] / (pivot + 1)
    return np.maximum(vals - theta, 0.0)


def _project_density(mat: np.ndarray) -> np.ndarray:
    """Metric projection onto the unit-trace PSD set (spectrum -> simplex)."""
    herm = (mat + mat.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    w = _project_spectrum_to_simplex(vals)
    return (vecs * w) @ vecs.conj().T


def _project_pt_psd(mat: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Metric projection onto {X : PT(X) >= 0} (PT is an isometry)."""
    herm = (mat + mat.conj().T) / 2
    pt = _pt_array(herm, dim_a, dim_b, 2)
    vals, vecs = np.linalg.eigh(pt)
    clipped = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
    return _pt_array(clipped, dim_a, dim_b, 2)


def nearest_ppt(rho: DensityMatrix, tol: float = 1e-10,
                max_iter: int = 10000) -> NearestPptResult:
    """Metric projection of `rho` onto the PPT states.

    Alternating projections with correction terms (Dykstra scheme) between
    the unit-trace PSD set and the PT-positive set; plain alternation would
    find some intersection point, the corrections make the limit the nearest
    one.  Converged when one full cycle moves the iterate by less than `tol`
    in norm and the density-side iterate is PPT within `tol`.  A PPT input
    is its own projection.

    On iteration exhaustion the result carries `converged=False`, the last
    density-side iterate and the final residual.
    """
    dim_a, dim_b = rho.dim_a, rho.dim_b
    x = rho.entries.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    y = x
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = _project_density(x + p)
        p = x + p - y
        x_next = _project_pt_psd(y + q, dim_a, dim_b)
        q = y + q - x_next
        residual = float(np.linalg.norm(x_next - x))
        x = x_next
        if residual < tol:
            pt_min = float(np.linalg.eigvalsh(
                _pt_array(y, dim_a, dim_b, 2))[0])
            if pt_min >= -tol:
                return NearestPptResult(
                    state=DensityMatrix(BipartiteOperator(dim_a, dim_b, y)),
                    converged=True,
                    iterations=iterations,
                    residual=residual,
                    min_pt_eigenvalue=pt_min,
                )
    pt_min = float(np.linalg.eigvalsh(_pt_array(y, dim_a, dim_b, 2))[0])
    return NearestPptResult(
        state=DensityMatrix(BipartiteOperator(dim_a, dim_b, y)),
        converged=False,
        iterations=iterations,
        residual=residual,
        min_pt_eigenvalue=pt_min,
    )


def _product_pool(d: int, config: SamplerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Haar-random factors (left, right), one row per product state.

    Normalized complex-normal draws; a longer run extends a shorter one with
    the same seed.
    """
    rng = np.random.default_rng(config.seed)
    z = rng.standard_normal((config.count, 2, d, 2))
    left = z[:, 0, :, 0] + 1j * z[:, 0, :, 1]
    right = z[:, 1, :, 0] + 1j * z[:, 1, :, 1]
    left /= np.linalg.norm(left, axis=1, keepdims=True)
    right /= np.linalg.norm(right, axis=1, keepdims=True)
    return left, right


def _product_expectations(w_mat: np.ndarray, left: np.ndarray,
                          right: np.ndarray) -> np.ndarray:
    vecs = np.einsum("ni,nj->nij", left, right).reshape(left.shape[0], -1)
    return np.einsum("na,ab,nb->n", vecs.conj(), w_mat, vecs,
                     optimize=True).real


def _seesaw(w_mat: np.ndarray, left: np.ndarray, right: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """Alternating exact minimization over the two factors, batched over starts.

    With one factor fixed the expectation is a Hermitian form in the other,
    minimized by the lowest eigenvector of the reduced d x d matrix, so no
    half-step raises any start's value.  Stops once no start drops by more
    than _SEESAW_TOL in a sweep, or after _SEESAW_SWEEPS sweeps.
    """
    d = left.shape[1]
    w4 = w_mat.reshape(d, d, d, d)
    for _ in range(_SEESAW_SWEEPS):
        _, vecs = np.linalg.eigh(
            np.einsum("nj,ijkm,nm->nik", right.conj(), w4, right))
        left = vecs[:, :, 0]
        vals, vecs = np.linalg.eigh(
            np.einsum("ni,ijkm,nk->njm", left.conj(), w4, left))
        right = vecs[:, :, 0]
        converged = np.all(values - vals[:, 0] <= _SEESAW_TOL)
        values = vals[:, 0]
        if converged:
            break
    return values


def min_separable_expectation(w, config: SamplerConfig) -> float:
    """Empirical minimum of Tr(sigma W) over seeded pure product states.

    Probes the extreme points of the separable set (pure products); mixtures
    cannot fall below them.  The eight lowest of `config.count` Haar samples
    are run to convergence by the seesaw: alternating lowest eigenvectors of
    W reduced to one factor (Lewenstein et al., PRA 62, 052310 (2000)).

    The return value is an upper bound on the true separable minimum: a
    negative value falsifies witness-hood, a nonnegative value is supporting
    evidence only.  For a fixed seed the raw sampled minimum is nonincreasing
    in `count` (longer runs extend shorter ones).
    """
    op = getattr(w, "op", w)
    if isinstance(op, DensityMatrix):
        op = op.op
    w_mat = np.asarray(op.entries)
    # Re <v|W|v> is the form of the Hermitian part, which eigh needs
    w_mat = (w_mat + w_mat.conj().T) / 2
    d = op.dim_a
    if op.dim_b != d:
        raise ValueError("sampler requires equal subsystem dimensions")

    left, right = _product_pool(d, config)
    values = _product_expectations(w_mat, left, right)
    top = np.argsort(values)[:_SEESAW_STARTS]
    refined = _seesaw(w_mat, left[top], right[top], values[top])
    return float(min(values.min(), refined.min()))
