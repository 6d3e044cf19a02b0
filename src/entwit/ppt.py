"""PPT classification, nearest-PPT projection, and a separable-minimum probe.

Partial transposition is always applied to subsystem 2; the choice does not
affect spectra (the two partial transposes differ by a full transposition)
and fixing it keeps results bit-reproducible.

The nearest-PPT projection is one Dykstra loop (`_dykstra`) that runs in a
space (`_Space`): the two metric projections, the norm and the PT minimum
of one representation of the states.  There are two spaces:

* the matrix space (`_matrix_space`), stacks of D x D matrices, for any
  state; `nearest_ppt` and the battery's cross-check run in it;
* the Bell space (`_BELL_SPACE`), stacks of the 9 Bell weights of
  two-qutrit Bell-diagonal states: the simplex projection of the weights,
  the PSD clip of their 3x3 PT block mapped back, the Euclidean norm and
  the block's lowest eigenvalue.  The CLI's family states run in it.

Both convex sets are invariant under every U (x) U* conjugation, so from a
Bell-diagonal start every iterate and correction of the matrix space is
Bell-diagonal, and the two spaces run the same iteration.

The separable-minimum probe scores pure product states a (x) b.  Its pool is
a grid of seeded Haar factors a_0, ..., a_{m-1} and b_0, ..., b_{m-1},
m = ceil(sqrt(count)), whose pairs are taken in shell order (shell s =
max(i, j)) up to `count` of them, so a longer pool extends a shorter one
and its raw minimum is no higher, to round-off: a pair's score may round
differently in another count's column blocks.  Every pair with
i, j < m - 1 is in the pool, so only the last shell is masked.  Each right
factor b_j is scored by its best in-pool left partner,
min_i <a_i b_j|W|a_i b_j> = min_i a_i^dag L(b_j) a_i, where L(b) is the
Hermitian form of W in the left factor with b fixed; one real matrix product
scores a block of right factors against every left factor, into one table
of each operator's score of each right factor.  One stable sort of each
operator's row picks its best right factors, which start a seesaw of
alternating lowest eigenvectors of the reduced forms.  The forms come from
one map (`_matrix_map`), for any operator: with v = a (x) b, <a (x) b|W|a (x) b> = Re(v^dag W v) =
v^dag H v for H the Hermitian part of W, whose forms contract H with the
fixed factor.  The result is an upper bound on the separable minimum.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .operators import (
    PSD_TOL,
    BipartiteOperator,
    DensityMatrix,
    _as_operator,
    _hs_norms,
    _pt_array,
)
from .families import _pt_blocks, _pt_minimum, _pt_weights

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

#: Pool pairs scored at a time: a block holds all m left factors of the grid
#: against max(1, _POOL_BLOCK // m) right factors, which bounds the (m, K, n)
#: product of each block whatever `SamplerConfig.count` is; the score table of
#: K operators is only K m floats.
_POOL_BLOCK = 4096


@dataclass(frozen=True)
class SamplerConfig:
    """Seeded sampling plan: `count` Haar-random pure product states."""

    seed: int
    count: int

    def __post_init__(self):
        for name, least in (("seed", 0), ("count", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


def _min_pt_eigenvalues(mats: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Lowest partial-transpose eigenvalue of one matrix, or of each of a
    stack along leading axes."""
    return np.linalg.eigvalsh(_pt_array(mats, dim_a, dim_b, 2))[..., 0]


def classify_ppt(rho: DensityMatrix) -> PptVerdict:
    """NPT iff the partial transpose has an eigenvalue below -PSD_TOL."""
    min_eig = float(_min_pt_eigenvalues(rho.entries, rho.dim_a, rho.dim_b))
    label = "NPT" if min_eig < -PSD_TOL else "PPT"
    return PptVerdict(label=label, min_pt_eigenvalue=min_eig)


def _hermitian_part(mats: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2 of a matrix, or of each of a stack along leading axes."""
    return (mats + mats.conj().swapaxes(-1, -2)) / 2


def _project_spectra_to_simplex(vals: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of (N, D) real vectors, in any
    order, onto {x >= 0, sum x = 1}."""
    n, d = vals.shape
    ascending = np.sort(vals, axis=1)
    # thetas[k] = (sum of the k+1 largest - 1)/(k+1); theta is the one at
    # the largest k whose (k+1)-th largest entry exceeds it: in ascending
    # order, the first entry above its reversed theta
    thetas = (np.cumsum(ascending[:, ::-1], axis=1) - 1.0) / np.arange(1, d + 1)
    first = (ascending > thetas[:, ::-1]).argmax(axis=1)
    theta = thetas[np.arange(n), d - 1 - first]
    return np.maximum(vals - theta[:, None], 0.0)


def _reassemble(vecs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """V diag(vals) V^dag for each of a stack of eigenbases."""
    return (vecs * vals[:, None, :]) @ vecs.conj().swapaxes(-1, -2)


def _project_density(mats: np.ndarray) -> np.ndarray:
    """Metric projection onto the unit-trace PSD set (spectrum -> simplex)."""
    vals, vecs = np.linalg.eigh(_hermitian_part(mats))
    return _reassemble(vecs, _project_spectra_to_simplex(vals))


def _project_pt_psd(mats: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Metric projection onto {X : PT(X) >= 0} (PT is an isometry)."""
    pt = _pt_array(_hermitian_part(mats), dim_a, dim_b, 2)
    vals, vecs = np.linalg.eigh(pt)
    return _pt_array(_reassemble(vecs, np.maximum(vals, 0.0)), dim_a, dim_b, 2)


def _project_bell_pt(weights: np.ndarray) -> np.ndarray:
    """Metric projection of Bell weights (N, 9) onto those of a PSD partial
    transpose: the 3x3 PT block clipped to PSD and mapped back, since
    w -> sqrt(3) (PT block) is an isometry (`families._pt_blocks`)."""
    vals, vecs = np.linalg.eigh(_pt_blocks(weights).reshape(-1, 3, 3))
    return _pt_weights(_reassemble(vecs, np.maximum(vals, 0.0)).reshape(-1, 9))


class _Space(NamedTuple):
    """Where `_dykstra` runs: the metric projections onto the unit-trace PSD
    set and onto the PT-positive set, the norm of each row of a stack of
    differences and the minimum PT eigenvalue of each point of a stack."""

    project_density: Callable
    project_pt: Callable
    norms: Callable
    pt_minimum: Callable


def _matrix_space(dim_a: int, dim_b: int) -> _Space:
    """Points are operators on C^dim_a (x) C^dim_b, stacks (N, D, D)."""
    return _Space(_project_density,
                  lambda mats: _project_pt_psd(mats, dim_a, dim_b),
                  _hs_norms,
                  lambda mats: _min_pt_eigenvalues(mats, dim_a, dim_b))


#: Points are two-qutrit Bell-diagonal operators sum_k w_k P_k, stacks of
#: weights (N, 9).  Both convex sets are invariant under every U (x) U*
#: conjugation, which fixes exactly the Bell-diagonal operators, so their
#: metric projections keep an operator Bell-diagonal; the density projection
#: is then the simplex projection of the weights, and the HS norm of a
#: difference the Euclidean norm of its weights.
_BELL_SPACE = _Space(_project_spectra_to_simplex, _project_bell_pt,
                     lambda w: np.sqrt(np.vecdot(w, w)), _pt_minimum)


class _DykstraRuns(NamedTuple):
    """`NearestPptResult` fields of a stack of N runs, as arrays with a
    leading axis of N; `states` are the raw last density-side iterates."""

    states: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    min_pt_eigenvalue: np.ndarray


def _dykstra(space: _Space, points: np.ndarray, tol: float,
             max_iter: int) -> _DykstraRuns:
    """The iteration of `nearest_ppt` on each point of a stack in `space`.

    Each run stops on its own, when it converges or after `max_iter`
    cycles, and its row is bit for bit the result of a stack of that point
    alone.  Run on the weights of Bell-diagonal states in `_BELL_SPACE`, it
    gives the weights of what it gives on their matrices in
    `_matrix_space`, to round-off.  ValueError when `max_iter` is below 1.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    n = len(points)
    states = np.empty_like(points)
    iterations = np.empty(n, dtype=int)
    residual = np.empty(n)
    pt_min = np.empty(n)
    active = np.arange(n)
    x, p, q = points, np.zeros_like(points), np.zeros_like(points)
    for step in range(1, max_iter + 1):
        x_p = x + p
        y = space.project_density(x_p)
        p = x_p - y
        y_q = y + q
        x_next = space.project_pt(y_q)
        q = y_q - x_next
        step_residual = space.norms(x_next - x)
        x = x_next
        if step_residual.min() >= tol and step < max_iter:
            continue
        step_min = space.pt_minimum(y)
        stop = ((step_residual < tol) & (step_min >= -tol)) | (step == max_iter)
        if not stop.any():
            continue
        finished = active[stop]
        states[finished] = y[stop]
        iterations[finished] = step
        residual[finished] = step_residual[stop]
        pt_min[finished] = step_min[stop]
        if stop.all():
            break
        # reached only while some runs go on, so a stack of one never indexes
        # its working arrays
        left = ~stop
        active, x, p, q = active[left], x[left], p[left], q[left]
    converged = (residual < tol) & (pt_min >= -tol)
    return _DykstraRuns(states, converged, iterations, residual, pt_min)


def _single_result(run: _DykstraRuns, state: np.ndarray, dim_a: int,
                   dim_b: int) -> NearestPptResult:
    """The result of a stack of one run, whose last iterate is the
    (D, D) matrix `state`."""
    return NearestPptResult(
        state=DensityMatrix(BipartiteOperator(dim_a, dim_b, state)),
        converged=bool(run.converged[0]),
        iterations=int(run.iterations[0]),
        residual=float(run.residual[0]),
        min_pt_eigenvalue=float(run.min_pt_eigenvalue[0]),
    )


def nearest_ppt(rho: DensityMatrix, tol: float = PSD_TOL,
                max_iter: int = 10000) -> NearestPptResult:
    """Metric projection of `rho` onto the PPT states.

    Alternating projections with correction terms (Dykstra scheme) between
    the unit-trace PSD set and the PT-positive set; plain alternation would
    find some intersection point, the corrections make the limit the nearest
    one.  Converged when one full cycle moves the iterate by less than `tol`
    in norm and the density-side iterate is PPT within `tol`.  A PPT input
    is its own projection.  The N=1 case of `_dykstra` on matrices, for any
    state; the CLI runs the same iteration on the 9 Bell weights of its
    (Bell-diagonal) family states instead.

    On iteration exhaustion the result carries `converged=False`, the last
    density-side iterate and the final residual.  ValueError when `max_iter`
    is below 1.
    """
    dim_a, dim_b = rho.dim_a, rho.dim_b
    run = _dykstra(_matrix_space(dim_a, dim_b), rho.entries[None], tol,
                   max_iter)
    return _single_result(run, run.states[0], dim_a, dim_b)


def _pool_factors(d: int, config: SamplerConfig):
    """The seeded Haar-random factors of the pool: left a_i and right b_i,
    (m, d) each, for m = ceil(sqrt(count)).

    One complex-normal draw (m, 2, d) whose row i gives a_i and b_i, each
    factor normalized in its float view (a complex division would promote
    the norm to complex).  The draws of one seed extend each other, so the
    factors of a shorter run are the first ones of a longer run.
    """
    m = math.isqrt(config.count - 1) + 1
    x = np.random.default_rng(config.seed).standard_normal((m, 2, d, 2))
    # each factor as one contiguous row of 2d floats
    rows = x.reshape(-1, 2 * d)
    rows /= np.sqrt(np.vecdot(rows, rows))[:, None]
    z = x.view(np.complex128)[..., 0]
    return z[:, 0], z[:, 1]


def _shell_ranks(i, j):
    """Rank of the pair (a_i, b_j) in the pool's shell order, elementwise
    over broadcast index arrays.

    Shell s = max(i, j) holds (s, 0), ..., (s, s), then (0, s), ...,
    (s - 1, s), at ranks s^2 to s^2 + 2s; the pool of `count` pairs is
    those of rank below `count`, so it is a prefix of every longer pool.
    """
    return np.where(i >= j, i * i + j, j * j + j + 1 + i)


class _FeatureMap(NamedTuple):
    """The reduced forms of K operators on C^d (x) C^d, as two tables
    (K, d^2, d^2) that `_reduced_forms` reads.

    `_reduced_forms(fmap.to_left, owner, right)` gives, for each of n
    product states, the d x d Hermitian form of operator owner[n] in the
    left factor with the right one fixed, shape (n, d, d), so that
    <a b|W|a b> = a^dag L(b) a; `fmap.to_right` gives its mirror.
    """

    d: int
    to_left: np.ndarray
    to_right: np.ndarray


def _matrix_map(mats: np.ndarray, d: int) -> _FeatureMap:
    """The probe's one map, of a stack (K, d^2, d^2) of arbitrary
    operators, Bell-diagonal or not: <a (x) b|W|a (x) b> = Re(v^dag W v) =
    v^dag H v for v = a (x) b and H the Hermitian part of W.

    The reduced forms contract H with the fixed factor:
    sum_{j,l} conj(b_j) H[(i j), (m l)] b_l on the left factor and
    sum_{i,m} conj(a_i) H[(i j), (m l)] a_m on the right.
    """
    # rows (i m) and columns (j l) for the left form, the mirror for the
    # right one, so that either form is the table times conj(v) (x) v
    blocks = _hermitian_part(mats).reshape(-1, d, d, d, d)
    return _FeatureMap(
        d, blocks.transpose(0, 1, 3, 2, 4).reshape(-1, d * d, d * d),
        blocks.transpose(0, 2, 4, 1, 3).reshape(-1, d * d, d * d))


def _reduced_forms(tables: np.ndarray, owner: np.ndarray,
                   vecs: np.ndarray) -> np.ndarray:
    """The forms (n, d, d) of tables[owner[n]] on the fixed factors vecs[n].

    One (d^2, d^2) @ (d^2, 1) product per form, so a form rounds the same
    whatever else is in the stack.
    """
    d = vecs.shape[1]
    pairs = vecs.conj()[:, :, None] * vecs[:, None, :]
    return (tables[owner] @ pairs.reshape(-1, d * d, 1)).reshape(-1, d, d)


def _pool_scores(fmap: _FeatureMap, config: SamplerConfig):
    """Each right factor's best score in the pool, `_POOL_BLOCK` pairs at a time.

    Returns the (K, m') table of scores min_i <a_i b_j|W|a_i b_j> over the
    left partners of each scored right factor b_j in the pool, and the
    (m', d) factors, in pool order.  With L(b) the left form of `fmap`,
    <a b|W|a b> = a^dag L(b) a = Re sum_pr conj(a_p) a_r L(b)_pr, so a block
    of n columns is one real product of the (m, 2 d^2) rows [Re, -Im] of
    conj(a) (x) a with the (2 d^2, K n) columns [Re; Im] of the forms.  Every pair with
    i, j < m - 1 ranks below (m - 1)^2 < count, so only the last shell can
    leave the pool: row m - 1, and column m - 1 in the block that holds it,
    score +inf where their ranks reach `count`.  b_j first pairs (with a_j)
    at rank j^2 + j, so at most the last right factor has no pair in the
    pool, and it is not scored.
    """
    left, right = _pool_factors(fmap.d, config)
    m, k = len(left), len(fmap.to_left)
    last = m - 1
    # b_{m-1} has a pair only if its first, (m - 1)^2 + m - 1, is in the pool
    right = right[:m - (m * last >= config.count)]
    pairs = left.conj()[:, :, None] * left[:, None, :]
    rows = np.concatenate([pairs.real, -pairs.imag], axis=1).reshape(m, -1)
    scores = np.empty((k, len(right)))
    width = max(1, _POOL_BLOCK // m)
    for start in range(0, len(right), width):
        block = right[start:start + width]
        n = len(block)
        forms = _reduced_forms(fmap.to_left, np.repeat(np.arange(k), n),
                               np.tile(block, (k, 1)))
        cols = np.concatenate([forms.real, forms.imag], axis=1).reshape(k * n, -1)
        values = (rows @ cols.T).reshape(m, k, n)
        columns = np.arange(start, start + n)
        values[last, :, _shell_ranks(last, columns) >= config.count] = np.inf
        if columns[-1] == last:
            outside = _shell_ranks(np.arange(last), last) >= config.count
            values[:last][outside, :, -1] = np.inf
        scores[:, start:start + n] = values.min(axis=0)
    return scores, right


def _seesaw(fmap: _FeatureMap, owner: np.ndarray, right: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """Alternating exact minimization over the two factors, batched over starts.

    Start n minimizes the expectation of operator owner[n] of `fmap`, from
    the right factor right[n] and its value values[n].  With one factor
    fixed the expectation is a Hermitian form in the other, minimized by its
    lowest eigenvector, so no half-step raises a start's value.  A start
    stops once a sweep lowers it by no more than _SEESAW_TOL, and every
    start after _SEESAW_SWEEPS sweeps; each start's path depends on no other
    start.
    """
    values, right = values.copy(), right.copy()
    active = np.arange(len(right))
    for _ in range(_SEESAW_SWEEPS):
        k = owner[active]
        _, vecs = np.linalg.eigh(
            _reduced_forms(fmap.to_left, k, right[active]))
        vals, vecs = np.linalg.eigh(
            _reduced_forms(fmap.to_right, k, vecs[:, :, 0]))
        right[active] = vecs[:, :, 0]
        moving = values[active] - vals[:, 0] > _SEESAW_TOL
        values[active] = vals[:, 0]
        active = active[moving]
        if not active.size:
            break
    return values


def _separable_floors(fmap: _FeatureMap, config: SamplerConfig) -> np.ndarray:
    """Lowest sampled-and-refined value of each of the K operators of `fmap`.

    One stable sort of each operator's row of `_pool_scores` picks its
    min(_SEESAW_STARTS, scored factors) lowest right factors, ties to the
    earlier one in pool order, and they run through one batched seesaw,
    whose first half-step replaces the left factors.
    """
    scores, right = _pool_scores(fmap, config)
    lowest = np.argsort(scores, axis=1, kind="stable")[:, :_SEESAW_STARTS]
    pooled = np.take_along_axis(scores, lowest, axis=1)
    k, starts = lowest.shape
    refined = _seesaw(fmap, np.repeat(np.arange(k), starts),
                      right[lowest.ravel()], pooled.ravel())
    return np.minimum(pooled[:, 0], refined.reshape(k, starts).min(axis=1))


def min_separable_expectation(w, config: SamplerConfig) -> float | np.ndarray:
    """Empirical minimum of Tr(sigma W) over seeded pure product states.

    `w` is one operator, or a sequence of K operators on the same C^d (x) C^d,
    which all share one pool and one seesaw; the result is a float for one
    operator and an array of the K minima for a sequence.

    Probes the extreme points of the separable set (pure products); mixtures
    cannot fall below them.  Every expectation is read through one map
    (`_matrix_map`), <a (x) b|W|a (x) b> = Re(v^dag W v) for v = a (x) b,
    so any operator, Bell-diagonal or not, is probed the same way, and a
    non-Hermitian W is probed as its Hermitian part.  The pool of
    `config.count` product states is the first `count` pairs, in shell
    order, of an m x m grid of seeded Haar factors, m = ceil(sqrt(count)):
    only 2m factors are drawn, and every pair of the first m - 1 of each is
    in the pool, so only the last shell is masked.  Each right factor is
    scored by its best in-pool left partner, one real matrix product per
    block of right factors (`_POOL_BLOCK`), into one table of K rows; a block
    of a sequence of K operators holds K reduced forms per right factor, so
    memory grows with K.  One stable sort of each operator's scores picks
    its eight best right factors, ties to the earlier one, and the seesaw
    runs them to convergence: alternating lowest eigenvectors of W reduced
    to one factor (Lewenstein et al., PRA 62, 052310 (2000)).

    The return value is an upper bound on the true separable minimum: a
    negative value falsifies witness-hood, a nonnegative value is supporting
    evidence only.  For a fixed seed the raw sampled minimum is
    nonincreasing in `count` to round-off: a longer pool extends a shorter
    one pair for pair, but a pair's score may round differently in the
    other's column blocks.
    """
    single = not isinstance(w, Sequence)
    ops = [_as_operator(op) for op in ([w] if single else w)]
    if not ops:
        raise ValueError("no operator to probe")
    if any(op.dim_b != op.dim_a for op in ops):
        raise ValueError("sampler requires equal subsystem dimensions")
    d = ops[0].dim_a
    if any(op.dim_a != d for op in ops):
        raise ValueError("sampler requires operators of one dimension")
    floors = _separable_floors(
        _matrix_map(np.stack([op.entries for op in ops]), d), config)
    return float(floors[0]) if single else floors
