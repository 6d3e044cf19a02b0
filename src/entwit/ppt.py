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

The separable-minimum probe scores pure product states a (x) b of any
operator on C^d (x) C^d through one map (`_matrix_map`: two reduced-form
tables and the Hermitian part H): a seeded pool picks the starts of a
batched local search of seesaw sweeps and Riemannian Newton steps on H.
`min_separable_expectation` describes it; the result is an upper bound on
the separable minimum.
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


#: Local search of `min_separable_expectation`: starts taken from the sampled
#: pool, the seesaw sweeps that open every start, and the per-step drop below
#: which a start has converged; then the cap on the Newton steps that finish
#: it and their trust radius in the tangent coordinates.
_SEESAW_STARTS = 8
_SEESAW_SWEEPS = 4
_SEESAW_TOL = 1e-15
_NEWTON_STEPS = 50
_NEWTON_RADIUS = 0.3

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
    `_matrix_space`, to round-off.  ValueError when `max_iter` is below 1
    or `tol` is not positive and finite: a residual is never below 0.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
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
        # only a run whose residual is below tol, or every run at the cap,
        # can stop: the PT minimum is read for those alone
        near = (np.flatnonzero(step_residual < tol) if step < max_iter
                else np.arange(len(y)))
        step_min = space.pt_minimum(y[near])
        settled = (step_min >= -tol) | (step == max_iter)
        stop = near[settled]
        if not stop.size:
            continue
        finished = active[stop]
        states[finished] = y[stop]
        iterations[finished] = step
        residual[finished] = step_residual[stop]
        pt_min[finished] = step_min[settled]
        if len(stop) == len(y):
            break
        # reached only while some runs go on, so a stack of one never indexes
        # its working arrays
        left = np.ones(len(y), dtype=bool)
        left[stop] = False
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
    is below 1 or `tol` is not positive and finite.
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


def _matrix_map(mats: np.ndarray, d: int) -> np.ndarray:
    """The probe's one map, of a stack (K, d^2, d^2) of arbitrary
    operators, Bell-diagonal or not: <a (x) b|W|a (x) b> = Re(v^dag W v) =
    v^dag H v for v = a (x) b and H the Hermitian part of W.

    Returns the tables (K, 3, d^2, d^2).  tables[k, 0] times conj(b) (x) b,
    flattened, is the Hermitian form L(b) in the left factor,
    sum_{j,l} conj(b_j) H[(i j), (m l)] b_l, so that
    <a b|W|a b> = a^dag L(b) a; tables[k, 1] times conj(a) (x) a is its
    mirror R(a), sum_{i,m} conj(a_i) H[(i j), (m l)] a_m; and tables[k, 2]
    is H itself, which the Newton model reads.  `_reduced_forms(tables[:, 0],
    owner, right)` gives the left forms of operators owner[n] at the right
    factors right[n], shape (n, d, d).
    """
    hermitian = _hermitian_part(mats)
    blocks = hermitian.reshape(-1, d, d, d, d)
    # rows (i m) and columns (j l) for the left form, the mirror for the
    # right one
    return np.stack([
        blocks.transpose(0, 1, 3, 2, 4).reshape(-1, d * d, d * d),
        blocks.transpose(0, 2, 4, 1, 3).reshape(-1, d * d, d * d),
        hermitian], axis=1)


def _factor_pairs(vecs: np.ndarray) -> np.ndarray:
    """conj(v) (x) v of each of the factors vecs (n, d), as columns
    (n, d^2, 1)."""
    d = vecs.shape[1]
    return (vecs.conj()[:, :, None] * vecs[:, None, :]).reshape(-1, d * d, 1)


def _reduced_forms(tables: np.ndarray, owner: np.ndarray,
                   vecs: np.ndarray) -> np.ndarray:
    """The forms (n, d, d) of tables[owner[n]] on the fixed factors vecs[n].

    One (d^2, d^2) @ (d^2, 1) product per form, so a form rounds the same
    whatever else is in the stack.
    """
    d = vecs.shape[1]
    return (tables[owner] @ _factor_pairs(vecs)).reshape(-1, d, d)


def _broadcast_forms(tables: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The forms (K, n, d, d) of each of the K tables on each of the n fixed
    factors vecs: form [k, j] is `_reduced_forms(tables, [k], vecs[j:j + 1])`
    bit for bit, the same one product, with no gathered copy of the
    tables."""
    d = vecs.shape[1]
    forms = tables[:, None] @ _factor_pairs(vecs)[None]
    return forms.reshape(len(tables), len(vecs), d, d)


def _real_coordinates(d: int):
    """Where the d^2 real coordinates of a Hermitian d x d matrix M sit in
    the float view of its flattened entries, and their weights in a^dag M a.

    The coordinates are M_pp, then Re M_pr and Im M_pr for p < r, so
    a^dag M a = sum_p |a_p|^2 M_pp + 2 Re sum_{p<r} conj(a_p) a_r M_pr is
    the dot product of the coordinates of M with those of conj(a) (x) a
    times the weights [1, 2, -2].
    """
    upper = np.ravel_multi_index(np.triu_indices(d, 1), (d, d))
    index = np.concatenate([2 * (d + 1) * np.arange(d), 2 * upper,
                            2 * upper + 1])
    weights = np.repeat([1.0, 2.0, -2.0], [d, len(upper), len(upper)])
    return index, weights


def _pool_scores(tables: np.ndarray, config: SamplerConfig):
    """Each right factor's best score in the pool, `_POOL_BLOCK` pairs at a time.

    Returns the (K, m') table of scores min_i <a_i b_j|W|a_i b_j> over the
    left partners of each scored right factor b_j in the pool, and the
    (m', d) factors, in pool order, for the `_matrix_map` tables of K
    operators on C^d (x) C^d.  With L(b) the Hermitian left form of
    `tables`, <a b|W|a b> = a^dag L(b) a is a dot product on the d^2 real
    coordinates of `_real_coordinates`, so a block of n right factors is
    one real product of the (m, d^2) rows of the left factors with the
    (d^2, K n) columns of the K n forms, which `_broadcast_forms` builds.
    Every pair with i, j < m - 1 ranks below (m - 1)^2 < count, so only
    the last shell can leave the pool: row m - 1, and column m - 1 in the
    block that holds it, score +inf where their ranks reach `count`.  b_j
    first pairs (with a_j) at rank j^2 + j, so at most the last right
    factor has no pair in the pool, and it is not scored.
    """
    d = math.isqrt(tables.shape[-1])
    left, right = _pool_factors(d, config)
    m, k = len(left), len(tables)
    last = m - 1
    # b_{m-1} has a pair only if its first, (m - 1)^2 + m - 1, is in the pool
    right = right[:m - (m * last >= config.count)]
    index, weights = _real_coordinates(d)
    rows = _factor_pairs(left).reshape(m, -1).view(float)[:, index] * weights
    scores = np.empty((k, len(right)))
    width = max(1, _POOL_BLOCK // m)
    for start in range(0, len(right), width):
        block = right[start:start + width]
        n = len(block)
        forms = _broadcast_forms(tables[:, 0], block)
        cols = forms.reshape(k * n, -1).view(float)[:, index]
        values = (rows @ cols.T).reshape(m, k, n)
        columns = np.arange(start, start + n)
        values[last, :, _shell_ranks(last, columns) >= config.count] = np.inf
        if columns[-1] == last:
            outside = _shell_ranks(np.arange(last), last) >= config.count
            values[:last][outside, :, -1] = np.inf
        scores[:, start:start + n] = values.min(axis=0)
    return scores, right


def _sweep(tables: np.ndarray, owner: np.ndarray, right: np.ndarray):
    """One seesaw sweep of each start, of operator owner[n] of the
    `_matrix_map` tables, from its right factor right[n]: the lowest
    eigenvector of the left form, then the lowest eigenpair of the right
    form there.  Returns the new factors (n, 2, d), left then right, and
    their values (n,)."""
    _, vecs = np.linalg.eigh(_reduced_forms(tables[:, 0], owner, right))
    left = vecs[:, :, 0]
    vals, vecs = np.linalg.eigh(_reduced_forms(tables[:, 1], owner, left))
    return np.stack([left, vecs[:, :, 0]], axis=1), vals[:, 0]


def _tangent_bases(vecs: np.ndarray) -> np.ndarray:
    """Unitaries (..., d, d) whose first column is the unit vector vecs[...]
    and whose other d - 1 columns are an orthonormal basis of its
    orthogonal complement, for any d.

    The Householder reflector I - u u^dag / (1 + |a_0|), u = a + e^{i arg a_0}
    e_0, maps e_0 to a multiple of a, so its other columns are orthonormal
    and orthogonal to a; its first column is then set to a.
    """
    head = vecs[..., 0]
    u = vecs.copy()
    u[..., 0] += np.exp(1j * np.angle(head))
    scaled = u.conj() / (1 + np.abs(head))[..., None]
    bases = np.eye(vecs.shape[-1]) - u[..., :, None] * scaled[..., None, :]
    bases[..., :, 0] = vecs
    return bases


def _second_order_model(hermitian: np.ndarray, factors: np.ndarray):
    """The second-order model of each start's value on its tangent space.

    `hermitian` (n, d^2, d^2) is the Hermitian part H of each start's
    operator and `factors` (n, 2, d) its unit factors a and b.  In the
    unitary frame F = [a, U_a] (x) [b, U_b] of their `_tangent_bases`,
    a' (x) b' for a' = a + U_a x, b' = b + U_b y has coordinates 1 at
    (0 0), x_i at (i 0), y_j at (0 j) and x_i y_j at (i j).  So with
    T = F^dag H F the value at normalize(a') (x) normalize(b') is, to second
    order in z = (x, y) (Absil, Mahony & Sepulchre, Optimization Algorithms
    on Matrix Manifolds (2008), ch. 6),

        g + 2 Re(z^dag G) + z^dag P z + 2 Re(x^dag D conj(y)),

    where g = T[(0 0), (0 0)], G and P + g are T's column (0 0) and block
    on the tangent indices (i 0), then (0 j), i, j >= 1, and
    D[i, j] = conj(T[(0 0), (i j)]).  In the real view s of z,
    (Re z_0, Im z_0, Re z_1, ...), that is g + 2 c.s + s.K s, with K the
    real form of z -> P z + Q conj(z), Q = [[0, D], [D^T, 0]]: entries
    (i, j) of P and Q give its 2 x 2 block [[Re(P + Q), -Im(P - Q)],
    [Im(P + Q), Re(P - Q)]].  Returns g (n,), the bases (n, 2, d, d),
    c (n, 4(d - 1)) and the symmetric K (n, 4(d - 1), 4(d - 1)).
    """
    n, _, d = factors.shape
    bases = _tangent_bases(factors)
    frame = (bases[:, 0, :, None, :, None]
             * bases[:, 1, None, :, None, :]).reshape(n, d * d, d * d)
    t = frame.conj().swapaxes(1, 2) @ hermitian @ frame
    g = t[:, 0, 0].real
    tangent = np.concatenate([np.arange(d, d * d, d), np.arange(1, d)])
    p = t[:, tangent[:, None], tangent] - g[:, None, None] * np.eye(2 * d - 2)
    q = np.zeros_like(p)
    q[:, :d - 1, d - 1:] = t[:, 0].reshape(n, d, d)[:, 1:, 1:].conj()
    q = q + q.swapaxes(1, 2)
    plus, minus = p + q, p - q
    hessian = np.stack([np.stack([plus.real, -minus.imag], axis=-1),
                        np.stack([plus.imag, minus.real], axis=-1)], axis=2)
    grad = t[:, tangent, 0]
    return (g, bases, np.stack([grad.real, grad.imag], axis=-1).reshape(n, -1),
            hessian.reshape(n, 4 * d - 4, 4 * d - 4))


def _newton_trials(hermitian: np.ndarray, factors: np.ndarray):
    """Each start's trials along its Newton step: trial factors
    (n, 5, 2, d) and their values v^dag H v (n, 5) at their products v, for
    the Hermitian parts H (n, d^2, d^2) of the starts' operators.

    The step minimizes `_second_order_model` with the Hessian's
    eigenvalues replaced by their magnitudes, floored at 1e-12 times the
    largest, so it descends at saddles too; it is cut to the trust radius
    `_NEWTON_RADIUS`, then tried at 3, 1, 1/2, 1/4 and 1/8 times its
    length, in that order.  At a degenerate minimum, where the value rises
    like the fourth power of the distance (a quartic), the full step covers
    only a third of the distance and three times the step lands on the
    minimum; at a nondegenerate minimum three times the step overshoots to
    about four times the gap, and the full step is taken.
    """
    n, _, d = factors.shape
    _, bases, grad, hessian = _second_order_model(hermitian, factors)
    vals, vecs = np.linalg.eigh(hessian)
    mags = np.abs(vals)
    mags = np.maximum(mags, 1e-12 * mags.max(axis=1, keepdims=True))
    along = (grad[:, None] @ vecs)[:, 0]
    along = np.divide(along, mags, out=np.zeros_like(along), where=mags > 0)
    step = -(vecs @ along[..., None])[..., 0]
    length = np.sqrt(np.vecdot(step, step))
    step *= (_NEWTON_RADIUS / np.maximum(length, _NEWTON_RADIUS))[:, None]
    moves = bases[..., 1:] @ step.view(complex).reshape(n, 2, d - 1, 1)
    # three times the step, the full step and its three halvings
    lengths = np.array([3, 1, 0.5, 0.25, 0.125])[:, None, None]
    trials = factors[:, None] + lengths * moves[:, None, ..., 0]
    trials /= np.sqrt(np.vecdot(trials, trials).real)[..., None]
    vectors = trials[..., 0, :, None] * trials[..., 1, None, :]
    vectors = vectors.reshape(n, -1, d * d)
    images = hermitian @ vectors.swapaxes(1, 2)
    return trials, np.vecdot(vectors, images.swapaxes(1, 2)).real


def _seesaw(tables: np.ndarray, owner: np.ndarray, right: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """Local minimization of each start's value over product states, batched
    over starts.

    Start n minimizes the expectation of operator owner[n] of the
    `_matrix_map` tables, from the right factor right[n] and its value
    values[n], in rounds of a seesaw sweep or a Newton step, which reads
    only H, tables[owner[n], 2].  A seesaw sweep alternates exact
    minimizations (Lewenstein et al., PRA 62, 052310 (2000)): with one
    factor fixed the expectation is a Hermitian form in the other,
    minimized by its lowest eigenvector, so no half-step raises a start's
    value.  The seesaw converges linearly at best and crawls on flat
    minima, which Riemannian Newton steps on the product of the two unit
    spheres modulo phases finish (Absil, Mahony & Sepulchre, Optimization
    Algorithms on Matrix Manifolds (2008), ch. 6; `_newton_trials`).  The
    round rule, for each start still moving:

    * in the first `_SEESAW_SWEEPS` rounds it takes one sweep;
    * in later rounds it takes the first trial along its Newton step
      (three times the step, the step, then its halvings) that lowers its
      value, and where none does, one sweep from its own right factor;
    * after the first round it takes a sweep only where the sweep does not
      raise its value, which round-off can do, and keeps its own factors
      and value otherwise;
    * it stops when its round lowers it by no more than `_SEESAW_TOL`, and
      every start after `_SEESAW_SWEEPS + _NEWTON_STEPS` rounds.

    So each start returns the lowest value it held after any round.

    Each start's path depends on no other start.
    """
    values = values.copy()
    factors = np.empty((len(right), 2, right.shape[1]), dtype=complex)
    factors[:, 1] = right
    active = np.arange(len(right))
    for round_ in range(_SEESAW_SWEEPS + _NEWTON_STEPS):
        before = values[active]
        stuck = active
        if round_ >= _SEESAW_SWEEPS:
            trials, trial_values = _newton_trials(tables[owner[active], 2],
                                                  factors[active])
            lower = trial_values < before[:, None]
            moved = lower.any(axis=1)
            # the first trial that lowers the value
            taken = lower[moved].argmax(axis=1)
            values[active[moved]] = trial_values[moved, taken]
            factors[active[moved]] = trials[moved, taken]
            stuck = active[~moved]
        if stuck.size:
            swept, swept_values = _sweep(tables, owner[stuck],
                                         factors[stuck, 1])
            if round_:
                # the first sweep sets the left factors; a later one can
                # raise a start at round-off, and that start keeps its own
                # factors and value
                takes = swept_values <= values[stuck]
                stuck, swept, swept_values = (stuck[takes], swept[takes],
                                              swept_values[takes])
            factors[stuck], values[stuck] = swept, swept_values
        active = active[before - values[active] > _SEESAW_TOL]
        if not active.size:
            break
    return values


def _separable_floors(tables: np.ndarray, config: SamplerConfig) -> np.ndarray:
    """Lowest sampled-and-refined value of each of the K operators of the
    `_matrix_map` tables.

    One stable sort of each operator's row of `_pool_scores` picks its
    min(_SEESAW_STARTS, scored factors) lowest right factors, ties to the
    earlier one in pool order, and they run through one batched local
    search (`_seesaw`), whose first half-step replaces the left factors.
    """
    scores, right = _pool_scores(tables, config)
    lowest = np.argsort(scores, axis=1, kind="stable")[:, :_SEESAW_STARTS]
    pooled = np.take_along_axis(scores, lowest, axis=1)
    k, starts = lowest.shape
    refined = _seesaw(tables, np.repeat(np.arange(k), starts),
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
    non-Hermitian W is probed as its Hermitian part H.  The pool of
    `config.count` product states is the first `count` pairs, in shell
    order, of an m x m grid of seeded Haar factors, m = ceil(sqrt(count)):
    only 2m factors are drawn, and every pair of the first m - 1 of each is
    in the pool, so only the last shell is masked.  Each right factor is
    scored by its best in-pool left partner, one real matrix product on the
    d^2 real coordinates of each Hermitian pair per block of right factors
    (`_POOL_BLOCK`), into one table of K rows; a block of a sequence of K
    operators holds K reduced forms per right factor, so memory grows with
    K.  One stable sort of each operator's scores picks its eight best
    right factors, ties to the earlier one, and a local search (`_seesaw`)
    runs them in at most 54 rounds: four rounds of one seesaw sweep,
    alternating lowest eigenvectors of W reduced to one factor
    (Lewenstein et al., PRA 62, 052310 (2000)), then rounds of a Riemannian
    Newton step on the product of the two unit spheres (its model is H in
    the frame [a, U_a] (x) [b, U_b]), where the seesaw alone crawls on flat
    minima: the first of 3, 1, 1/2, 1/4 and 1/8 times the step that lowers
    the value, or a sweep from the start's own factors where none does;
    after the first round a sweep that would raise a start at round-off is
    not taken.  A start stops once its round lowers it by no more than
    1e-15, an absolute rule: on an operator scaled far above unit norm,
    round-off decides it.

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
