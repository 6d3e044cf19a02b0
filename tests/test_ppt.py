import math

import numpy as np
import pytest

from entwit import (
    CROSSING_GAMMA,
    DETECTION_GAMMA,
    BipartiteOperator,
    SamplerConfig,
    SimplexParams,
    certify_witness,
    classify_ppt,
    detection_profile,
    horodecki_state,
    hs_norm,
    identity,
    line_witness,
    maximally_mixed,
    min_separable_expectation,
    nearest_ppt,
    partial_transpose,
    region_witnesses,
    simplex_state,
)
from entwit import ppt, reproduce
from entwit.families import (_bell_diagonal, _family_weights,
                             _horodecki_params, _pt_blocks, _pt_weights)
from entwit.operators import _as_operator
from entwit.ppt import (
    _broadcast_forms,
    _matrix_map,
    _newton_trials,
    _pool_factors,
    _pool_scores,
    _reduced_forms,
    _second_order_model,
    _seesaw,
    _separable_floors,
    _shell_ranks,
    _tangent_bases,
)
from entwit.reproduce import _threshold_lines, check_sampler_floor
from entwit.witness import (_certify_stack, _line_pair, _region_traces,
                            _tangent_traces)


def test_classify_ppt_examples():
    assert classify_ppt(maximally_mixed(3, 3)).label == "PPT"
    assert classify_ppt(horodecki_state(0.5)).label == "NPT"
    assert classify_ppt(horodecki_state(3.5)).label == "PPT"


def test_classify_ppt_agrees_with_pt_spectrum():
    for b in np.arange(0, 5.25, 0.25):
        rho = horodecki_state(b)
        verdict = classify_ppt(rho)
        direct = float(np.linalg.eigvalsh(
            partial_transpose(rho, 2).entries)[0])
        assert verdict.min_pt_eigenvalue == pytest.approx(direct, abs=1e-14)
        assert verdict.label == ("NPT" if direct < -1e-10 else "PPT")


def test_nearest_ppt_fixed_point_on_ppt_input():
    rho = horodecki_state(2.5)
    result = nearest_ppt(rho)
    assert result.converged
    assert hs_norm(result.state.op - rho.op) < 1e-9


def test_nearest_ppt_finds_analytic_points():
    cases = [
        ((0.5, 0.0), (0.25, 0.0)),
        ((0.0, 0.8), (1 / 12, 7 / 15)),
    ]
    for (alpha, beta), (na, nb) in cases:
        rho = simplex_state(SimplexParams(alpha, beta, 0)).density()
        target = simplex_state(SimplexParams(na, nb, 0)).density()
        result = nearest_ppt(rho)
        assert result.converged
        assert result.min_pt_eigenvalue >= -1e-10
        assert hs_norm(result.state.op - target.op) < 1e-6
        # never beaten by the analytic PPT candidate
        assert hs_norm(result.state.op - rho.op) <= hs_norm(
            target.op - rho.op) + 1e-9


def test_nearest_ppt_reports_non_convergence():
    rho = simplex_state(SimplexParams(0.5, 0, 0)).density()
    result = nearest_ppt(rho, max_iter=1)
    assert not result.converged
    assert result.iterations == 1
    assert result.residual > 0
    assert result.state.op.trace().real == pytest.approx(1)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_nearest_ppt_rejects_max_iter_below_one(max_iter):
    rho = simplex_state(SimplexParams(0.5, 0, 0)).density()
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        nearest_ppt(rho, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        ppt._dykstra(ppt._BELL_SPACE, _family_weights(0.5, 0, 0)[None],
                     1e-10, max_iter)


_DYKSTRA_PARAMS = [(0.5, 0.0, 0.0), (0.0, 0.8, 0.0), (0.7, 0.1, 0.0),
                   (0.3, 0.1, 0.2), (0.6, -0.2, -0.3), (0.1, 0.5, 0.3),
                   (0.1, 0.05, 0.0), (0.0, 0.0, 0.0)]
_DYKSTRA_HORODECKI = (0.5, 2.5)


def _dykstra_inputs():
    """NPT states of both gamma = 0 regions and off the slice, PPT states,
    and a Horodecki state, as one stack."""
    states = [simplex_state(SimplexParams(*p)).density()
              for p in _DYKSTRA_PARAMS]
    return states + [horodecki_state(b) for b in _DYKSTRA_HORODECKI]


def _dykstra_weights():
    """The Bell weights of `_dykstra_inputs()`, whose matrices they build
    bit for bit, then 200 seeded Dirichlet(1, ..., 1) weight vectors."""
    params = _DYKSTRA_PARAMS + [_horodecki_params(b) for b in _DYKSTRA_HORODECKI]
    family = np.array([_family_weights(*p) for p in params])
    return np.concatenate([family,
                           np.random.default_rng(19).dirichlet(np.ones(9), 200)])


@pytest.mark.parametrize("max_iter", [10000, 12, 1])
def test_dykstra_stack_rows_equal_single_runs(max_iter):
    states = _dykstra_inputs()
    runs = ppt._dykstra(ppt._matrix_space(3, 3),
                        np.stack([rho.entries for rho in states]), 1e-10,
                        max_iter)
    for i, rho in enumerate(states):
        single = nearest_ppt(rho, max_iter=max_iter)
        assert np.array_equal(single.state.entries, runs.states[i]), i
        assert single.iterations == runs.iterations[i], i
        assert single.residual == runs.residual[i], i
        assert single.converged == runs.converged[i], i
        assert single.min_pt_eigenvalue == runs.min_pt_eigenvalue[i], i
    if max_iter == 12:
        # the PPT inputs leave the stack early, the NPT ones run out
        assert runs.converged.any() and not runs.converged.all()
        assert set(runs.iterations[~runs.converged]) == {12}
        assert runs.iterations[runs.converged].max() < 12


def test_dykstra_rows_on_family_states_equal_nearest_ppt():
    # the battery's real stack of gamma = 0 NPT points against the public
    # call on each family state: one real path, bit for bit
    rng = np.random.default_rng(5)
    alpha, beta = np.concatenate([reproduce._random_region_points(rng, "I", 5),
                                  reproduce._random_region_points(rng, "II", 5)],
                                 axis=1)
    stack = reproduce._family_states(alpha, beta, 0.0)
    assert stack.dtype == np.float64
    runs = ppt._dykstra(ppt._matrix_space(3, 3), stack, 1e-10, 10000)
    assert runs.converged.all() and runs.states.dtype == np.float64
    for i, params in enumerate(zip(alpha, beta, np.zeros(len(alpha)))):
        rho = simplex_state(params).density()
        assert np.array_equal(rho.entries, stack[i]), i
        single = nearest_ppt(rho)
        assert np.array_equal(single.state.entries, runs.states[i]), i
        assert single.iterations == runs.iterations[i], i
        assert single.residual == runs.residual[i], i
        assert single.min_pt_eigenvalue == runs.min_pt_eigenvalue[i], i


def test_dykstra_inputs_are_built_from_their_weights():
    mats = np.stack([rho.entries for rho in _dykstra_inputs()])
    assert np.array_equal(_bell_diagonal(_dykstra_weights()[:len(mats)]), mats)


@pytest.mark.parametrize("max_iter", [10000, 12, 1])
def test_bell_space_runs_equal_matrix_space_runs(max_iter):
    weights = _dykstra_weights()
    bell = ppt._dykstra(ppt._BELL_SPACE, weights, 1e-10, max_iter)
    matrix = ppt._dykstra(ppt._matrix_space(3, 3), _bell_diagonal(weights),
                          1e-10, max_iter)
    assert np.array_equal(bell.iterations, matrix.iterations)
    assert np.array_equal(bell.converged, matrix.converged)
    assert np.abs(_bell_diagonal(bell.states) - matrix.states).max() < 1e-12
    assert np.abs(bell.residual - matrix.residual).max() < 1e-12
    assert np.abs(bell.min_pt_eigenvalue
                  - matrix.min_pt_eigenvalue).max() < 1e-12
    if max_iter == 10000:
        # both kinds of input, and NPT inputs that really move
        assert bell.converged.all()
        assert bell.iterations.min() == 1 and bell.iterations.max() > 12
    else:
        assert not bell.converged.all()


@pytest.mark.parametrize("max_iter", [10000, 12, 1])
def test_bell_space_stack_rows_equal_single_runs(max_iter):
    weights = _dykstra_weights()
    runs = ppt._dykstra(ppt._BELL_SPACE, weights, 1e-10, max_iter)
    for i, w in enumerate(weights):
        single = ppt._dykstra(ppt._BELL_SPACE, w[None], 1e-10, max_iter)
        for field in single._fields:
            assert np.array_equal(getattr(single, field)[0],
                                  getattr(runs, field)[i]), (i, field)


def test_pt_block_map_is_an_isometry_with_its_adjoint_as_inverse():
    rng = np.random.default_rng(3)
    weights = rng.standard_normal((50, 9))
    blocks = _pt_blocks(weights)
    assert np.allclose(np.sqrt(3) * np.linalg.norm(blocks, axis=1),
                       np.linalg.norm(weights, axis=1), rtol=0, atol=1e-14)
    assert np.abs(_pt_weights(blocks) - weights).max() < 1e-14
    # onto: every Hermitian 3x3 matrix is the block of its weights
    z = rng.standard_normal((50, 3, 3)) + 1j * rng.standard_normal((50, 3, 3))
    hermitian = (z + z.conj().swapaxes(1, 2)).reshape(-1, 9)
    assert np.abs(_pt_blocks(_pt_weights(hermitian)) - hermitian).max() < 1e-14


def test_bell_pt_projection_equals_matrix_projection():
    rng = np.random.default_rng(4)
    weights = np.concatenate([_dykstra_weights(),
                              rng.standard_normal((100, 9)),
                              rng.standard_normal((100, 9)) * 1e-3 + 1 / 9])
    bell = _bell_diagonal(ppt._project_bell_pt(weights))
    matrix = ppt._project_pt_psd(_bell_diagonal(weights), 3, 3)
    assert np.abs(bell - matrix).max() < 1e-13
    # the clip moves some of them
    assert np.abs(ppt._project_bell_pt(weights) - weights).max() > 0.1


def test_simplex_projection_sorts_its_own_rows():
    rng = np.random.default_rng(5)
    rows = np.concatenate([rng.standard_normal((100, 9)),
                           rng.dirichlet(np.ones(9), 100)])
    projected = ppt._project_spectra_to_simplex(rows)
    assert np.array_equal(
        ppt._project_spectra_to_simplex(np.sort(rows, axis=1)),
        np.sort(projected, axis=1))
    perm = rng.permutation(9)
    assert np.array_equal(ppt._project_spectra_to_simplex(rows[:, perm]),
                          projected[:, perm])
    assert projected.min() >= 0
    assert np.abs(projected.sum(axis=1) - 1).max() < 1e-14
    # a point of the simplex is its own projection, to round-off
    inside = rows[100:]
    assert np.abs(ppt._project_spectra_to_simplex(inside) - inside).max() < 1e-15


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, count=0)


@pytest.mark.parametrize("seed, count, message", [
    (-1, 10, "seed must be at least 0, got -1"),
    (1.5, 10, "seed must be an integer, got 1.5"),
    (True, 10, "seed must be an integer, got True"),
    ("3", 10, "seed must be an integer, got '3'"),
    (0, 10.0, "count must be an integer, got 10.0"),
    (0, True, "count must be an integer, got True"),
    (0, 0, "count must be at least 1, got 0"),
    (0, -5, "count must be at least 1, got -5"),
])
def test_sampler_config_rejects_bad_fields(seed, count, message):
    with pytest.raises(ValueError) as raised:
        SamplerConfig(seed=seed, count=count)
    assert str(raised.value) == message


def _raw_pool_minimum(witness, config):
    scores, _ = _pool_scores(_matrix_map(witness.op.entries[None], 3), config)
    return float(scores.min())


def _tangent_line_witnesses():
    # at lambda_min the line witness touches the separable set exactly when
    # 1/sqrt(21) < |gamma| < sqrt(5)/7
    witnesses = []
    for magnitude in np.linspace(DETECTION_GAMMA + 1e-3, math.sqrt(5) / 7 - 1e-3, 4):
        for gamma in (-magnitude, magnitude):
            witness, _ = line_witness(gamma, detection_profile(gamma).lambda_min)
            witnesses.append(witness)
    return witnesses


def test_min_separable_expectation_on_identity():
    for seed in range(3):
        floor = min_separable_expectation(
            identity(3, 3), SamplerConfig(seed=seed, count=50))
        assert floor == pytest.approx(1.0, abs=1e-12)


def test_min_separable_expectation_certified_witness():
    witness_one, _ = region_witnesses()
    floor = min_separable_expectation(
        witness_one, SamplerConfig(seed=1, count=20000))
    assert floor >= -1e-9


def test_min_separable_expectation_monotone_in_count():
    witness_one, _ = region_witnesses()
    floors = [
        _raw_pool_minimum(witness_one, SamplerConfig(seed=9, count=count))
        for count in (200, 400, 800)
    ]
    assert floors[0] >= floors[1] >= floors[2]


def test_refinement_never_raises_the_minimum():
    witnesses = list(region_witnesses()) + _tangent_line_witnesses()[:2]
    for seed, witness in enumerate(witnesses):
        config = SamplerConfig(seed=seed, count=300)
        assert min_separable_expectation(witness, config) <= \
            _raw_pool_minimum(witness, config) + 1e-15


def test_min_separable_expectation_finds_violations():
    # -P00 is negative on product states overlapping |phi+>
    phi_projector = simplex_state(SimplexParams(1, 0, 0)).op
    floor = min_separable_expectation(
        -1 * phi_projector, SamplerConfig(seed=2, count=2000))
    assert floor < -1e-3


def test_uncertified_line_witness_probe_recorded():
    witness, _ = line_witness(CROSSING_GAMMA, 0.5)
    assert not certify_witness(witness).certified
    floor = min_separable_expectation(
        witness, SamplerConfig(seed=11, count=5000))
    # sufficiency only: the probe value is recorded either way
    assert isinstance(floor, float)


def test_seesaw_reaches_zero_on_tangent_witnesses():
    # both region witnesses and the tangent line witnesses touch the
    # separable set, so their separable minimum is exactly 0
    witnesses = list(region_witnesses()) + _tangent_line_witnesses()
    for seed in range(3):
        for index, witness in enumerate(witnesses):
            floor = min_separable_expectation(
                witness, SamplerConfig(seed=10 * seed + index, count=50))
            assert abs(floor) <= 1e-9


def test_seesaw_exact_minimum_on_bell_projector_offsets():
    # the largest overlap of a product state with a maximally entangled
    # two-qutrit state is 1/3
    phi_projector = simplex_state(SimplexParams(1, 0, 0)).op
    for seed in range(4):
        config = SamplerConfig(seed=seed, count=50)
        shifted = min_separable_expectation(
            0.3 * identity(3, 3) - phi_projector, config)
        negated = min_separable_expectation(-1 * phi_projector, config)
        assert shifted == pytest.approx(-1 / 30, abs=1e-12)
        assert negated == pytest.approx(-1 / 3, abs=1e-12)


def test_seesaw_keeps_slack_line_witnesses_positive():
    # past sqrt(5)/7, lambda_min is set by |c2| = 1 while |c1| < 1: the
    # witness stays strictly above the separable set
    for magnitude in (0.34, 0.38, 3 / 7):
        for gamma in (-magnitude, magnitude):
            witness, _ = line_witness(gamma, detection_profile(gamma).lambda_min)
            for seed in range(2):
                floor = min_separable_expectation(
                    witness, SamplerConfig(seed=seed, count=50))
                assert floor > 1e-6


@pytest.mark.parametrize("count", [50, 2000, 20000])
def test_mirror_line_witnesses_have_equal_floors(count):
    # the line witnesses at gamma and -gamma at lambda_min are mirror
    # images with one separable minimum, so a probe that converges gives
    # them one floor; the seesaw alone stopped up to 6.6e-9 apart on them
    witnesses = [line_witness(gamma, detection_profile(gamma).lambda_min)[0]
                 for magnitude in (0.34, 0.38, 3 / 7)
                 for gamma in (magnitude, -magnitude)]
    for seed in range(5):
        floors = min_separable_expectation(
            witnesses, SamplerConfig(seed=seed, count=count))
        assert np.abs(floors[0::2] - floors[1::2]).max() <= 1e-12


def test_batched_probe_matches_single_calls():
    phi_projector = simplex_state(SimplexParams(1, 0, 0)).op
    witnesses = (list(region_witnesses()) + _tangent_line_witnesses()
                 + [line_witness(0.38, detection_profile(0.38).lambda_min)[0],
                    0.3 * identity(3, 3) - phi_projector,
                    line_witness(CROSSING_GAMMA, 0.5)[0]])
    config = SamplerConfig(seed=4, count=ppt._POOL_BLOCK + 100)
    batched = min_separable_expectation(witnesses, config)
    assert batched.shape == (len(witnesses),)
    singles = [min_separable_expectation(w, config) for w in witnesses]
    assert np.abs(batched - singles).max() <= 1e-12
    with pytest.raises(ValueError):
        min_separable_expectation([], config)


def _shell_order(m):
    # shell s: (s, 0), ..., (s, s), then (0, s), ..., (s - 1, s)
    return [pair for shell in range(m)
            for pair in [(shell, j) for j in range(shell + 1)]
            + [(i, shell) for i in range(shell)]]


def _pool_pairs(config):
    """The pool's (left, right) factor pairs, in shell order."""
    left, right = _pool_factors(3, config)
    pairs = _shell_order(len(left))[:config.count]
    return (np.array([left[i] for i, _ in pairs]),
            np.array([right[j] for _, j in pairs]))


def test_shell_ranks_follow_the_shell_order():
    for m in (1, 2, 5, 9):
        ranks = _shell_ranks(np.arange(m)[:, None], np.arange(m))
        order = _shell_order(m)
        assert [ranks[i, j] for i, j in order] == list(range(m * m))
        # one row or one column reads the same ranks
        assert np.array_equal(_shell_ranks(m - 1, np.arange(2, m)),
                              ranks[m - 1, 2:])
        assert np.array_equal(_shell_ranks(np.arange(m), m - 1), ranks[:, m - 1])


def test_pool_extends_in_shell_order():
    # around one column block (m = 64 right factors fit one block of
    # _POOL_BLOCK pairs) and two (m = 65)
    counts = [1, 2, 3]
    for m in (math.isqrt(ppt._POOL_BLOCK), math.isqrt(ppt._POOL_BLOCK) + 1):
        counts += [m * m - 1, m * m, m * m + 1]
    pools = [_pool_pairs(SamplerConfig(seed=6, count=count)) for count in counts]
    for count, (left, right) in zip(counts, pools):
        # the smallest grid that holds the pool: (m - 1)^2 < count <= m^2
        m = len(_pool_factors(3, SamplerConfig(seed=6, count=count))[0])
        assert (m - 1) ** 2 < count <= m * m
        assert left.shape == right.shape == (count, 3)
        assert np.allclose(np.linalg.norm(left, axis=1), 1, rtol=0, atol=1e-15)
        assert np.allclose(np.linalg.norm(right, axis=1), 1, rtol=0, atol=1e-15)
    for (left, right), (longer_left, longer_right) in zip(pools, pools[1:]):
        assert np.array_equal(longer_left[:len(left)], left)
        assert np.array_equal(longer_right[:len(right)], right)


def _random_hermitian(rng, count, dim):
    z = rng.standard_normal((count, dim, dim, 2)).view(complex)[..., 0]
    return (z + z.conj().swapaxes(-1, -2)) / 2


def _random_vectors(rng, count, dim):
    z = rng.standard_normal((count, dim, 2)).view(complex)[..., 0]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@pytest.mark.parametrize("count", [1, 4, "battery"])
def test_bloch_expectation_matches_brute_force(count):
    # random complex Hermitian operators, not Bell-diagonal, and the
    # battery's 22 Bell-diagonal witnesses: a^dag L(b) a and b^dag R(a) b
    # are <a b|W|a b>
    rng = np.random.default_rng(22 if count == "battery" else count)
    mats = (_bell_diagonal(_battery_traces()) if count == "battery"
            else _random_hermitian(rng, count, 9))
    count = len(mats)
    left, right = _random_vectors(rng, 500, 3), _random_vectors(rng, 500, 3)
    tables = _matrix_map(mats, 3)
    owner = np.repeat(np.arange(count), 500)
    vecs = np.einsum("ni,nj->nij", left, right).reshape(500, 9)
    brute = np.einsum("na,kab,nb->kn", vecs.conj(), mats, vecs).real
    scale = np.linalg.norm(mats, axis=(1, 2))[:, None]
    for side, fixed, free in ((0, right, left), (1, left, right)):
        forms = _reduced_forms(tables[:, side], owner,
                               np.tile(fixed, (count, 1)))
        free = np.tile(free, (count, 1))
        values = np.einsum("na,nab,nb->n", free.conj(), forms, free).real
        assert forms.shape == (count * 500, 3, 3)
        assert (np.abs(values.reshape(count, 500) - brute) <= 1e-14 * scale).all()


def _pool_brute_force(mats, config):
    """Brute-force score of each right factor with a pair in the pool: the
    lowest <a_i b_j|W|a_i b_j> over its pairs, from the dense matrices."""
    left, right = _pool_factors(3, config)
    pairs = _shell_order(len(left))[:config.count]
    columns = sorted({j for _, j in pairs})
    scores = np.full((len(mats), len(columns)), np.inf)
    for i, j in pairs:
        v = np.kron(left[i], right[j])
        values = np.einsum("a,kab,b->k", v.conj(), mats, v).real
        scores[:, j] = np.minimum(scores[:, j], values)
    return scores, right[columns]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rank_one_offsets_reach_their_schmidt_floor(d):
    # the largest overlap of a product state with a unit psi in C^d (x) C^d
    # is s1^2, s1 its largest Schmidt coefficient, so the separable minimum
    # of c 1 - |psi><psi| is c - s1^2; an anti-Hermitian part changes nothing
    rng = np.random.default_rng(31)
    witnesses, floors = [], []
    for _ in range(6):
        psi = _random_vectors(rng, 1, d * d)[0]
        schmidt = np.linalg.svd(psi.reshape(d, d), compute_uv=False)
        witnesses.append(0.5 * np.eye(d * d) - np.outer(psi, psi.conj()))
        floors.append(0.5 - schmidt[0] ** 2)
    skew = _random_hermitian(rng, 1, d * d)[0] * 1j
    for seed in range(6):
        config = SamplerConfig(seed=seed, count=200)
        listed = min_separable_expectation(
            [BipartiteOperator(d, d, w) for w in witnesses], config)
        assert np.abs(listed - floors).max() <= 1e-12
        single = min_separable_expectation(
            BipartiteOperator(d, d, witnesses[seed]), config)
        assert abs(single - floors[seed]) <= 1e-12
        skewed = min_separable_expectation(
            BipartiteOperator(d, d, witnesses[seed] + skew), config)
        assert abs(skewed - floors[seed]) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_tangent_bases_are_unitaries_with_the_factor_first(d):
    rng = np.random.default_rng(d)
    vecs = _random_vectors(rng, 20, d)
    # a factor with a zero first entry has no phase to take
    vecs[0, 0] = 0
    vecs[0] /= np.linalg.norm(vecs[0])
    bases = _tangent_bases(vecs)
    assert np.array_equal(bases[:, :, 0], vecs)
    products = bases.conj().swapaxes(1, 2) @ bases
    assert np.abs(products - np.eye(d)).max() <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_second_order_model_error_falls_like_t_cubed(d):
    # the model g + 2 c.s + s.K s of `_second_order_model` against the value
    # at normalize(a + t x) (x) normalize(b + t y), for x and y tangent to a
    # and b: an error that falls like t^3 pins the gradient and the blocks
    # P and Q of the Hessian
    rng = np.random.default_rng(50 + d)
    w = _random_hermitian(rng, 1, d * d)[0]
    a, b, x, y = _random_vectors(rng, 4, d)
    x -= a * np.vdot(a, x)
    y -= b * np.vdot(b, y)
    g, bases, grad, hessian = _second_order_model(
        _matrix_map(w[None], d)[:, 2], np.array([[a, b]]))
    assert abs(g[0] - np.vdot(np.kron(a, b), w @ np.kron(a, b)).real) <= 1e-14
    assert np.abs(hessian - hessian.swapaxes(1, 2)).max() <= 1e-14
    xi, eta = bases[0, 0, :, 1:].conj().T @ x, bases[0, 1, :, 1:].conj().T @ y
    s = np.concatenate([xi, eta]).view(float)
    errors = []
    for t in (1e-2, 1e-3, 1e-4):
        v = np.kron(*(f / np.linalg.norm(f) for f in (a + t * x, b + t * y)))
        model = g[0] + 2 * t * grad[0] @ s + t * t * s @ hessian[0] @ s
        errors.append(abs(model - np.vdot(v, w @ v).real))
    # each tenfold cut of t cuts the error about a thousandfold
    assert errors[0] > 1e-8
    assert 500 < errors[0] / errors[1] < 2000
    assert 500 < errors[1] / errors[2] < 2000


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_second_order_model_at_the_schmidt_minimizer(d):
    # c 1 - |psi><psi| takes its separable minimum c - s1^2 at a = u1,
    # b = (V^dag)_0 of the SVD psi = U S V^dag: the model's value is that
    # minimum, its gradient vanishes and its Hessian is positive definite
    # there, since s1 > s2 for a random psi
    rng = np.random.default_rng(70 + d)
    psi = _random_vectors(rng, 1, d * d)[0]
    u, schmidt, vh = np.linalg.svd(psi.reshape(d, d))
    hermitian = 0.5 * np.eye(d * d) - np.outer(psi, psi.conj())
    g, _, grad, hessian = _second_order_model(
        hermitian[None], np.array([[u[:, 0], vh[0]]]))
    assert abs(g[0] - (0.5 - schmidt[0] ** 2)) <= 1e-14
    assert np.abs(grad).max() <= 1e-12
    assert np.linalg.eigvalsh(hessian[0])[0] > 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_newton_trial_values_are_those_of_their_factors(d):
    # five trials along one tangent move t, at 3, 1, 1/2, 1/4 and 1/8 times
    # it: trial k is the unit vector along a + l_k t with t orthogonal to
    # a, so trial_k / <a, trial_k> - a is l_k t.  Each trial value is
    # <v|H|v> of the product v of the trial factors
    rng = np.random.default_rng(90 + d)
    hermitian = _random_hermitian(rng, 5, d * d)
    factors = _random_vectors(rng, 10, d).reshape(5, 2, d)
    trials, values = _newton_trials(hermitian, factors)
    assert trials.shape == (5, 5, 2, d) and values.shape == (5, 5)
    assert np.allclose(np.linalg.norm(trials, axis=-1), 1, rtol=0, atol=1e-15)
    overlaps = np.einsum("nfi,ntfi->ntf", factors.conj(), trials)
    moves = trials / overlaps[..., None] - factors[:, None]
    lengths = np.array([3, 1, 0.5, 0.25, 0.125])
    full = moves[:, 1]
    assert np.linalg.norm(full, axis=-1).min() > 1e-3
    assert np.abs(moves - lengths[:, None, None] * full[:, None]).max() <= 1e-14
    for n, k in np.ndindex(values.shape):
        v = np.kron(*trials[n, k])
        brute = np.vdot(v, hermitian[n] @ v).real
        assert abs(values[n, k] - brute) <= 1e-14 * np.linalg.norm(hermitian[n])


def _flat_minimum_witnesses():
    """The region-II witness and the line witnesses at gamma = +-3/7 and
    lambda_min, whose separable minima are degenerate: there the seesaw
    alone crawls."""
    lines = [line_witness(gamma, detection_profile(gamma).lambda_min)[0]
             for gamma in (3 / 7, -3 / 7)]
    return np.stack([w.op.entries for w in (region_witnesses()[1], *lines)])


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_three_times_the_step_lands_on_flat_minima(seed, monkeypatch):
    # on a degenerate minimum a Newton step covers a third of the distance
    # and three times it lands on the minimum, so the first trial lowers
    # some start's value by far more than round-off, and below the full
    # step's value, and is taken.  The floors stay those of the trial order
    # without it (the step, then its halvings) within the absolute stop
    # rule, which decides where a start on a flat minimum stops: the line
    # witnesses have norm 0.0098, and their floors of the two orders differ
    # by up to 1.3e-16.  The region-II witness touches the separable set
    mats = _flat_minimum_witnesses()
    tables = _matrix_map(mats, 3)
    config = SamplerConfig(seed=seed, count=20000)
    newton = ppt._newton_trials
    taken = []

    def spy(hermitian, factors):
        trials, values = newton(hermitian, factors)
        v = np.einsum("ni,nj->nij", factors[:, 0], factors[:, 1])
        v = v.reshape(len(factors), -1)
        current = np.einsum("na,nab,nb->n", v.conj(), hermitian, v).real
        taken.append((values[:, 0] < current - 1e-12)
                     & (values[:, 0] < values[:, 1]))
        return trials, values

    monkeypatch.setattr(ppt, "_newton_trials", spy)
    floors = _separable_floors(tables, config)
    assert np.concatenate(taken).any()
    monkeypatch.setattr(ppt, "_newton_trials",
                        lambda h, f: tuple(x[:, 1:] for x in newton(h, f)))
    without = _separable_floors(tables, config)
    assert np.abs(floors - without).max() <= ppt._SEESAW_TOL
    assert abs(floors[0]) <= 1e-12


@pytest.mark.parametrize("count", [1, 2, 3, 5, 48, 63, 64, 65, 500,
                                   91 * 90, 91 * 90 + 1])
def test_pool_scores_match_brute_force(count):
    # each right factor's score is its best in-pool pair; factors without
    # one are not scored.  At m (m - 1) the last right factor has no pair in
    # the pool, at m (m - 1) + 1 one: for m = 91 its column is the only one
    # of the third block of 45
    mats = _random_hermitian(np.random.default_rng(count), 3, 9)
    config = SamplerConfig(seed=count, count=count)
    scores, right = _pool_scores(_matrix_map(mats, 3), config)
    brute, brute_right = _pool_brute_force(mats, config)
    scale = np.linalg.norm(mats, axis=(1, 2))[:, None]
    assert scores.shape == brute.shape
    assert np.array_equal(right, brute_right)
    assert (np.abs(scores - brute) <= 1e-14 * scale).all()


def test_bell_pool_scores_match_brute_force():
    # the battery's 22 Bell-diagonal witnesses across three column blocks
    # (m = 91, 45 right factors a block)
    mats = _bell_diagonal(_battery_traces())
    config = SamplerConfig(seed=7, count=2 * ppt._POOL_BLOCK + 1)
    scores, _ = _pool_scores(_matrix_map(mats, 3), config)
    assert scores.shape == (22, 91)
    brute, _ = _pool_brute_force(mats, config)
    scale = np.linalg.norm(mats, axis=(1, 2))[:, None]
    assert (np.abs(scores - brute) <= 1e-14 * scale).all()


def _complex_feature_scores(tables, config):
    """`_pool_scores` on 2 d^2 real features: each pair's value as
    Re sum_pr conj(a_p) a_r L(b)_pr, the rows [Re, -Im] of conj(a) (x) a
    against the columns [Re; Im] of every form of L, and each block's forms
    from the tables gathered K n times."""
    d = math.isqrt(tables.shape[-1])
    left, right = _pool_factors(d, config)
    m, k = len(left), len(tables)
    last = m - 1
    right = right[:m - (m * last >= config.count)]
    pairs = left.conj()[:, :, None] * left[:, None, :]
    rows = np.concatenate([pairs.real, -pairs.imag], axis=1).reshape(m, -1)
    scores = np.empty((k, len(right)))
    width = max(1, ppt._POOL_BLOCK // m)
    for start in range(0, len(right), width):
        block = right[start:start + width]
        n = len(block)
        forms = _reduced_forms(tables[:, 0], np.repeat(np.arange(k), n),
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


def _assert_same_starts(mats, d, config):
    tables = _matrix_map(mats, d)
    scores, right = _pool_scores(tables, config)
    reference, reference_right = _complex_feature_scores(tables, config)
    assert np.array_equal(right, reference_right)
    scale = np.linalg.norm(mats, axis=(1, 2))[:, None]
    assert (np.abs(scores - reference) <= 1e-15 * scale).all()
    starts = np.argsort(scores, axis=1, kind="stable")[:, :8]
    assert np.array_equal(
        starts, np.argsort(reference, axis=1, kind="stable")[:, :8])


@pytest.mark.parametrize("seed", range(1, 21))
def test_battery_starts_are_those_of_complex_features(seed):
    # the pool scores each pair on the d^2 real coordinates of the
    # Hermitian forms; the battery's 22 witnesses at its sample count take
    # the eight starts that 2 d^2 features give
    _assert_same_starts(_bell_diagonal(_battery_traces()), 3,
                        SamplerConfig(seed=seed, count=100000))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_starts_are_those_of_complex_features(d):
    # complex Hermitian operators, not Bell-diagonal, across column blocks
    rng = np.random.default_rng(40 + d)
    for seed, count in ((0, 7), (1, 2000), (2, 2 * ppt._POOL_BLOCK + 1)):
        _assert_same_starts(_random_hermitian(rng, 6, d * d), d,
                            SamplerConfig(seed=seed, count=count))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("real", [True, False])
def test_broadcast_forms_are_the_gathered_forms(d, real):
    # form [k, j] is tables[k] times conj(b_j) (x) b_j, one product per
    # form, bit for bit, for real and complex tables
    rng = np.random.default_rng(60 + d)
    mats = (_random_hermitian(rng, 4, d * d).real if real
            else _random_hermitian(rng, 4, d * d))
    tables = _matrix_map(mats, d)
    assert tables.dtype == (np.float64 if real else np.complex128)
    vecs = _random_vectors(rng, 11, d)
    for side in (0, 1):
        forms = _broadcast_forms(tables[:, side], vecs)
        gathered = _reduced_forms(tables[:, side], np.repeat(np.arange(4), 11),
                                  np.tile(vecs, (4, 1)))
        assert forms.shape == (4, 11, d, d)
        assert np.array_equal(forms.reshape(-1, d, d), gathered)


def _probe_starts(tables, config, monkeypatch):
    """The floors of `_separable_floors`, and the start values and right
    factors that it hands the seesaw."""
    seen = {}

    def spy(tables, owner, right, values):
        seen.update(right=right, values=values)
        return _seesaw(tables, owner, right, values)

    monkeypatch.setattr(ppt, "_seesaw", spy)
    floors = _separable_floors(tables, config)
    return floors, seen["values"], seen["right"]


@pytest.mark.parametrize("count", [5, ppt._POOL_BLOCK - 1, ppt._POOL_BLOCK,
                                   ppt._POOL_BLOCK + 3, 2 * ppt._POOL_BLOCK + 1])
def test_running_selection_keeps_lowest_of_whole_pool(count, monkeypatch):
    # column blocks of any width pick the starts and floors of one block
    # holding every column, bit for bit.  A start's score may differ in its
    # last bits: at _POOL_BLOCK = 29 and m > 29 each block holds one right
    # factor, which numpy multiplies on its matrix-vector path
    witness_one, _ = region_witnesses()
    config = SamplerConfig(seed=12, count=count)
    for mats in (_random_hermitian(np.random.default_rng(8), 3, 9),
                 witness_one.op.entries[None]):
        tables = _matrix_map(mats, 3)
        monkeypatch.setattr(ppt, "_POOL_BLOCK", 10 ** 9)
        floors, values, right = _probe_starts(tables, config, monkeypatch)
        scores, _ = _pool_scores(tables, config)
        starts = min(scores.shape[1], 8)
        # each operator's lowest scores, lowest first
        assert np.array_equal(values.reshape(len(mats), starts),
                              np.sort(scores, axis=1)[:, :starts])
        scale = np.repeat(np.linalg.norm(mats, axis=(1, 2)), starts)
        for block in (29, 290, 4096):
            monkeypatch.setattr(ppt, "_POOL_BLOCK", block)
            blocked, blocked_values, blocked_right = _probe_starts(
                tables, config, monkeypatch)
            assert np.array_equal(blocked_right, right)
            assert np.array_equal(blocked, floors)
            assert (np.abs(blocked_values - values) <= 1e-15 * scale).all()


@pytest.mark.parametrize("count", [7, 50, 2000, 2 * ppt._POOL_BLOCK + 1])
def test_tied_scores_start_from_the_first_right_factors(count, monkeypatch):
    # every score of a zero operator is exactly 0, so the starts are the
    # first right factors in pool order
    config = SamplerConfig(seed=3, count=count)
    tables = _matrix_map(np.zeros((2, 9, 9)), 3)
    _, values, right = _probe_starts(tables, config, monkeypatch)
    first = _pool_scores(tables, config)[1][:8]
    assert not values.any()
    assert np.array_equal(right, np.tile(first, (2, 1)))


def _battery_traces():
    """Bell traces of the 22 witnesses whose floor the battery samples."""
    return np.concatenate([np.array(_region_traces()),
                           _tangent_traces(*_line_pair(*_threshold_lines()))[0]])


@pytest.mark.parametrize("seed", [3, 5, 77, 20240901])
def test_bell_floors_equal_min_separable_expectation(seed):
    # the battery's floor is the lowest of one probe of its 22 witnesses,
    # bit for bit; m = 94 right factors, 43 a column block, so three blocks
    # fill the score table
    samples = 2 * ppt._POOL_BLOCK + 500
    probed = min_separable_expectation(
        [BipartiteOperator(3, 3, mat)
         for mat in _bell_diagonal(_battery_traces())],
        SamplerConfig(seed=seed, count=samples))
    assert probed.shape == (22,)
    result = check_sampler_floor(samples, seed)
    assert result.passed
    assert result.computed == str(float(probed.min()))


def test_sampler_floor_probes_the_first_certified_operators(monkeypatch):
    # the floor probes the 22 operators that check_certifications certifies
    # first, bit for bit
    seen = {}

    def probe_spy(w, config):
        seen["probed"] = np.array([_as_operator(op).entries for op in w])
        return min_separable_expectation(w, config)

    def certify_spy(mats, dim_a, dim_b):
        seen["certified"] = mats
        return _certify_stack(mats, dim_a, dim_b)

    monkeypatch.setattr(reproduce, "min_separable_expectation", probe_spy)
    monkeypatch.setattr(reproduce, "_certify_stack", certify_spy)
    assert check_sampler_floor(7, 5).passed
    assert all(result.passed for result in reproduce.check_certifications())
    probed, certified = seen["probed"], seen["certified"]
    assert probed.shape == (22, 9, 9) and len(certified) == 42
    assert probed.dtype == certified.dtype == np.float64
    assert np.array_equal(probed, certified[:22])


def test_raw_minima_nonincreasing_in_count_to_round_off():
    # a longer pool extends a shorter one pair for pair, but a pair's score
    # may round differently in another count's column blocks, so a raw
    # minimum of the battery's witnesses can rise, by round-off only
    mats = _bell_diagonal(_battery_traces())
    tables = _matrix_map(mats, 3)
    bound = 1e-15 * np.linalg.norm(mats, axis=(1, 2))
    for seed in range(4):
        minima = np.array([
            _pool_scores(tables, SamplerConfig(seed=seed, count=count))[0].min(axis=1)
            for count in range(2, 2998, 7)])
        assert (np.diff(minima, axis=0) <= bound).all()


def _hundred_sweep_seesaw(tables, owner, right, values):
    """The probe's local search without Newton steps: seesaw sweeps until a
    sweep lowers a start by no more than 1e-15, at most 100 of them.  After
    the first, a start takes no sweep that raises it."""
    values, right = values.copy(), right.copy()
    active = np.arange(len(right))
    for sweep in range(100):
        k = owner[active]
        _, vecs = np.linalg.eigh(
            _reduced_forms(tables[:, 0], k, right[active]))
        vals, vecs = np.linalg.eigh(
            _reduced_forms(tables[:, 1], k, vecs[:, :, 0]))
        moving = values[active] - vals[:, 0] > 1e-15
        takes = (vals[:, 0] <= values[active]) | (sweep == 0)
        right[active[takes]] = vecs[takes, :, 0]
        values[active[takes]] = vals[takes, 0]
        active = active[moving]
        if not active.size:
            break
    return values


@pytest.mark.parametrize("seed", [0, 5, 77, 20240901])
def test_floors_at_most_those_of_hundred_seesaw_sweeps(seed, monkeypatch):
    # the Newton steps finish what 100 sweeps leave: on the battery's 22
    # witnesses at its sample count no floor ends above the seesaw's, and
    # the crawling line witnesses at |gamma| = 3/7 end lower
    tables = _matrix_map(_bell_diagonal(_battery_traces()), 3)
    config = SamplerConfig(seed=seed, count=100000)
    floors = _separable_floors(tables, config)
    monkeypatch.setattr(ppt, "_seesaw", _hundred_sweep_seesaw)
    reference = _separable_floors(tables, config)
    assert (floors <= reference + 1e-15).all()
    assert (floors < reference - 1e-10).any()


@pytest.mark.parametrize("seed", [0, 5, 77])
def test_seesaw_rounds_alone_are_the_hundred_sweeps(seed, monkeypatch):
    # with no Newton rounds and 100 opening rounds the local search is the
    # plain seesaw, bit for bit
    tables = _matrix_map(_bell_diagonal(_battery_traces()), 3)
    config = SamplerConfig(seed=seed, count=100000)
    monkeypatch.setattr(ppt, "_SEESAW_SWEEPS", 100)
    monkeypatch.setattr(ppt, "_NEWTON_STEPS", 0)
    floors = _separable_floors(tables, config)
    monkeypatch.setattr(ppt, "_seesaw", _hundred_sweep_seesaw)
    assert np.array_equal(floors, _separable_floors(tables, config))


def test_seesaw_batch_equals_each_start_alone(monkeypatch):
    # the 8 starts of each of 22 Bell-diagonal and 3 complex operators: a
    # start's rounds depend on no other start, so the batch of 200 gives
    # what each start gives on its own, bit for bit
    mats = np.concatenate([_bell_diagonal(_battery_traces()),
                           _random_hermitian(np.random.default_rng(9), 3, 9)])
    tables = _matrix_map(mats, 3)
    seen = {}

    def spy(tables, owner, right, values):
        seen.update(owner=owner, right=right, values=values)
        return _seesaw(tables, owner, right, values)

    monkeypatch.setattr(ppt, "_seesaw", spy)
    _separable_floors(tables, SamplerConfig(seed=5, count=20000))
    owner, right, values = seen["owner"], seen["right"], seen["values"]
    assert len(owner) == 200
    batch = _seesaw(tables, owner, right, values)
    alone = np.concatenate([
        _seesaw(tables, owner[n:n + 1], right[n:n + 1], values[n:n + 1])
        for n in range(len(owner))])
    assert np.array_equal(batch, alone)


def test_stuck_starts_sweep_from_their_own_factors(monkeypatch):
    # a start that no Newton trial lowers takes its sweep from the right
    # factor it had before the round, not from the rejected step's
    tables = _matrix_map(_bell_diagonal(_battery_traces()), 3)
    _, values, right = _probe_starts(
        tables, SamplerConfig(seed=5, count=2000), monkeypatch)
    owner = np.repeat(np.arange(22), 8)
    calls = []
    newton, sweep = ppt._newton_trials, ppt._sweep

    def newton_spy(hermitian, factors):
        calls.append(("newton", factors[:, 1].copy()))
        return newton(hermitian, factors)

    def sweep_spy(tables, owner, right):
        calls.append(("sweep", right.copy()))
        return sweep(tables, owner, right)

    monkeypatch.setattr(ppt, "_newton_trials", newton_spy)
    monkeypatch.setattr(ppt, "_sweep", sweep_spy)
    stuck = 0
    # one start at a time, so a sweep right after a step is that start's
    for n in range(len(owner)):
        calls.clear()
        _seesaw(tables, owner[n:n + 1], right[n:n + 1], values[n:n + 1])
        for (kind, before), (after_kind, swept) in zip(calls, calls[1:]):
            if kind == "newton" and after_kind == "sweep":
                stuck += 1
                assert np.array_equal(swept, before)
    assert stuck > 0


def test_seesaw_returns_the_lowest_value_each_start_held(monkeypatch):
    # a sweep can raise a start at round-off, and the start then keeps its
    # own factors and value.  A start's value after round r is what a search
    # capped at r rounds returns, since no round reads a later one
    mats = _random_hermitian(np.random.default_rng(26), 30, 9)
    tables = _matrix_map(mats, 3)
    _, values, right = _probe_starts(
        tables, SamplerConfig(seed=3, count=2000), monkeypatch)
    owner = np.repeat(np.arange(30), 8)
    result = _seesaw(tables, owner, right, values)
    sweeps, rounds = ppt._SEESAW_SWEEPS, ppt._SEESAW_SWEEPS + ppt._NEWTON_STEPS
    for cap in range(1, rounds):
        monkeypatch.setattr(ppt, "_SEESAW_SWEEPS", min(cap, sweeps))
        monkeypatch.setattr(ppt, "_NEWTON_STEPS", max(cap - sweeps, 0))
        assert (result <= _seesaw(tables, owner, right, values)).all(), cap
