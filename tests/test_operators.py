import math
import types

import numpy as np
import pytest

from entwit import (
    BipartiteOperator,
    DensityMatrix,
    hermitian_spectrum,
    horodecki_state,
    hs_inner,
    hs_norm,
    identity,
    is_positive_semidefinite,
    max_entangled,
    maximally_mixed,
    operator_from_dict,
    operator_to_dict,
    partial_transpose,
    tensor,
    weyl_operator,
)
from entwit.families import _bell_diagonal, _family_weights
from entwit.operators import _density_gate, _hs_norms, _pt_array


def random_operator(rng, d1=3, d2=3):
    side = d1 * d2
    mat = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return BipartiteOperator(d1, d2, mat)


def phi_plus_projector():
    phi = max_entangled(3)
    return BipartiteOperator(3, 3, np.outer(phi, phi.conj()))


def test_operator_shape_validation():
    with pytest.raises(ValueError):
        BipartiteOperator(3, 3, np.eye(8))
    with pytest.raises(ValueError):
        BipartiteOperator(0, 3, np.zeros((0, 0)))
    op = identity(2, 3)
    assert op.dim == 6
    assert not op.entries.flags.writeable


def test_hs_inner_identity_and_projector():
    assert hs_inner(identity(3, 3), identity(3, 3)) == pytest.approx(9)
    p00 = phi_plus_projector()
    assert hs_inner(p00, p00) == pytest.approx(1)


def test_hs_inner_weyl_orthogonality_example():
    a = tensor(weyl_operator(3, (0, 1)), weyl_operator(3, (0, 1)))
    b = tensor(weyl_operator(3, (0, 2)), weyl_operator(3, (0, 2)))
    assert abs(hs_inner(a, b)) < 1e-14


def test_hs_inner_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        hs_inner(identity(3, 3), identity(2, 3))


def test_hs_inner_conjugate_symmetric_and_sesquilinear():
    rng = np.random.default_rng(11)
    a, b, c = (random_operator(rng) for _ in range(3))
    assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))
    lhs = hs_inner(a, 2.5j * b + c)
    assert lhs == pytest.approx(2.5j * hs_inner(a, b) + hs_inner(a, c))
    lhs = hs_inner(2.5j * a + c, b)
    assert lhs == pytest.approx(np.conj(2.5j) * hs_inner(a, b) + hs_inner(c, b))


def test_hs_norm_values():
    zero = BipartiteOperator(3, 3, np.zeros((9, 9)))
    assert hs_norm(zero) == 0.0
    assert hs_norm(identity(3, 3) / 9) == pytest.approx(1 / 3)
    p00 = phi_plus_projector()
    assert hs_norm(p00 - identity(3, 3) / 9) == pytest.approx(np.sqrt(8) / 3)


def test_hs_norm_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a, b = random_operator(rng), random_operator(rng)
        assert hs_norm(a + b) <= hs_norm(a) + hs_norm(b) + 1e-12


def test_tensor_examples():
    assert np.allclose(tensor(np.eye(3), np.eye(3)).entries, np.eye(9))
    proj = tensor(np.diag([1, 0, 0]), np.diag([0, 1, 0]))
    expected = np.zeros((9, 9))
    expected[1, 1] = 1  # |01><01| sits at row 0*3+1
    assert np.allclose(proj.entries, expected)
    traceless = tensor(weyl_operator(3, (1, 0)), weyl_operator(3, (-1, 0)))
    assert abs(traceless.trace()) < 1e-14


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert tensor(a, b).trace() == pytest.approx(np.trace(a) * np.trace(b))


def test_partial_transpose_product_states():
    rng = np.random.default_rng(5)
    s1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(
        partial_transpose(tensor(s1, s2), 2).entries, np.kron(s1, s2.T))
    assert np.allclose(
        partial_transpose(tensor(s1, s2), 1).entries, np.kron(s1.T, s2))
    mixed = maximally_mixed(3, 3)
    assert np.allclose(partial_transpose(mixed, 1).entries, mixed.entries)


def test_partial_transpose_involution_and_norm():
    rng = np.random.default_rng(13)
    for subsystem in (1, 2):
        x = random_operator(rng)
        twice = partial_transpose(partial_transpose(x, subsystem), subsystem)
        assert np.array_equal(twice.entries, x.entries)  # entry permutation
        assert hs_norm(partial_transpose(x, subsystem)) == pytest.approx(hs_norm(x))


def test_partial_transpose_asymmetric_dims():
    rng = np.random.default_rng(17)
    x = random_operator(rng, 2, 3)
    for subsystem in (1, 2):
        pt = partial_transpose(x, subsystem)
        assert pt.trace() == pytest.approx(x.trace())
        back = partial_transpose(pt, subsystem)
        assert np.array_equal(back.entries, x.entries)
    with pytest.raises(ValueError):
        partial_transpose(x, 3)


def test_pt_array_stacked_matches_per_matrix():
    rng = np.random.default_rng(17)
    for d1, d2 in ((3, 3), (2, 3), (3, 2)):
        side = d1 * d2
        stack = (rng.standard_normal((2, 4, side, side))
                 + 1j * rng.standard_normal((2, 4, side, side)))
        for subsystem in (1, 2):
            batched = _pt_array(stack, d1, d2, subsystem)
            for index in np.ndindex(2, 4):
                single = partial_transpose(
                    BipartiteOperator(d1, d2, stack[index]), subsystem)
                assert np.array_equal(batched[index], single.entries)


def test_pt_spectrum_independent_of_subsystem():
    # PT over subsystem 1 is the full transpose of PT over subsystem 2, so
    # for Hermitian input both have one spectrum
    rng = np.random.default_rng(29)
    weights = _family_weights(*rng.uniform(-0.5, 1.0, (3, 400)))
    family = _bell_diagonal(weights[weights.min(axis=1) >= 0][:20])
    raw = (rng.standard_normal((20, 9, 9))
           + 1j * rng.standard_normal((20, 9, 9)))
    hermitian = raw + raw.conj().swapaxes(1, 2)
    for stack in (family, hermitian):
        assert len(stack) == 20
        spectra = [np.linalg.eigvalsh(_pt_array(stack, 3, 3, subsystem))
                   for subsystem in (1, 2)]
        assert np.abs(spectra[0] - spectra[1]).max() <= 1e-12
        for mat in stack[:5]:
            one, two = (hermitian_spectrum(partial_transpose(
                BipartiteOperator(3, 3, mat), subsystem))
                for subsystem in (1, 2))
            assert np.abs(one - two).max() <= 1e-12


def test_partial_transpose_flip_spectrum():
    pt = partial_transpose(phi_plus_projector(), 2)
    spec = hermitian_spectrum(pt)
    expected = np.sort([-1 / 3] * 3 + [1 / 3] * 6)
    assert np.allclose(spec, expected, atol=1e-12)
    assert spec[0] == pytest.approx(-1 / 3)


def test_hermitian_spectrum_examples():
    assert np.allclose(hermitian_spectrum(identity(3, 3)), np.ones(9))
    spec = hermitian_spectrum(phi_plus_projector())
    assert np.allclose(spec, [0] * 8 + [1], atol=1e-12)


def test_hermitian_spectrum_rejects_non_hermitian():
    mat = np.zeros((9, 9), dtype=complex)
    mat[0, 1] = 1.0
    with pytest.raises(ValueError):
        hermitian_spectrum(BipartiteOperator(3, 3, mat))


def test_hermitian_spectrum_sums_to_trace():
    rng = np.random.default_rng(23)
    raw = random_operator(rng)
    herm = 0.5 * (raw + raw.dagger())
    spec = hermitian_spectrum(herm)
    assert spec.sum() == pytest.approx(herm.trace().real, abs=1e-10)


def test_is_positive_semidefinite():
    ok, min_eig = is_positive_semidefinite(identity(3, 3) / 9)
    assert ok and min_eig == pytest.approx(1 / 9)
    shifted = phi_plus_projector() - 0.1 * identity(3, 3)
    ok, min_eig = is_positive_semidefinite(shifted)
    assert not ok and min_eig == pytest.approx(-0.1)
    pt = partial_transpose(horodecki_state(0.0), 2)
    ok, min_eig = is_positive_semidefinite(pt)
    assert not ok and min_eig < 0


def test_density_matrix_gates():
    with pytest.raises(ValueError):
        DensityMatrix(identity(3, 3))  # trace 9
    non_herm = np.eye(9, dtype=complex) / 9
    non_herm[0, 1] = 1e-6
    with pytest.raises(ValueError):
        DensityMatrix(BipartiteOperator(3, 3, non_herm))
    indefinite = np.eye(9) / 9
    indefinite[8, 8] = -1e-3
    indefinite[0, 0] += 1e-3 + 1 / 9
    with pytest.raises(ValueError):
        DensityMatrix(BipartiteOperator(3, 3, indefinite))
    rho = maximally_mixed(3, 3)
    assert rho.min_eigenvalue == pytest.approx(1 / 9)


def test_density_gate_stack_rows_equal_single_matrices():
    rng = np.random.default_rng(37)
    vecs = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    mats = np.einsum("ni,nj->nij", vecs, vecs.conj()) * 0.5 + np.eye(9) / 18
    min_eigs = _density_gate(mats)
    norms = _hs_norms(mats - mats[::-1])
    for i, mat in enumerate(mats):
        op = BipartiteOperator(3, 3, mat)
        assert DensityMatrix(op).min_eigenvalue == min_eigs[i], i
        assert hs_norm(op - BipartiteOperator(3, 3, mats[5 - i])) == norms[i], i
    # one bad matrix anywhere in a stack fails the gate it breaks
    for bad, message in ((identity(3, 3).entries, "trace is"),
                         (np.diag([0.5, 0.6] + [0.0] * 6 + [-0.1]),
                          "not positive semidefinite")):
        with pytest.raises(ValueError, match=message):
            _density_gate(np.concatenate([mats, [bad]]))


def test_density_spectra_are_normalized():
    rng = np.random.default_rng(29)
    for _ in range(20):
        vec = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        vec /= np.linalg.norm(vec)
        rho = DensityMatrix(BipartiteOperator(3, 3, np.outer(vec, vec.conj())))
        spec = hermitian_spectrum(rho.op)
        assert abs(spec.sum() - 1) < 1e-10
        assert spec[0] >= -1e-10


def test_operator_json_round_trip():
    rng = np.random.default_rng(31)
    op = random_operator(rng, 2, 3)
    doc = operator_to_dict(op)
    assert doc["dim_a"] == 2 and doc["dim_b"] == 3
    assert len(doc["entries"]) == 36
    back = operator_from_dict(doc)
    assert np.array_equal(back.entries, op.entries)


def test_operator_json_rejects_malformed():
    with pytest.raises(ValueError):
        operator_from_dict({"dim_a": 3, "dim_b": 3, "entries": [[0.0, 0.0]] * 5})
    with pytest.raises(ValueError, match="missing key 'dim_b'"):
        operator_from_dict({"dim_a": 3})
    for doc in ([], "x", None, 3.0):
        with pytest.raises(ValueError, match="expected a JSON object"):
            operator_from_dict(doc)
    with pytest.raises(ValueError, match="number pairs"):
        operator_from_dict({"dim_a": 1, "dim_b": 1, "entries": [["a", 0.0]]})
    # non-integral dimensions are not truncated
    entries = [[0.0, 0.0]] * 81
    for dims in ((3.9, 3.2), (3, 3.5), ("3", 3), (math.inf, 3), (math.nan, 3),
                 (None, None), ([3], 3)):
        with pytest.raises(ValueError, match="must be integers"):
            operator_from_dict(dict(zip(("dim_a", "dim_b"), dims),
                                    entries=entries))
    op = operator_from_dict({"dim_a": 3.0, "dim_b": 3, "entries": entries})
    assert (op.dim_a, op.dim_b) == (3, 3)
    # a non-list entries field, and dimensions that are not positive
    for bad in (5, None, "0" * 81, {"0": [0.0, 0.0]}):
        with pytest.raises(ValueError, match="entries must be a list"):
            operator_from_dict({"dim_a": 3, "dim_b": 3, "entries": bad})
    for dims in ((-3, -3), (0, 3), (3, -1), (0, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            operator_from_dict(dict(zip(("dim_a", "dim_b"), dims),
                                    entries=entries))


def test_package_exports_each_public_name_once():
    import entwit

    assert set(entwit.__all__) == {
        "__version__",
        "BipartiteOperator", "DensityMatrix", "identity", "maximally_mixed",
        "hs_inner", "hs_norm", "tensor", "partial_transpose",
        "hermitian_spectrum", "is_positive_semidefinite", "operator_to_dict",
        "operator_from_dict",
        "WeylIndex", "WeylExpansion", "weyl_operator", "max_entangled",
        "bell_projector", "weyl_expand",
        "SimplexParams", "SimplexState", "simplex_state", "simplex_spectrum",
        "horodecki_state", "horodecki_to_simplex", "gamma_slice_point",
        "GeometricWitness", "WitnessCertificate", "DetectionProfile",
        "LineWitnessCoefficients", "DETECTION_GAMMA", "CROSSING_GAMMA",
        "geometric_witness", "certify_witness", "region_witnesses",
        "nearest_separable_gamma0", "hs_measure_gamma0", "line_witness",
        "line_witness_coefficients", "detection_profile",
        "horodecki_detection_range",
        "PptVerdict", "NearestPptResult", "SamplerConfig", "classify_ppt",
        "nearest_ppt", "min_separable_expectation",
    }
    assert len(entwit.__all__) == 47
    for name in entwit.__all__:
        assert hasattr(entwit, name), name
    # the submodule, not a function of the same name
    import entwit.weyl as weyl_module
    assert isinstance(weyl_module, types.ModuleType)
    assert weyl_module is entwit.weyl
    assert callable(weyl_module.weyl_expand)
