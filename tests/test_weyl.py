import numpy as np
import pytest

from entwit import (
    BipartiteOperator,
    WeylIndex,
    bell_projector,
    hermitian_spectrum,
    hs_inner,
    hs_norm,
    max_entangled,
    tensor,
    weyl_expand,
    weyl_operator,
)


def reference_weyl(d, n, m):
    # independent construction from the documented formula
    mat = np.zeros((d, d), dtype=complex)
    for k in range(d):
        mat[k, (k - m) % d] = np.exp(-2j * np.pi * k * n / d)
    return mat


def test_weyl_matches_reference_formula():
    for d in (2, 3, 4):
        for n in range(d):
            for m in range(d):
                assert np.allclose(weyl_operator(d, (n, m)), reference_weyl(d, n, m))


def test_weyl_basic_properties():
    assert np.allclose(weyl_operator(3, (0, 0)), np.eye(3))
    for n in range(3):
        for m in range(3):
            u = weyl_operator(3, (n, m))
            assert np.allclose(u @ u.conj().T, np.eye(3))  # unitary
            if (n, m) != (0, 0):
                assert abs(np.trace(u)) < 1e-14
    u = weyl_operator(3, (1, 1))
    assert np.trace(u.conj().T @ u) == pytest.approx(3)


def test_weyl_cyclic_shift():
    u = weyl_operator(3, (0, 1))
    basis = np.eye(3)
    for k in range(3):
        assert np.allclose(u @ basis[:, k], basis[:, (k + 1) % 3])


def test_weyl_negative_index_normalization():
    assert np.allclose(weyl_operator(3, (-1, 1)), weyl_operator(3, (2, 1)))
    assert np.allclose(weyl_operator(3, WeylIndex(-2, -2)), weyl_operator(3, (1, 1)))
    assert WeylIndex(-1, 4).normalized(3) == WeylIndex(2, 1)


def test_weyl_negative_index_is_exact_conjugate():
    for d in (2, 3, 4, 5):
        for n in range(d):
            for m in range(d):
                assert np.array_equal(weyl_operator(d, (-n, m)),
                                      weyl_operator(d, (n, m)).conj())
    for m in range(3):
        assert np.array_equal(bell_projector(3, (2, m)).entries,
                              bell_projector(3, (1, m)).entries.conj())


def test_weyl_rejects_small_dimension():
    with pytest.raises(ValueError):
        weyl_operator(1, (0, 0))
    with pytest.raises(ValueError):
        bell_projector(1, (0, 0))
    with pytest.raises(ValueError):
        weyl_expand(BipartiteOperator(1, 1, np.eye(1)))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_weyl_trace_orthogonality(d):
    ops = {(n, m): weyl_operator(d, (n, m)) for n in range(d) for m in range(d)}
    for key_a, ua in ops.items():
        for key_b, ub in ops.items():
            overlap = np.vdot(ua, ub)
            expected = d if key_a == key_b else 0.0
            assert abs(overlap - expected) < 1e-12


def test_weyl_composition_phase():
    d = 3
    for n1 in range(d):
        for m1 in range(d):
            for n2 in range(d):
                for m2 in range(d):
                    prod = (weyl_operator(d, (n1, m1))
                            @ weyl_operator(d, (n2, m2)))
                    target = weyl_operator(d, (n1 + n2, m1 + m2))
                    ratios = prod[np.abs(target) > 0.5] / target[np.abs(target) > 0.5]
                    phase = ratios[0]
                    assert abs(abs(phase) - 1) < 1e-13
                    assert np.allclose(prod, phase * target)


def test_max_entangled_vector():
    vec = max_entangled(3)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1 / np.sqrt(3)
    assert np.allclose(vec, expected)
    assert np.vdot(vec, vec) == pytest.approx(1)


def test_max_entangled_reduced_state():
    vec = max_entangled(3)
    rho = np.outer(vec, vec.conj()).reshape(3, 3, 3, 3)
    reduced_1 = np.einsum("ikjk->ij", rho)  # trace out subsystem 2
    reduced_2 = np.einsum("kikj->ij", rho)
    assert np.allclose(reduced_1, np.eye(3) / 3)
    assert np.allclose(reduced_2, np.eye(3) / 3)


def test_bell_projectors_rank_one_orthogonal_complete():
    projectors = {
        (n, m): bell_projector(3, (n, m)) for n in range(3) for m in range(3)
    }
    total = np.zeros((9, 9), dtype=complex)
    for key_a, pa in projectors.items():
        spec = hermitian_spectrum(pa.op)
        assert np.allclose(spec, [0] * 8 + [1], atol=1e-12)
        total += pa.entries
        for key_b, pb in projectors.items():
            overlap = hs_inner(pa.op, pb.op).real
            assert abs(overlap - (1.0 if key_a == key_b else 0.0)) < 1e-12
    assert np.abs(total - np.eye(9)).max() < 1e-12


def test_bell_projector_p00_is_max_entangled():
    vec = max_entangled(3)
    assert np.allclose(bell_projector(3, (0, 0)).entries, np.outer(vec, vec.conj()))
    assert hs_inner(bell_projector(3, (0, 0)).op,
                    bell_projector(3, (1, 0)).op).real == pytest.approx(0, abs=1e-14)


def test_weyl_expand_identity():
    expansion = weyl_expand(BipartiteOperator(3, 3, np.eye(9)))
    coeffs = expansion.coeffs.copy()
    assert coeffs[0, 0, 0, 0] == pytest.approx(1)
    coeffs[0, 0, 0, 0] = 0
    assert np.abs(coeffs).max() < 1e-14
    assert expansion.significant() == [((0, 0), (0, 0), pytest.approx(1 + 0j))]


def test_weyl_expand_bell_projector():
    expansion = weyl_expand(bell_projector(3, (0, 0)).op)
    for n in range(3):
        for m in range(3):
            assert expansion.coefficient((n, m), (-n, m)) == pytest.approx(1 / 9)
    # everything off the paired pattern vanishes
    mask = np.zeros((3, 3, 3, 3), dtype=bool)
    for n in range(3):
        for m in range(3):
            mask[n, m, (-n) % 3, m] = True
    assert np.abs(expansion.coeffs[~mask]).max() < 1e-14


def test_weyl_expand_round_trip_random_hermitian():
    rng = np.random.default_rng(41)
    for _ in range(10):
        raw = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        herm = BipartiteOperator(3, 3, raw + raw.conj().T)
        expansion = weyl_expand(herm)
        assert hs_norm(expansion.reconstruct() - herm) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weyl_expand_matches_definition(d):
    # the coefficient of U_a (x) U_b is <U_a (x) U_b, X>/d^2, element by element
    rng = np.random.default_rng(d)
    side = d * d
    op = BipartiteOperator(d, d, rng.standard_normal((side, side))
                           + 1j * rng.standard_normal((side, side)))
    expansion = weyl_expand(op)
    for n, m, l, k in np.ndindex(d, d, d, d):
        element = tensor(weyl_operator(d, (n, m)), weyl_operator(d, (l, k)))
        assert abs(expansion.coeffs[n, m, l, k]
                   - hs_inner(element, op) / side) < 1e-14
    assert hs_norm(expansion.reconstruct() - op) < 1e-12


def test_weyl_expand_hermitian_conjugate_coefficients():
    rng = np.random.default_rng(43)
    raw = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    herm = BipartiteOperator(3, 3, raw + raw.conj().T)
    expansion = weyl_expand(herm)
    for n in range(3):
        for m in range(3):
            for l in range(3):
                for k in range(3):
                    element = tensor(weyl_operator(3, (n, m)), weyl_operator(3, (l, k)))
                    adj_coeff = hs_inner(element.dagger(), herm) / 9
                    assert adj_coeff == pytest.approx(
                        np.conj(expansion.coefficient((n, m), (l, k))))


def test_weyl_expand_requires_square_dims():
    with pytest.raises(ValueError):
        weyl_expand(BipartiteOperator(2, 3, np.eye(6)))
