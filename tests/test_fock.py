import numpy as np
import pytest

from dresq.errors import ConfigError
from dresq.fock import (
    HERMITICITY_TOL,
    HilbertSpace,
    OperatorMatrix,
    eigendecompose_hermitian,
    embed_operator,
    lowering_operator,
    number_operator,
    raising_operator,
    total_number_operator,
)


def test_space_size_and_indexing():
    space = HilbertSpace((3, 3, 3, 3))
    assert space.size == 81
    assert space.n_modes == 4
    assert space.basis_index((0, 0, 0, 0)) == 0
    assert space.basis_index((0, 0, 0, 1)) == 1
    assert space.basis_index((1, 0, 0, 0)) == 27
    for idx in (0, 1, 27, 80, 40):
        assert space.basis_index(space.occupations(idx)) == idx


def test_space_validation():
    with pytest.raises(ConfigError):
        HilbertSpace(())
    with pytest.raises(ConfigError):
        HilbertSpace((3, 1))
    with pytest.raises(ConfigError):
        HilbertSpace((8, 8, 8, 16))  # 8192 exceeds the 4096 cap
    HilbertSpace((8, 8, 8, 8))  # exactly at the cap is allowed
    HilbertSpace((8, 8, 8, 16), dimension_cap=8192)  # raising the cap works


def test_dims_immutable():
    space = HilbertSpace((2, 2))
    with pytest.raises(Exception):
        space.dims = (3, 3)


def test_lowering_single_qubit():
    a = lowering_operator(HilbertSpace((2,)), 0).elements
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    assert np.array_equal(a, expected)


def test_lowering_three_levels():
    a = lowering_operator(HilbertSpace((3,)), 0).elements
    assert a[0, 1] == 1.0
    assert a[1, 2] == pytest.approx(np.sqrt(2))
    assert np.count_nonzero(a) == 2


def test_lowering_kron_embedding():
    # dims (2, 2), mode 1: identity(2) tensor lowering(2), all 16 entries
    a = lowering_operator(HilbertSpace((2, 2)), 1).elements
    single = np.array([[0.0, 1.0], [0.0, 0.0]])
    expected = np.kron(np.eye(2), single)
    assert np.array_equal(a, expected)


def test_number_operator_diagonals():
    n = number_operator(HilbertSpace((3,)), 0).elements
    assert np.array_equal(np.diag(n).real, [0, 1, 2])
    n2 = number_operator(HilbertSpace((2, 2)), 1).elements
    assert np.array_equal(np.diag(n2).real, [0, 1, 0, 1])


def test_number_equals_raising_times_lowering():
    space = HilbertSpace((3, 2, 4))
    for mode in range(3):
        a = lowering_operator(space, mode)
        n = number_operator(space, mode)
        assert np.allclose(n.elements, a.dagger().elements @ a.elements)


def test_truncated_commutator():
    # [a, a+] = I except the (d-1, d-1) entry, which is 1 - d
    for d in (2, 3, 5):
        space = HilbertSpace((d,))
        a = lowering_operator(space, 0).elements
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(d, dtype=complex)
        expected[d - 1, d - 1] = 1 - d
        # entries are sums of sqrt(n)**2, exact up to one rounding step
        assert np.abs(comm - expected).max() < 1e-15 * d


def test_distinct_mode_operators_commute():
    space = HilbertSpace((3, 3))
    a0 = lowering_operator(space, 0).elements
    a1 = lowering_operator(space, 1).elements
    assert np.array_equal(a0 @ a1, a1 @ a0)
    r1 = raising_operator(space, 1).elements
    assert np.array_equal(a0 @ r1, r1 @ a0)


def test_embedding_order_consistency():
    # embedding a local operator on mode 0 of (2, 3) matches embedding it
    # on mode 1 of (3, 2) after permuting the composite basis
    local = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    sp_a = HilbertSpace((2, 3))
    sp_b = HilbertSpace((3, 2))
    m_a = embed_operator(sp_a, 0, local).elements
    m_b = embed_operator(sp_b, 1, local).elements
    perm = [sp_b.basis_index((occ[1], occ[0]))
            for occ in (sp_a.occupations(i) for i in range(sp_a.size))]
    assert np.array_equal(m_a, m_b[np.ix_(perm, perm)])


def test_mode_index_out_of_range():
    with pytest.raises(ConfigError):
        lowering_operator(HilbertSpace((2, 2)), 2)


def test_single_excitation_indices():
    space = HilbertSpace((3, 3, 3, 3))
    idx = space.single_excitation_indices()
    assert idx == (27, 9, 3, 1)
    n_tot = total_number_operator(space).elements
    for i in idx:
        assert n_tot[i, i] == 1


def test_eigendecompose_diagonal():
    space = HilbertSpace((3,))
    op = OperatorMatrix(space, np.diag([3.0, 1.0, 2.0]).astype(complex))
    evals, _ = eigendecompose_hermitian(op)
    assert np.allclose(evals, [1.0, 2.0, 3.0])


def test_eigendecompose_anticrossing():
    space = HilbertSpace((2,))
    g = 0.005
    op = OperatorMatrix(space, np.array([[0.0, g], [g, 0.0]], dtype=complex))
    evals, _ = eigendecompose_hermitian(op)
    assert evals[0] == pytest.approx(-g)
    assert evals[1] == pytest.approx(+g)
    assert evals[1] - evals[0] == pytest.approx(2 * g)


def test_eigendecompose_reconstruction():
    rng = np.random.default_rng(42)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = m + m.conj().T

    class _Six:
        pass

    space = HilbertSpace((6,))
    op = OperatorMatrix(space, m)
    evals, vecs = eigendecompose_hermitian(op)
    recon = vecs @ np.diag(evals) @ vecs.conj().T
    assert np.abs(recon - m).max() < 1e-9
    # residual and orthonormality bounds
    scale = np.abs(evals).max()
    assert np.abs(m @ vecs - vecs * evals).max() < 1e-9 * scale
    assert np.abs(vecs.conj().T @ vecs - np.eye(6)).max() < 1e-10


def test_eigendecompose_rejects_non_hermitian():
    space = HilbertSpace((2,))
    op = OperatorMatrix(space, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ConfigError, match="1.0"):
        eigendecompose_hermitian(op)


def test_operator_matrix_shape_checks():
    space = HilbertSpace((2, 2))
    with pytest.raises(ConfigError):
        OperatorMatrix(space, np.zeros((3, 3)))
    with pytest.raises(ConfigError):
        OperatorMatrix(space, np.zeros((4, 3)))


def test_operator_algebra_helpers():
    space = HilbertSpace((3,))
    a = lowering_operator(space, 0)
    n = a.dagger() @ a
    assert np.allclose(n.elements, number_operator(space, 0).elements)
    s = a + a.dagger()
    assert s.hermiticity_defect() < HERMITICITY_TOL
    assert (2.0 * a).elements[0, 1] == 2.0
