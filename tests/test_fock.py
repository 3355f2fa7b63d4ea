import numpy as np
import pytest

from dresq.device import OperatingPoint
from dresq.dynamics import Stage, _prep_order
from dresq.errors import ConfigError
from dresq.fock import (
    HilbertSpace,
    lowering_operator,
    number_operator,
)
from oracles import total_number_operator


def test_space_size_and_indexing():
    space = HilbertSpace((3, 3, 3, 3))
    assert space.size == 81
    assert space.n_modes == 4

    def index(occupations):
        return int(np.dot(occupations, space.strides))

    assert index((0, 0, 0, 0)) == 0
    assert index((0, 0, 0, 1)) == 1
    assert index((1, 0, 0, 0)) == 27
    for idx in (0, 1, 27, 80, 40):
        assert index(space.quanta[:, idx]) == idx


def test_space_validation():
    with pytest.raises(ConfigError):
        HilbertSpace(())
    with pytest.raises(ConfigError):
        HilbertSpace((3, 1))
    with pytest.raises(ConfigError):
        HilbertSpace((8, 8, 8, 16))  # 8192 exceeds the 4096 cap
    HilbertSpace((8, 8, 8, 8))  # exactly at the cap is allowed


def test_dims_immutable():
    space = HilbertSpace((2, 2))
    with pytest.raises(Exception):
        space.dims = (3, 3)


def test_lowering_single_qubit():
    a = lowering_operator(HilbertSpace((2,)), 0)
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    assert np.array_equal(a, expected)


def test_lowering_three_levels():
    a = lowering_operator(HilbertSpace((3,)), 0)
    assert a[0, 1] == 1.0
    assert a[1, 2] == pytest.approx(np.sqrt(2))
    assert np.count_nonzero(a) == 2


def test_lowering_kron_embedding():
    # dims (2, 2), mode 1: identity(2) tensor lowering(2), all 16 entries
    a = lowering_operator(HilbertSpace((2, 2)), 1)
    single = np.array([[0.0, 1.0], [0.0, 0.0]])
    expected = np.kron(np.eye(2), single)
    assert np.array_equal(a, expected)


def test_number_operator_diagonals():
    n = number_operator(HilbertSpace((3,)), 0)
    assert np.array_equal(np.diag(n).real, [0, 1, 2])
    n2 = number_operator(HilbertSpace((2, 2)), 1)
    assert np.array_equal(np.diag(n2).real, [0, 1, 0, 1])


def test_number_equals_raising_times_lowering():
    space = HilbertSpace((3, 2, 4))
    for mode in range(3):
        a = lowering_operator(space, mode)
        n = number_operator(space, mode)
        assert np.allclose(n, a.T @ a)


def test_truncated_commutator():
    # [a, a+] = I except the (d-1, d-1) entry, which is 1 - d
    for d in (2, 3, 5):
        space = HilbertSpace((d,))
        a = lowering_operator(space, 0)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(d, dtype=complex)
        expected[d - 1, d - 1] = 1 - d
        # entries are sums of sqrt(n)**2, exact up to one rounding step
        assert np.abs(comm - expected).max() < 1e-15 * d


def test_distinct_mode_operators_commute():
    space = HilbertSpace((3, 3))
    a0 = lowering_operator(space, 0)
    a1 = lowering_operator(space, 1)
    assert np.array_equal(a0 @ a1, a1 @ a0)
    r1 = a1.T
    assert np.array_equal(a0 @ r1, r1 @ a0)


def kron_embed(dims, mode, local):
    """``local`` on one mode, identities on the others, by Kronecker products."""
    out = np.ones((1, 1))
    for i, d in enumerate(dims):
        out = np.kron(out, local if i == mode else np.eye(d))
    return out


def test_operators_match_kron_reference():
    # the operators gathered from the occupation table equal the Kronecker
    # embeddings of the single-mode matrices bit for bit
    for dims in ((2, 3), (3, 2), (3, 2, 4)):
        space = HilbertSpace(dims)
        for mode, d in enumerate(dims):
            lowering = np.diag(np.sqrt(np.arange(1.0, d)), 1)
            number = np.diag(np.arange(float(d)))
            assert np.array_equal(lowering_operator(space, mode), kron_embed(dims, mode, lowering))
            assert np.array_equal(number_operator(space, mode), kron_embed(dims, mode, number))


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 2, 3)])
@pytest.mark.parametrize("n_max", [1, 2, None])
def test_pi_flip_on_a_block_is_the_sliced_full_flip(dims, n_max):
    # π-preps permute the basis: a state read through their order on a block
    # is the block of P ρ P†, P the Kronecker-embedded swap of levels 0 and 1
    # of each prepped qubit (modes 2 and 3)
    space = HilbertSpace(dims)
    n_exc = space.quanta.sum(axis=0)
    idx = np.flatnonzero(n_exc <= (n_exc.max() if n_max is None else n_max))
    rng = np.random.default_rng(space.size)
    rho = rng.standard_normal((space.size, space.size)) * 1j + rng.standard_normal(
        (space.size, space.size))
    point = OperatingPoint(4.6, 4.7)
    for preps in (["pi_q1"], ["pi_q2"], ["pi_q1", "pi_q2"], ["pi_q2", "pi_q1", "pi_q2"]):
        flip = np.eye(space.size)
        for prep in preps:
            mode = 2 if prep == "pi_q1" else 3
            flip = kron_embed(dims, mode, np.eye(dims[mode])[[1, 0, *range(2, dims[mode])]]) @ flip
        order = _prep_order(space, [Stage(0.0, point, prep) for prep in preps])
        read = rho[np.ix_(order[idx], order[idx])]
        assert np.array_equal(read, (flip @ rho @ flip.T)[np.ix_(idx, idx)])


def test_occupation_table_decodes_every_index():
    space = HilbertSpace((3, 2, 4))
    assert space.strides == (8, 4, 1)
    for i in range(space.size):
        occ = tuple(space.quanta[:, i].tolist())
        assert int(np.dot(occ, space.strides)) == i
        assert occ == (i // 8, i // 4 % 2, i % 4)
    with pytest.raises(ValueError):
        space.quanta[0, 0] = 1


def test_mode_index_out_of_range():
    with pytest.raises(ConfigError):
        lowering_operator(HilbertSpace((2, 2)), 2)


def test_single_excitation_indices():
    space = HilbertSpace((3, 3, 3, 3))
    idx = space.single_excitation_indices()
    assert idx == (27, 9, 3, 1)
    n_tot = total_number_operator(space)
    for i in idx:
        assert n_tot[i, i] == 1
