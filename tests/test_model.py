"""Invariants of the cached, real, parity-blocked device model.

The reference is the Kronecker assembly of H written out here from the
single-mode ladder matrices, independently of ``dresq.fock``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dresq.errors import MEMORY_LIMIT, ConfigError
from dresq.fock import HilbertSpace
from dresq.device import (
    TWO_PI,
    DeviceModel,
    DeviceParams,
    OperatingPoint,
    device_model,
    model_bytes,
)


def reference_hamiltonian(params, point, dims, counter_rotating):
    """H/ħ in rad/ns by Kronecker products of the single-mode ladders."""

    def lowering(mode):
        out = np.ones((1, 1))
        for i, d in enumerate(dims):
            local = np.diag(np.sqrt(np.arange(1.0, d)), 1) if i == mode else np.eye(d)
            out = np.kron(out, local)
        return out

    a = [lowering(m) for m in range(4)]
    freqs = (params.resonator_freq_a, params.resonator_freq_b,
             point.qubit_freq_1, point.qubit_freq_2)
    h = sum(TWO_PI * f * a[m].T @ a[m] for m, f in enumerate(freqs))
    for m, alpha in ((2, params.anharmonicity_1), (3, params.anharmonicity_2)):
        h = h + TWO_PI * alpha * a[m].T @ a[m].T @ a[m] @ a[m]
    lines = {(0, 2): params.g_a1, (0, 3): params.g_a2, (1, 2): params.g_b1,
             (1, 3): params.g_b2, (0, 1): params.g_ab, (2, 3): params.g_12}
    for (i, j), g in lines.items():
        term = a[i].T @ a[j] + a[i] @ a[j].T
        if counter_rotating:
            term = term - (a[i].T @ a[j].T + a[i] @ a[j])
        h = h + TWO_PI * g * term
    return h


def excitation_numbers(dims):
    return np.indices(dims).reshape(len(dims), -1).sum(axis=0)


cases = st.tuples(
    st.tuples(*[st.integers(2, 4)] * 4),
    st.floats(4.0, 5.2),
    st.floats(4.0, 5.2),
    st.floats(-0.02, 0.02),
)


def build(case, counter_rotating):
    dims, f1, f2, g_ab = case
    params = DeviceParams(g_ab=g_ab)
    model = DeviceModel(params, HilbertSpace(dims), counter_rotating)
    return model, params, OperatingPoint(f1, f2)


def at(model, point, idx=None):
    """The model's Hamiltonian at one point on the block ``idx``, the whole
    space by default: its stack of one."""
    idx = np.arange(model.space.size) if idx is None else idx
    f1, f2 = np.array([point.qubit_freq_1]), np.array([point.qubit_freq_2])
    return model.block(idx).stack(f1, f2)[0]


@settings(max_examples=30, deadline=None)
@given(cases, st.booleans())
def test_hamiltonian_real_symmetric_and_matches_reference(case, counter_rotating):
    model, params, point = build(case, counter_rotating)
    h = at(model, point)
    assert h.dtype == np.float64
    assert np.array_equal(h, h.T)
    ref = reference_hamiltonian(params, point, case[0], counter_rotating)
    # each coupling element is the one product the ladder matrices form, so
    # only the diagonal, summed in another order, may differ in rounding
    off = ~np.eye(h.shape[0], dtype=bool)
    assert np.array_equal(h[off], ref[off])
    assert np.abs(np.diag(h) - np.diag(ref)).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=30, deadline=None)
@given(cases, st.booleans())
def test_no_element_couples_the_parities(case, counter_rotating):
    model, _, point = build(case, counter_rotating)
    parity = excitation_numbers(case[0]) % 2
    assert np.array_equal(model.even, np.flatnonzero(parity == 0))
    assert np.array_equal(model.odd, np.flatnonzero(parity == 1))
    h = at(model, point)
    assert not np.any(h[np.ix_(model.even, model.odd)])


@settings(max_examples=30, deadline=None)
@given(cases)
def test_rotating_wave_model_conserves_excitation_number(case):
    model, _, point = build(case, False)
    n = excitation_numbers(case[0])
    h = at(model, point)
    assert not np.any(h[n[:, None] != n[None, :]])


@settings(max_examples=30, deadline=None)
@given(cases, st.booleans())
def test_block_eigenvalues_equal_full_spectrum(case, counter_rotating):
    model, _, point = build(case, counter_rotating)
    full = np.linalg.eigvalsh(at(model, point))
    blocks = [np.linalg.eigvalsh(at(model, point, idx))
              for idx in (model.even, model.odd)]
    merged = np.sort(np.concatenate(blocks), kind="stable")
    assert np.abs(merged - full).max() <= 1e-12 * np.abs(full).max()


def test_block_is_the_restriction_of_the_full_hamiltonian():
    model = DeviceModel(DeviceParams(g_ab=0.01), HilbertSpace((3, 3, 3, 3)), True)
    point = OperatingPoint(4.58, 4.61)
    full = at(model, point)
    block = at(model, point, model.odd)
    assert np.array_equal(block, full[np.ix_(model.odd, model.odd)])


def test_model_cached_and_read_only():
    space = HilbertSpace((3, 3, 3, 3))
    model = device_model(DeviceParams(), space, True)
    assert device_model(DeviceParams(), space, True) is model
    assert device_model(DeviceParams(), space, False) is not model
    with pytest.raises(ValueError):
        model.h_static[0, 0] = 1.0
    h = at(model, OperatingPoint(4.6, 4.6))
    h[0, 0] = 1.0  # each call returns its own matrix
    assert model.h_static[0, 0] == 0.0


def test_model_refuses_an_asymmetric_static_part(monkeypatch):
    # the one symmetry check of H: every stack differs from h_static only on
    # the diagonal, so no diagonalization checks it again
    from dresq import device

    build = device._static_hamiltonian

    def skewed(*args):
        h = build(*args)
        h[0, 1] += 1e-15
        return h

    monkeypatch.setattr(device, "_static_hamiltonian", skewed)
    with pytest.raises(ConfigError, match="not symmetric"):
        DeviceModel(DeviceParams(), HilbertSpace((2, 2, 2, 2)), True)


def test_model_arrays_are_read_only():
    model = DeviceModel(DeviceParams(), HilbertSpace((3, 3, 3, 3)), True)
    for name in ("h_static", "n_q1", "n_q2", "even", "odd"):
        array = getattr(model, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]


def test_model_byte_estimate():
    # 4096 states: 3 d² for H_static and its symmetry check, and 6 n² for an
    # eigh of the 2048-state parity block, refused; 5⁴ fits
    assert model_bytes((8, 8, 8, 8)) == 8 * (3 * 4096**2 + 6 * 2048**2) > MEMORY_LIMIT
    assert model_bytes((5, 5, 5, 5)) == 8 * (3 * 625**2 + 6 * 313**2) < MEMORY_LIMIT
    # the estimate bounds what building a model really takes
    space = HilbertSpace((4, 4, 4, 4))
    tracemalloc.start()
    try:
        DeviceModel(DeviceParams(g_ab=0.01), space, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 8 * 3 * 256**2 < peak <= model_bytes(space.dims)


def test_oversized_model_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="MiB"):
            DeviceModel(DeviceParams(), HilbertSpace((8, 8, 8, 8)), True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20



stacks = st.tuples(
    st.sampled_from([(2, 2, 2, 2), (3, 3, 3, 3), (4, 3, 4, 3)]),
    st.sampled_from(["full", "even", "odd"]),
    st.lists(st.tuples(st.floats(0.5, 9.0), st.floats(0.5, 9.0)), min_size=1, max_size=12),
)


@settings(max_examples=40, deadline=None)
@given(stacks)
def test_stacked_hamiltonians_equal_each_point_alone(case):
    dims, block, points = case
    model = device_model(DeviceParams(), HilbertSpace(dims), True)
    idx = np.arange(model.space.size) if block == "full" else getattr(model, block)
    f1, f2 = (np.array(f) for f in zip(*points))
    stack = model.block(idx).stack(f1, f2)
    assert stack.shape == (len(points), idx.size, idx.size)
    for k, h in enumerate(stack):
        alone = model.block(idx).stack(f1[k : k + 1], f2[k : k + 1])
        assert alone.shape == (1,) + h.shape
        assert np.array_equal(h, alone[0])
        # the per-point assembly: restrict h_static, add 2π f n̂ to the diagonal
        w1, w2 = TWO_PI * float(f1[k]), TWO_PI * float(f2[k])
        direct = model.h_static[idx][:, idx].copy()
        direct.flat[:: direct.shape[0] + 1] += w1 * model.n_q1[idx] + w2 * model.n_q2[idx]
        assert np.array_equal(h, direct)


def test_a_restricted_block_is_a_submatrix_of_the_whole_space():
    # a block is restricted anew on every call, in the order of its indices;
    # a boolean mask picks its own states
    small = DeviceModel(DeviceParams(), HilbertSpace((2, 2, 2, 2)), True)
    f1, f2 = np.array([4.6]), np.array([4.62])
    mask = np.arange(small.space.size) == 0
    pair = small.block(np.array([1, 0])).stack(f1, f2)
    assert small.block(mask).stack(f1, f2).shape == (1, 1, 1)
    whole = small.block(np.arange(small.space.size)).stack(f1, f2)[0]
    assert np.array_equal(pair[0], whole[np.ix_([1, 0], [1, 0])])


def test_block_and_hamiltonians_keep_nothing():
    model = DeviceModel(DeviceParams(), HilbertSpace((3, 3, 3, 3)), True)
    before = set(vars(model))
    f = np.array([4.6])
    for idx in (model.odd, model.even, np.arange(model.space.size), model.odd):
        model.block(idx).stack(f, f)
    first, again = model.block(model.odd), model.block(model.odd)
    assert set(vars(model)) == before
    assert first.template is not again.template
    assert np.array_equal(first.template, again.template)
    assert first.template.flags.writeable
    assert np.array_equal(model.odd_block.template, first.template)


@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (4, 4, 4, 4)])
def test_a_stacks_diagonal_is_the_template_diagonal_plus_the_qubit_terms(dims):
    # spectroscopy._pair_separations reads each point's bare energies this
    # way, without a stack: bit for bit the stack's diagonal
    model = device_model(DeviceParams(), HilbertSpace(dims), True)
    rng = np.random.default_rng(sum(dims))
    f1 = np.concatenate([[4.471, 0.6], np.linspace(4.58, 4.62, 5), rng.uniform(0.3, 9.0, 20)])
    f2 = np.concatenate([[4.471, 0.6], np.full(5, 4.60), rng.uniform(0.3, 9.0, 20)])
    for block in (model.even_block, model.odd_block, *model.cotuned_sectors):
        bare = np.diagonal(block.template) + block.diagonals(f1, f2)
        assert np.diagonal(block.stack(f1, f2), axis1=1, axis2=2).tobytes() == bare.tobytes()


def _kept_arrays(model: DeviceModel) -> list[np.ndarray]:
    """Each array of the blocks a model keeps, once."""
    kept = {id(a): a for b in (model.even_block, model.odd_block, *model.cotuned_sectors)
            for a in b}
    return list(kept.values())


@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (4, 4, 4, 4), (5, 5, 5, 5)])
def test_the_kept_blocks_are_read_only_and_hold_under_the_space_squared(dims):
    # even² + odd² + the two sectors: 0.63-0.67 of d² entries at 3^4 to 5^4
    model = DeviceModel(DeviceParams(), HilbertSpace(dims), True)
    kept = _kept_arrays(model)
    assert all(not a.flags.writeable for a in kept)
    assert sum(a.size for a in kept) < model.space.size**2


@pytest.mark.parametrize("dims", [(4, 4, 4, 4), (5, 5, 5, 5)])
def test_building_the_model_and_its_blocks_peaks_within_the_model_bytes(dims):
    space = HilbertSpace(dims)
    tracemalloc.start()
    try:
        model = DeviceModel(DeviceParams(), space, True)
        kept = _kept_arrays(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.cotuned_sectors) == 2
    assert 8 * space.size**2 + sum(a.nbytes for a in kept) < peak <= model_bytes(dims)


def weyl_bound(h: np.ndarray) -> np.ndarray:
    """Per point of a (k, n, n) stack, c·u·‖H‖₂ with c = n fixed: the backward
    error of a symmetric eigensolver is p(n)·u·‖H‖₂, p(n) = n in the textbook
    bound, and by Weyl's inequality no eigenvalue moves by more than the norm
    of a perturbation, so two solves of H and one of its orthogonal split
    agree within it."""
    n = h.shape[-1]
    return n * (np.finfo(float).eps / 2) * np.abs(np.linalg.eigvalsh(h)).max(axis=1)


def sector_levels(model: DeviceModel, f: np.ndarray) -> np.ndarray:
    """The co-tuned sectors' eigenvalues at each point of ``f``, merged by a sort."""
    solved = [np.linalg.eigvalsh(b.stack(f, f)) for b in model.cotuned_sectors]
    return np.sort(np.concatenate(solved, axis=1), axis=1)


@pytest.mark.parametrize("dims, sizes", [((3, 3, 3, 3), [26, 14]), ((4, 4, 4, 4), [80, 48]),
                                         ((5, 5, 5, 5), [186, 126])])
@pytest.mark.parametrize("g_ab", [0.0, 0.01, -0.01])
def test_cotuned_sectors_have_the_odd_blocks_eigenvalues(dims, sizes, g_ab):
    model = DeviceModel(DeviceParams(g_ab=g_ab), HilbertSpace(dims), True)
    sectors = model.cotuned_sectors
    assert [len(b.template) for b in sectors] == sizes
    for b in sectors:
        assert np.array_equal(b.template, b.template.T)
        assert np.array_equal(b.n_q1, b.n_q2)
    f = np.array([4.471, 4.52, 4.6392, 4.70, 4.76, 5.2])
    full = model.block(model.odd).stack(f, f)
    difference = np.abs(sector_levels(model, f) - np.linalg.eigvalsh(full)).max(axis=1)
    assert np.all(difference <= weyl_bound(full))


@pytest.mark.parametrize("params, dims", [
    (DeviceParams(g_a1=0.026), (3, 3, 3, 3)),
    (DeviceParams(g_b2=0.031), (3, 3, 3, 3)),
    (DeviceParams(anharmonicity_1=-0.24), (3, 3, 3, 3)),
    (DeviceParams(), (3, 3, 3, 4)),
])
def test_a_device_without_the_qubit_exchange_keeps_the_odd_block_whole(params, dims):
    model = DeviceModel(params, HilbertSpace(dims), True)
    [sector] = model.cotuned_sectors
    assert sector is model.odd_block
