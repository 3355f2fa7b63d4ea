"""Reference quantities the tests check the library against.

None of these is on a program path: each is a closed form, a textbook
definition or a slow reference built from one term by term, kept beside the
tests that use it. :func:`vec_oracle` takes the device Hamiltonians, the
collapse operators and the matrix exponential from the library and builds
everything else itself, or with ``extended`` takes only the Hamiltonians and
the collapse operators and computes in extended precision
(:func:`expm_extended`); :func:`separations_alone` takes the Hamiltonians.
"""

import math

import numpy as np

from dresq.device import TWO_PI, device_model
from dresq.dynamics import _expm, collapse_operators
from dresq.fock import HilbertSpace


def dispersive_coupling(params, f1: float, f2: float) -> float:
    """Second-order qubit-qubit coupling (GHz) at one point, in Python floats:
    g_12 + Σ ½ g_λ1 g_λ2 (1/Δ_λβ − 1/Σ_λβ), summed from 0.0 over resonator
    λ = a, b and, within each, qubit β = 1, 2."""
    total = 0.0
    for f_res, g1, g2 in ((params.resonator_freq_a, params.g_a1, params.g_a2),
                          (params.resonator_freq_b, params.g_b1, params.g_b2)):
        product = g1 * g2
        for f_q in (f1, f2):
            total += 0.5 * (product / (f_q - f_res) - product / (f_q + f_res))
    return total + params.g_12


def separations_alone(model, f1s, f2s, modes=(2, 3)):
    """A stand-in for ``spectroscopy._pair_separations`` on the whole odd
    block: it builds each point (f1s[k], f2s[k]) alone, on the whole space,
    and restricts it to the odd block, where one ``eigvalsh`` gives its
    levels. The pair is the sorted ranks of the two modes' single-excitation
    states in the block's bare energies sorted in Python, a tracked state
    before any other of its energy and the first mode's before the second's."""
    odd = np.ix_(model.odd, model.odd)
    tracked = np.searchsorted(model.odd, np.take(model.space.single_excitation_indices(), modes))
    tracked = [int(t) for t in tracked]
    seps, pairs = [], []
    for f1, f2 in zip(f1s, f2s):
        h = model.block(np.arange(model.space.size)).stack(np.array([f1]), np.array([f2]))[0][odd]
        bare = np.diag(h).tolist()
        order = sorted(range(len(bare)),
                       key=lambda j: (bare[j], j not in tracked, j != tracked[0]))
        low, high = sorted(order.index(t) for t in tracked)
        evals = np.linalg.eigvalsh(h)
        seps.append(abs(evals[high] - evals[low]) / TWO_PI)
        pairs.append((low, high))
    return np.array(seps), np.array(pairs, dtype=int)


def total_number_operator(space: HilbertSpace) -> np.ndarray:
    """Total excitation number Σ a†a over every mode (diagonal)."""
    return np.diag(space.quanta.sum(axis=0).astype(float))


def purity(rho: np.ndarray) -> float:
    """Tr ρ², 1 for a pure state."""
    return float(np.real(np.trace(rho @ rho)))


def two_level_transfer(g_eff_mhz: float, delta12_mhz: float, t_ns) -> np.ndarray | float:
    """Excitation-transfer probability of the resonant exchange model.

    P(t) = [4g² / (Δ² + 4g²)] · sin²(π √(4g² + Δ²) t) with g and Δ in
    linear frequency and t in matching time units. Peak value
    4g²/(Δ²+4g²); on resonance the first full transfer is at
    t = 1/(4g).
    """
    g = g_eff_mhz * 1e-3  # GHz, pairs with t in ns
    d = delta12_mhz * 1e-3
    denom = d * d + 4.0 * g * g
    if denom == 0.0:
        return np.zeros_like(np.asarray(t_ns, dtype=float)) if np.ndim(t_ns) else 0.0
    amp = 4.0 * g * g / denom
    f = math.sqrt(denom)
    t = np.asarray(t_ns, dtype=float)
    p = amp * np.sin(math.pi * f * t) ** 2
    return p if np.ndim(t_ns) else float(p)


def pi_flip(space: HilbertSpace, mode: int) -> np.ndarray:
    """Swap of levels 0 and 1 of one mode on the whole space: the one-mode
    swap embedded by Kronecker products with identities."""
    out = np.ones((1, 1))
    for m, d in enumerate(space.dims):
        out = np.kron(out, np.eye(d)[[1, 0, *range(2, d)]] if m == mode else np.eye(d))
    return out


def lindblad_superoperator(h: np.ndarray, collapse) -> np.ndarray:
    """-i[H, ·] + Σ_k D[L_k] on row-major vec(ρ), vec(AρB) = (A⊗Bᵀ)vec(ρ), for
    a (…, n, n) stack of H, term by term as Kronecker products:
    -i(H⊗1 − 1⊗Hᵀ) + Σ_k (L_k⊗L̄_k − ½ L_k†L_k⊗1 − ½ 1⊗(L_k†L_k)ᵀ)."""
    n = h.shape[-1]
    eye = np.eye(n)
    dissipator = np.zeros((n * n, n * n), dtype=np.result_type(h, complex))
    for l in collapse:
        ldl = l.conj().T @ l
        dissipator += np.kron(l, l.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    members = [dissipator - 1j * (np.kron(hk, eye) - np.kron(eye, hk.T))
               for hk in h.reshape(-1, n, n)]
    return np.reshape(members, (*h.shape[:-2], n * n, n * n))


def expm_extended(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix in extended precision (``np.clongdouble``, a
    64-bit significand on x86), a reference for double-precision exponentials.

    The indices fall apart into classes that no nonzero entry of a links, and
    exp(a) is block diagonal on them, so each block is exponentiated alone:
    scaled by 2^-s to a 1-norm of at most 1/2, summed as a Taylor series to
    degree 24 (a remainder below 1e-31 of the norm), and squared s times.
    """
    a = np.asarray(a, dtype=np.clongdouble)
    links = (a != 0) | (a != 0).T
    out = np.zeros_like(a)
    free = np.ones(len(a), dtype=bool)
    while free.any():
        block = np.arange(len(a)) == np.argmax(free)
        while not np.array_equal(grown := block | links[:, block].any(axis=1), block):
            block = grown
        free &= ~block
        at = np.ix_(block, block)
        b = a[at]
        norm = float(np.abs(b).sum(axis=0).max())
        s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
        b = b / np.clongdouble(2.0**s)
        term = total = np.eye(len(b), dtype=np.clongdouble)
        for k in range(1, 25):
            term = term @ b / k
            total = total + term
        for _ in range(s):
            total = total @ total
        out[at] = total
    return out


def leak_rule_block(space: HilbertSpace, rho: np.ndarray, operators) -> np.ndarray:
    """The block by the operator-leak rule: the states with N up to the largest
    on the support of rho, unless an operator, or L†L for one, maps one of
    them outside; then the full space."""
    n_exc = space.quanta.sum(axis=0)
    inside = n_exc <= n_exc[np.any(rho != 0, axis=1)].max()
    leak = np.ix_(~inside, inside)
    if any(np.any(op[leak]) or np.any((op.conj().T @ op)[leak]) for op in operators):
        return np.arange(space.size)
    return np.flatnonzero(inside)


def vec_oracle(params, space, durations, freqs, rho0, observables, n_samples, counter_rotating,
               frame, readout=None, preps=(), extended=False):
    """A batch of staged evolutions on complex vec(ρ) of the whole block, one
    sample at a time.

    The π-preps ``preps`` ("pi_q1", "pi_q2") act on ``rho0`` as full-space
    flips P ρ₀ P†. Member b holds the qubit frequencies ``freqs[k, b]`` on
    stage k, whose generator is :func:`lindblad_superoperator` of its H (in
    the frame rotating at ``frame`` times N) and the collapse operators, on
    the block of :func:`leak_rule_block`. Each member goes from sample to
    sample by exp(Δt·L) of the stage it is in, across stage boundaries on the
    way. With a ``readout`` ((f₁, f₂), t_ns) each sample's rows are those of
    the readout carried back one grid step at a time.

    With ``extended`` the generators are built from the double-precision H
    and collapse operators in extended precision and exponentiated by
    :func:`expm_extended`; the readings and states are rounded to double.

    Returns the block indices, the mask of the entries of vec(ρ) on the block
    that the generators can carry the support of ρ₀ to, the readings
    (member, row, sample) and the block states (member, sample, n, n).
    """
    dtype, expm = (np.clongdouble, expm_extended) if extended else (float, _expm)
    for tag in preps:
        flip = pi_flip(space, 2 if tag == "pi_q1" else 3)
        rho0 = flip @ rho0 @ flip.T
    n_stages, batch = np.shape(freqs)[:2]
    points = np.reshape(np.asarray(freqs, dtype=float), (-1, 2))
    if readout is not None:
        points = np.vstack([points, readout[0]])
    hs = device_model(params, space, counter_rotating).block(np.arange(space.size)).stack(
        points[:, 0], points[:, 1])
    hs -= TWO_PI * frame * total_number_operator(space)
    ls = collapse_operators(params, space)
    idx = leak_rule_block(space, rho0, list(hs) + ls)
    sel = np.ix_(idx, idx)
    generators = lindblad_superoperator(hs[:, idx[:, None], idx].astype(dtype),
                                        [l[sel].astype(dtype) for l in ls])
    vec0 = rho0[sel].reshape(-1)
    links = np.any(generators != 0, axis=0)
    reach = vec0 != 0
    for _ in range(vec0.size):
        reach = reach | links[:, reach].any(axis=1)
    rows = np.stack([np.eye(idx.size)] + [o[sel].T for o in observables]).reshape(
        1 + len(observables), -1)
    times = np.linspace(0.0, sum(durations), n_samples)
    sample_rows = [rows] * n_samples
    if readout is not None:
        rows = rows @ expm((readout[1] - times[-1]) * generators[-1])
        step = expm((times[1] - times[0]) * generators[-1])
        for j in range(n_samples - 1, -1, -1):
            sample_rows[j] = rows
            rows = rows @ step
    readings = np.empty((batch, len(rows), n_samples))
    states = np.empty((batch, n_samples, idx.size, idx.size), dtype=complex)
    for b in range(batch):
        g = generators[b:n_stages * batch:batch]
        v, k, start, t_now = vec0, 0, 0.0, 0.0
        for j, t in enumerate(times):
            while k + 1 < n_stages and t > start + durations[k] + 1e-9:
                start += durations[k]
                if start > t_now:
                    v = expm((start - t_now) * g[k]) @ v
                t_now, k = start, k + 1
            if t > t_now:
                v = expm((t - t_now) * g[k]) @ v
            t_now = t
            readings[b, :, j] = (sample_rows[j] @ v).real
            states[b, j] = v.reshape(idx.size, idx.size)
    return idx, reach, readings, states
