"""State-vector backend against dense-matrix and arithmetic oracles."""
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge.ir import Circuit, Control, Gate, GateKind, Index, Named
from qforge.library import cuccaro_full_add, mod_add
from qforge.passes import resolve_names
from qforge.statevector import (
    GATE_MATRICES,
    BasisOutOfRange,
    StateTooLarge,
    apply_gate,
    init_state,
    probabilities,
    run,
)

from helpers import NON_SWAP_KINDS, dense_unitary, norm, random_indexed_circuit

SQ2 = 1 / math.sqrt(2)


def test_init_state():
    assert list(init_state(1, 0).amplitudes) == [1, 0]
    assert list(init_state(2, 3).amplitudes) == [0, 0, 0, 1]
    with pytest.raises(BasisOutOfRange):
        init_state(1, 2)
    with pytest.raises(ValueError):
        init_state(0)


def test_gate_matrices_are_unitary():
    for kind, u in GATE_MATRICES.items():
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12), kind


def test_hadamard_on_zero():
    s = apply_gate(init_state(1), Gate(GateKind.H, (Index(0),)))
    np.testing.assert_allclose(s.amplitudes, [SQ2, SQ2], atol=1e-12)


def test_bell_state():
    s = init_state(2)
    apply_gate(s, Gate(GateKind.H, (Index(0),)))
    apply_gate(s, Gate(GateKind.X, (Index(1),), (Control(Index(0)),)))
    np.testing.assert_allclose(s.amplitudes, [SQ2, 0, 0, SQ2], atol=1e-12)
    np.testing.assert_allclose(probabilities(s), [0.5, 0, 0, 0.5], atol=1e-12)


def test_stride_pairing_on_qubit_two():
    # X on qubit 2 of a 3-qubit register swaps amp[j] and amp[j+4]
    rng = random.Random(5)
    amp = np.array([complex(rng.random(), rng.random()) for _ in range(8)])
    amp /= norm(amp)
    s = init_state(3)
    s.amplitudes[:] = amp
    g = Gate(GateKind.X, (Index(2),))
    apply_gate(s, g)
    expected = dense_unitary(Circuit((), 3, (g,))) @ amp
    np.testing.assert_allclose(s.amplitudes, expected, atol=1e-12)
    for j in range(4):
        assert s.amplitudes[j] == amp[j + 4]
        assert s.amplitudes[j + 4] == amp[j]


def test_pair_index_disjointness():
    # the (j, j + 2**t) pairs partition the index space for every target
    for n in range(1, 6):
        for t in range(n):
            lows = [j for j in range(1 << n) if not (j >> t) & 1]
            cover = sorted(lows + [j | (1 << t) for j in lows])
            assert cover == list(range(1 << n))


def test_apply_gate_rejects_swap_and_named_refs():
    with pytest.raises(ValueError, match="swap targets are identical"):
        apply_gate(init_state(2), Gate(GateKind.SWAP, (Index(1), Index(1))))
    with pytest.raises(ValueError, match="resolve"):
        apply_gate(init_state(2), Gate(GateKind.X, (Named("a", 0),)))


def test_apply_swap_matches_dense_oracle():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 5)
        qs = rng.sample(range(n), min(n, rng.randint(2, 4)))
        g = Gate(
            GateKind.SWAP,
            (Index(qs[0]), Index(qs[1])),
            tuple(Control(Index(q), rng.random() < 0.5) for q in qs[2:]),
        )
        amp = np.array([complex(rng.random(), rng.random()) for _ in range(1 << n)])
        amp /= norm(amp)
        s = init_state(n)
        s.amplitudes[:] = amp
        apply_gate(s, g)
        expected = dense_unitary(Circuit((), n, (g,))) @ amp
        np.testing.assert_allclose(s.amplitudes, expected, atol=1e-12)


def test_controlled_gates_match_dense_oracle():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 6)
        c = random_indexed_circuit(rng, n, rng.randint(1, 12))
        prep = rng.randrange(1 << n)
        got = run(c, prep).amplitudes
        expected = dense_unitary(c) @ init_state(n, prep).amplitudes
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_norm_preserved_per_gate():
    rng = random.Random(31)
    s = init_state(6)
    apply_gate(s, Gate(GateKind.H, (Index(0),)))
    c = random_indexed_circuit(rng, 6, 200, kinds=[k for k in GateKind if k is not GateKind.SWAP])
    for g in c.gates:
        apply_gate(s, g)
        assert abs(norm(s.amplitudes) - 1.0) <= 1e-12


def test_self_inverse_gates_round_trip():
    rng = random.Random(37)
    for kind in (GateKind.X, GateKind.Y, GateKind.Z, GateKind.H):
        amp = np.array([complex(rng.random(), rng.random()) for _ in range(8)])
        amp /= norm(amp)
        s = init_state(3)
        s.amplitudes[:] = amp
        g = Gate(kind, (Index(1),))
        apply_gate(apply_gate(s, g), g)
        np.testing.assert_allclose(s.amplitudes, amp, atol=1e-12)


def test_run_empty_circuit():
    s = run(Circuit((), 3), 5)
    assert list(s.amplitudes) == list(init_state(3, 5).amplitudes)


def test_run_full_adder_basis_arithmetic():
    # a=3, b=5 -> sum 8 on the b register, a and c restored, z = 0
    circuit, _ = resolve_names(cuccaro_full_add(4))
    out = run(circuit, 3 | (5 << 4))
    idx = int(np.argmax(probabilities(out)))
    assert abs(out.amplitudes[idx] - 1) < 1e-12
    assert idx & 15 == 3
    assert (idx >> 4) & 15 == 8
    assert (idx >> 8) & 1 == 0
    assert (idx >> 9) & 1 == 0


def test_run_mod_adder_wraparound():
    circuit, _ = resolve_names(mod_add(4))
    out = run(circuit, 15 | (1 << 4))
    idx = int(np.argmax(probabilities(out)))
    assert (idx >> 4) & 15 == 0  # (15 + 1) mod 16
    assert idx & 15 == 15
    assert (idx >> 8) & 1 == 0


def test_probabilities_sum_to_one_random_state():
    rng = random.Random(41)
    amp = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(32)])
    amp /= norm(amp)
    s = init_state(5)
    s.amplitudes[:] = amp
    assert abs(float(probabilities(s).sum()) - 1.0) <= 1e-12


def _random_state(rng: random.Random, n: int) -> np.ndarray:
    amp = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << n)])
    return amp / norm(amp)


def _gate(kind: GateKind, qubits, polarities) -> Gate:
    n_targets = 2 if kind is GateKind.SWAP else 1
    targets = tuple(Index(q) for q in qubits[:n_targets])
    controls = tuple(
        Control(Index(q), p) for q, p in zip(qubits[n_targets:], polarities)
    )
    return Gate(kind, targets, controls)


def _check_against_dense(n: int, gate: Gate, amp: np.ndarray) -> None:
    s = init_state(n)
    s.amplitudes[:] = amp
    apply_gate(s, gate)
    expected = dense_unitary(Circuit((), n, (gate,))) @ amp
    np.testing.assert_allclose(s.amplitudes, expected, atol=1e-12)


def test_every_kind_with_mixed_polarity_controls_matches_dense_oracle():
    rng = random.Random(43)
    for n in range(1, 8):
        for kind in GateKind:
            n_targets = 2 if kind is GateKind.SWAP else 1
            if n_targets > n:
                continue
            for k in range(min(3, n - n_targets) + 1):
                for polarities in itertools.product((True, False), repeat=k):
                    qubits = rng.sample(range(n), n_targets + k)
                    gate = _gate(kind, qubits, polarities)
                    _check_against_dense(n, gate, _random_state(rng, n))


@pytest.mark.parametrize(
    "n, kind, qubits",
    [
        (1, GateKind.X, [0]),
        (3, GateKind.X, [1, 0, 2]),  # CCX
        (3, GateKind.SWAP, [0, 2, 1]),  # controlled SWAP
    ],
)
def test_gates_whose_controls_and_targets_fix_every_axis(n, kind, qubits):
    # every axis is fixed: an integer index there would select a scalar
    # copy and the gate would be lost
    rng = random.Random(47)
    n_controls = len(qubits) - (2 if kind is GateKind.SWAP else 1)
    for polarities in itertools.product((True, False), repeat=n_controls):
        gate = _gate(kind, qubits, polarities)
        amp = _random_state(rng, n)
        _check_against_dense(n, gate, amp)


@st.composite
def _circuits_and_preps(draw):
    n = draw(st.integers(1, 6))
    kinds = list(GateKind) if n >= 2 else NON_SWAP_KINDS
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        n_targets = 2 if kind is GateKind.SWAP else 1
        k = draw(st.integers(0, min(3, n - n_targets)))
        qubits = draw(st.permutations(range(n)))[: n_targets + k]
        polarities = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        gates.append(_gate(kind, qubits, polarities))
    prep = draw(st.integers(0, (1 << n) - 1))
    return Circuit((), n, tuple(gates)), prep


@settings(max_examples=200, deadline=None)
@given(_circuits_and_preps())
def test_run_matches_dense_unitary_property(case):
    c, prep = case
    e_prep = np.zeros(1 << c.n_qubits, dtype=complex)
    e_prep[prep] = 1.0
    np.testing.assert_allclose(
        run(c, prep).amplitudes, dense_unitary(c) @ e_prep, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("n", [40, 64])
def test_init_state_too_large_raises_before_allocating(n):
    tracemalloc.start()
    try:
        with pytest.raises(StateTooLarge):
            init_state(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_gates_allocate_no_state_sized_scratch_and_keep_nothing():
    n = 16
    itemsize = np.dtype(complex).itemsize
    state_bytes = itemsize << n
    # numpy's buffered ufunc iteration over a strided view allocates up to
    # bufsize elements per operand (at most three here), whatever n is
    buffers = 3 * np.getbufsize() * itemsize
    diagonal = {GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG}
    # numpy's first call of each loop may cache a few bytes; not at n=16
    warm = init_state(4)
    for kind in GateKind:
        for k in range(3):
            apply_gate(warm, _gate(kind, [0, 1, 2, 3], [True, False][:k]))

    rng = random.Random(53)
    s = init_state(n)
    s.amplitudes[:] = _random_state(rng, n)
    tracemalloc.start()
    try:
        for kind in GateKind:
            n_targets = 2 if kind is GateKind.SWAP else 1
            for t in range(n):
                for k in range(4):
                    others = [q for q in range(n) if q != t]
                    qubits = [t] + rng.sample(others, n_targets - 1 + k)
                    polarities = [rng.random() < 0.5 for _ in range(k)]
                    gate = _gate(kind, qubits, polarities)
                    # the controlled subspace, and the part of it moved
                    # through a temporary
                    subspace = state_bytes >> k
                    scratch = 0 if kind in diagonal else subspace >> n_targets
                    before = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    apply_gate(s, gate)
                    current, peak = tracemalloc.get_traced_memory()
                    where = f"{kind.value} target {t} with {k} controls"
                    assert peak - before <= scratch + buffers + (64 << 10), where
                    assert current - before <= 1 << 10, where
                    if k == 0 and kind is GateKind.H:
                        assert peak - before <= state_bytes, where
    finally:
        tracemalloc.stop()
