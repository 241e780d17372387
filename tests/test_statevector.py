"""State-vector backend against dense-matrix and arithmetic oracles."""
import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge import statevector
from qforge.ir import Circuit, Control, Gate, GateKind, Index, Named, register_bases
from qforge.library import cuccaro_full_add, mod_add
from qforge.passes import resolve_names
from qforge.statevector import (
    BasisOutOfRange,
    StateTooLarge,
    StateVector,
    apply_gate,
    init_state,
    probabilities,
    run,
)

from helpers import (
    GATE_MATRICES,
    NON_SWAP_KINDS,
    dense_unitary,
    norm,
    random_indexed_circuit,
)

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


@pytest.mark.parametrize(
    "kind, on_zero, on_one",
    [
        (GateKind.X, [0, 1], [1, 0]),
        (GateKind.Y, [0, 1j], [-1j, 0]),
        (GateKind.H, [SQ2, SQ2], [SQ2, -SQ2]),
        (GateKind.Z, None, [0, -1]),
        (GateKind.S, None, [0, 1j]),
        (GateKind.SDG, None, [0, -1j]),
        (GateKind.T, None, [0, complex(SQ2, SQ2)]),
        (GateKind.TDG, None, [0, complex(SQ2, -SQ2)]),
    ],
    ids=["x", "y", "h", "z", "s", "sdg", "t", "tdg"],
)
def test_gate_action_on_basis_states(kind, on_zero, on_one):
    # literal amplitudes: apart from the kernel's phases and helpers' matrices
    for basis, want in ((0, on_zero), (1, on_one)):
        if want is not None:
            s = apply_gate(init_state(1, basis), Gate(kind, (Index(0),)))
            np.testing.assert_allclose(s.amplitudes, want, rtol=0, atol=1e-12)


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
    with pytest.raises(ValueError, match="^swap gate names qubit 1 twice$"):
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


# ---- X/SWAP runs applied as one permutation


def _gate_loop(c: Circuit, prep: int) -> np.ndarray:
    s = init_state(c.n_qubits, prep)
    for g in c.gates:
        apply_gate(s, g)
    return s.amplitudes


def _fuse_everything():
    # runs of any length fuse at any n, 64 indices a chunk: small cases
    # reach _permute and, from 8 qubits on, its loop over several chunks;
    # a support limit of 0 sends every run to the dense loop at its first H
    return mock.patch.multiple(
        statevector, FUSE_MIN_GATES=1, FUSE_MIN_QUBITS=1, _CHUNK_BITS=6,
        SPARSE_SHARE_BITS=64,
    )


@st.composite
def _permutation_heavy_circuits(draw):
    n = draw(st.integers(1, 13))
    hs = draw(st.integers(1, (1 << n) - 1))
    # H first, so the amplitudes are not one basis state
    gates = [Gate(GateKind.H, (Index(q),)) for q in range(n) if hs >> q & 1]
    for _ in range(draw(st.integers(1, 4))):
        rng = random.Random(draw(st.integers(0, 2**32)))
        gates += random_indexed_circuit(
            rng, n, draw(st.integers(0, 40)), kinds=[GateKind.X, GateKind.SWAP],
            p_negative=0.5,
        ).gates
        gates += random_indexed_circuit(rng, n, draw(st.integers(0, 3))).gates
    prep = draw(st.integers(0, (1 << n) - 1))
    return Circuit((), n, tuple(gates)), prep


@settings(max_examples=100, deadline=None)
@given(_permutation_heavy_circuits())
def test_run_equals_the_gate_loop_exactly_property(case):
    c, prep = case
    want = _gate_loop(c, prep)
    assert np.array_equal(run(c, prep).amplitudes, want)
    with _fuse_everything():
        assert np.array_equal(run(c, prep).amplitudes, want)


def _x_cycle(n: int, length: int, qubits) -> list[Gate]:
    # CNOTs and Toffolis, polarities mixed, each target controlled by its neighbours
    gates = []
    for i in range(length):
        t = qubits[i % len(qubits)]
        controls = [(t + 1) % n, (t + 2) % n][: i % 3]
        gates.append(_gate(GateKind.X, [t] + controls, [i % 2 == 0, i % 4 < 2]))
    return gates


def test_run_splits_where_a_run_would_target_every_qubit():
    n = 12
    hs = [Gate(GateKind.H, (Index(q),)) for q in range(n)]
    xs = _x_cycle(n, 20, range(n - 1)) + _x_cycle(n, 20, range(1, n))
    c = Circuit((), n, tuple(hs + xs + xs[:20]))
    runs = list(statevector._permutation_runs(c.gates, n))
    # the H layer is in no run; each run leaves its p untargeted
    assert runs[0][0] == n and runs[-1][1] == len(c.gates) and len(runs) > 1
    for start, stop, p in runs:
        assert all(g.targets[0].index != p for g in c.gates[start:stop])
    assert [stop for _, stop, _ in runs[:-1]] == [start for start, _, _ in runs[1:]]
    assert sum(stop - start >= statevector.FUSE_MIN_GATES for start, stop, _ in runs) >= 2
    assert np.array_equal(run(c, 5).amplitudes, _gate_loop(c, 5))


def test_gates_naming_a_qubit_twice_raise_in_the_dense_loop():
    n = 12
    hs = [Gate(GateKind.H, (Index(q),)) for q in range(n)]
    xs = _x_cycle(n, 20, range(n - 1))
    # verify rejects both; the H layer ends the sparse phase first
    odd = Gate(GateKind.X, (Index(2),), (Control(Index(2), False), Control(Index(5))))
    c = Circuit((), n, tuple(hs + xs + [odd] + xs))
    assert statevector._sparse(init_state(n, 3), c.gates) == 6
    with pytest.raises(ValueError, match="^x gate names qubit 2 twice$"):
        run(c, 3)
    with pytest.raises(ValueError, match="^swap gate names qubit 4 twice$"):
        run(Circuit((), n, tuple(hs + xs + [_gate(GateKind.SWAP, [4, 4], [])] + xs)))


@pytest.mark.parametrize(
    "n, gates",
    [
        (1, [_gate(GateKind.H, [0], []), _gate(GateKind.X, [0], []),
             _gate(GateKind.X, [0], [])]),
        (2, [_gate(GateKind.H, [0], []), _gate(GateKind.X, [1], [True]),
             _gate(GateKind.SWAP, [0, 1], []), _gate(GateKind.X, [0], [False]),
             _gate(GateKind.SWAP, [1, 0], []), _gate(GateKind.X, [1], [])]),
    ],
    ids=["n1", "n2"],
)
def test_gates_that_target_every_qubit_are_never_fused(n, gates):
    c = Circuit((), n, tuple(gates))
    for start, stop, p in statevector._permutation_runs(c.gates, n):
        assert 0 <= p < n and stop - start == 1
    with _fuse_everything():
        for prep in range(1 << n):
            assert np.array_equal(run(c, prep).amplitudes, _gate_loop(c, prep))


def test_run_is_exact_at_sixteen_qubits():
    n = 16
    rng = random.Random(59)
    hs = [Gate(GateKind.H, (Index(q),)) for q in range(0, n, 2)]
    perm = [_gate(GateKind.SWAP, rng.sample(range(n - 1), 3), [rng.random() < 0.5])
            for _ in range(8)] + _x_cycle(n, 24, range(n - 1))
    tail = [_gate(GateKind.T, [3], []), _gate(GateKind.Y, [7], [False])]
    c = Circuit((), n, tuple(hs + perm + tail + perm[::-1]))
    runs = [r for r in statevector._permutation_runs(c.gates, n)
            if r[1] - r[0] >= statevector.FUSE_MIN_GATES]
    assert [(start, stop) for start, stop, _ in runs] == [(8, 40), (42, 74)]
    assert np.array_equal(run(c, 12345).amplitudes, _gate_loop(c, 12345))


def test_a_superposed_adder_leaves_the_sparse_phase_and_fuses_at_sixteen_qubits():
    adder, _ = resolve_names(cuccaro_full_add(7))  # 16 qubits
    n, bases = adder.n_qubits, register_bases(adder)
    hs = tuple(
        Gate(GateKind.H, (Index(bases[label][0] + k),))
        for label in ("a", "b") for k in range(bases[label][1])
    )
    c = Circuit(adder.registers, n, hs + adder.gates)
    assert n == 16 and statevector._sparse(init_state(n, 9), c.gates) < len(hs)
    with mock.patch.object(statevector, "_permute", wraps=statevector._permute) as spy:
        got = run(c, 9)
    assert spy.call_count == 2
    assert np.array_equal(got.amplitudes, _gate_loop(c, 9))


def test_fused_run_allocates_half_the_state_plus_scratch_and_keeps_nothing():
    n = 16
    state_bytes = np.dtype(complex).itemsize << n
    rng = random.Random(61)
    gates = _x_cycle(n, 40, range(n - 1))
    gates[::5] = [_gate(GateKind.SWAP, rng.sample(range(n - 1), 2), []) for _ in gates[::5]]
    # numpy's first call of each loop, and CPython's tuple free lists, may
    # keep a few bytes: warm both up with the same call
    statevector._permute(init_state(n), gates, n - 1)

    s = init_state(n)
    s.amplitudes[:] = _random_state(rng, n)
    want = StateVector(n, s.amplitudes.copy())
    for g in gates:
        apply_gate(want, g)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        statevector._permute(s, gates, n - 1)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= state_bytes // 2 + (4 << 20)
    assert current - before <= 1 << 10
    assert np.array_equal(s.amplitudes, want.amplitudes)


# ---- the sparse phase: gates on a basis state's support


@st.composite
def _basis_circuits(draw):
    n = draw(st.integers(1, 16))
    # an H layer of 0-10 qubits: the support passes 2**n >> 6 entries, 0
    # below 6 qubits, and the run turns dense, at a different gate for each
    # n and layer
    layer = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=10))
    gates = [Gate(GateKind.H, (Index(q),)) for q in layer]
    others = [k for k in GateKind if k not in (GateKind.X, GateKind.SWAP)]
    for _ in range(draw(st.integers(1, 3))):
        rng = random.Random(draw(st.integers(0, 2**32)))
        gates += random_indexed_circuit(
            rng, n, draw(st.integers(0, 20)), kinds=[GateKind.X, GateKind.SWAP],
            p_negative=0.5,
        ).gates
        gates += random_indexed_circuit(
            rng, n, draw(st.integers(0, 8)), kinds=others, p_negative=0.5
        ).gates
    prep = draw(st.integers(0, (1 << n) - 1))
    return Circuit((), n, tuple(gates)), prep


@settings(max_examples=100, deadline=None)
@given(_basis_circuits())
def test_sparse_runs_equal_the_gate_loop_property(case):
    c, prep = case
    want = _gate_loop(c, prep)
    assert np.array_equal(run(c, prep).amplitudes, want)
    # a support as large as the state: every gate stays sparse
    with mock.patch.object(statevector, "SPARSE_SHARE_BITS", 0):
        assert np.array_equal(run(c, prep).amplitudes, want)


def test_sparse_phase_stops_where_the_support_would_pass_its_share():
    n = 12  # at most 2**6 entries
    c = Circuit((), n, tuple(Gate(GateKind.H, (Index(q),)) for q in range(8)))
    assert statevector._sparse(init_state(n, 5), c.gates) == 6
    assert np.array_equal(run(c, 5).amplitudes, _gate_loop(c, 5))


@pytest.mark.parametrize(
    "odd",
    [
        Gate(GateKind.X, (Index(2),), (Control(Index(2), False), Control(Index(5)))),
        Gate(GateKind.H, (Index(3),), (Control(Index(3)),)),
        Gate(GateKind.T, (Index(4),), (Control(Index(6)), Control(Index(6), False))),
        Gate(GateKind.Y, (Index(7),), (Control(Index(7), False),)),
    ],
    ids=["x", "h", "t", "y"],
)
def test_gates_naming_a_qubit_twice_end_the_sparse_phase(odd):
    n = 12
    # verify rejects each, and read_gate refuses it
    head = [Gate(GateKind.H, (Index(q),)) for q in (0, 3, 6)] + _x_cycle(n, 10, range(n - 1))
    c = Circuit((), n, tuple(head + [odd] + head))
    for prep in (0, 0xFFF, 0x2C5):
        with pytest.raises(ValueError, match="names qubit [2-7] twice$"):
            statevector._sparse(init_state(n, prep), c.gates)
        with pytest.raises(ValueError, match="names qubit [2-7] twice$"):
            run(c, prep)


def test_swap_of_a_qubit_with_itself_raises_while_sparse():
    n = 12
    head = [Gate(GateKind.H, (Index(0),))] + _x_cycle(n, 10, range(n - 1))
    with pytest.raises(ValueError, match="^swap gate names qubit 4 twice$"):
        run(Circuit((), n, tuple(head + [_gate(GateKind.SWAP, [4, 4], [])])))


def test_a_gate_naming_every_qubit_is_left_to_apply_gate():
    # apply_gate multiplies its one-element half view in place, which numpy
    # rounds its own way: T takes -(1+1j)/sqrt(2) to a real part of 0 in
    # place, and of -2.2e-17 out of place
    n = 12
    everything = _gate(GateKind.T, list(range(n)), [True] * (n - 1))
    c = Circuit((), n, (_gate(GateKind.Z, [0], []), _gate(GateKind.T, [0], []), everything))
    prep = (1 << n) - 1
    assert statevector._sparse(init_state(n, prep), c.gates) == 2
    got = run(c, prep).amplitudes
    assert np.array_equal(got, _gate_loop(c, prep)) and got[prep].real == 0


def test_a_sparse_run_allocates_no_more_than_init_state_counts():
    n = 20
    state_bytes = np.dtype(complex).itemsize << n
    # an H layer up to the largest support, 2**14 entries, then gates of
    # every kind on it, the H pairing entries of the support with each other
    layer = [Gate(GateKind.H, (Index(q),)) for q in range(n - 14, n)]
    mixed = [_gate(kind, [n - 1 - k, k, n - 2 - k], [True, False])
             for k, kind in enumerate(GateKind)]
    c = Circuit((), n, tuple(layer + mixed + _x_cycle(n, 30, range(n - 1))))
    assert {g.kind for g in mixed} == set(GateKind) and mixed[3].kind is GateKind.H
    # numpy's first call of each loop may cache a few bytes
    run(Circuit((), 12, tuple(_gate(g.kind, [1, 2, 3], [True, False]) for g in mixed)), 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        s = run(c, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert statevector._sparse(init_state(n, 3), c.gates) == len(c.gates)
    assert peak - before <= state_bytes + state_bytes // 2
    assert np.array_equal(s.amplitudes, _gate_loop(c, 3))


# ---- a run that stays sparse holds its support


def _holds(s: StateVector, want: np.ndarray) -> bool:
    # entries, probabilities and amplitudes against the dense gate loop
    idx, amp = s.entries()
    rest = np.ones(want.size, dtype=bool)
    rest[idx] = False
    return (
        bool(np.all(np.diff(idx) > 0))
        and np.array_equal(amp, want[idx])
        and not want[rest].any()
        and np.array_equal(probabilities(s), want.real**2 + want.imag**2)
        and np.array_equal(s.amplitudes, want)
    )


@st.composite
def _mixed_basis_circuits(draw):
    n = draw(st.integers(1, 15))
    rng = random.Random(draw(st.integers(0, 2**32)))
    # an H layer of 0-8 qubits, so that later H gates meet entries with and
    # without partners and some runs turn dense; then gates of every kind
    gates = [Gate(GateKind.H, (Index(q),)) for q in rng.sample(range(n), rng.randint(0, min(n, 8)))]
    gates += random_indexed_circuit(rng, n, draw(st.integers(0, 40)), p_negative=0.5).gates
    return Circuit((), n, tuple(gates)), draw(st.integers(0, (1 << n) - 1))


@settings(max_examples=100, deadline=None)
@given(_mixed_basis_circuits())
def test_a_run_holds_what_the_gate_loop_gives_property(case):
    c, prep = case
    assert _holds(run(c, prep), _gate_loop(c, prep))


@pytest.mark.parametrize("w, preps", [(6, 4), (9, 3), (10, 2)], ids=["14", "20", "22"])
def test_an_adder_run_holds_its_one_entry_and_no_array(w, preps):
    c, _ = resolve_names(cuccaro_full_add(w))
    rng = random.Random(w)
    for prep in [(1 << c.n_qubits) - 1] + [rng.getrandbits(c.n_qubits) for _ in range(preps - 1)]:
        s = run(c, prep)
        assert len(s.entries()[0]) == 1
        assert s._dense is None  # entries and probabilities build no complex array
        probabilities(s)
        assert s._dense is None
        assert _holds(s, _gate_loop(c, prep))


def test_init_state_holds_its_basis_until_read():
    s = init_state(20, 7)
    assert [a.tolist() for a in s.entries()] == [[7], [1]] and s._dense is None
    assert s.amplitudes[7] == 1 and s.amplitudes.sum() == 1 and s.amplitudes is s.amplitudes
