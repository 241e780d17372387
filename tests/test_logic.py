"""Computational-basis backend: truth tables, errors, cross-simulator."""
import gc
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qforge.ir import Circuit, Control, Gate, GateKind, Index, Named, index_of, repeat
from qforge.logic import (
    PLANE_SCRATCH,
    BasisState,
    NonLogicGate,
    _ops,
    _translations,
    logic_function,
    plane_indices,
    read_gate,
    run_logic,
    sweep,
)
from qforge.passes import verify
from qforge.reduction import Specialization, specialize_syntactic
from qforge.statevector import apply_gate, init_state, probabilities, run

from helpers import dense_unitary, random_x_circuit


def test_single_not():
    c = Circuit((), 3, (Gate(GateKind.X, (Index(0),)),))
    assert run_logic(c, BasisState(3, 0b000)).bits == 0b001


def test_toffoli_truth_table():
    c = Circuit(
        (), 3, (Gate(GateKind.X, (Index(0),), (Control(Index(1)), Control(Index(2)))),)
    )
    assert run_logic(c, BasisState(3, 0b110)).bits == 0b111
    assert run_logic(c, BasisState(3, 0b010)).bits == 0b010


def test_negative_controls_native():
    c = Circuit((), 2, (Gate(GateKind.X, (Index(1),), (Control(Index(0), False),)),))
    assert run_logic(c, BasisState(2, 0b00)).bits == 0b10
    assert run_logic(c, BasisState(2, 0b01)).bits == 0b01


def test_swap_handled():
    c = Circuit((), 2, (Gate(GateKind.SWAP, (Index(0), Index(1))),))
    assert run_logic(c, BasisState(2, 0b01)).bits == 0b10
    assert run_logic(c, BasisState(2, 0b11)).bits == 0b11


def test_controlled_swap():
    g = Gate(GateKind.SWAP, (Index(0), Index(1)), (Control(Index(2)),))
    c = Circuit((), 3, (g,))
    assert run_logic(c, BasisState(3, 0b001)).bits == 0b001  # control off
    assert run_logic(c, BasisState(3, 0b101)).bits == 0b110  # control on


def test_non_logic_gate_error():
    c = Circuit((), 2, (Gate(GateKind.X, (Index(0),)), Gate(GateKind.H, (Index(1),))))
    with pytest.raises(NonLogicGate) as info:
        run_logic(c, BasisState(2, 0))
    assert info.value.kind is GateKind.H
    assert info.value.gate_index == 1


def test_requires_indexed_circuit():
    c = Circuit((("a", 1),), 1, (Gate(GateKind.X, (Named("a", 0),)),))
    with pytest.raises(ValueError, match="resolve"):
        run_logic(c, BasisState(1, 0))


def test_state_width_must_match():
    c = Circuit((), 3, ())
    with pytest.raises(ValueError):
        run_logic(c, BasisState(2, 0))


def test_basis_state_validation():
    with pytest.raises(ValueError):
        BasisState(2, 4)


def test_reversibility():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 10)
        c = random_x_circuit(rng, n, rng.randint(1, 40))
        mirror = Circuit((), n, c.gates + tuple(reversed(c.gates)))
        value = rng.randrange(1 << n)
        assert run_logic(mirror, BasisState(n, value)).bits == value


def test_agreement_with_statevector_exhaustive():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(1, 6)
        c = random_x_circuit(rng, n, rng.randint(1, 20))
        for value in range(1 << n):
            expected = run_logic(c, BasisState(n, value)).bits
            state = run(c, value)
            probs = probabilities(state)
            idx = int(np.argmax(probs))
            assert idx == expected
            assert abs(probs[idx] - 1.0) <= 1e-12


def test_logic_function_matches_run_logic():
    rng = random.Random(29)
    c = random_x_circuit(rng, 8, 50)
    f = logic_function(c)
    for _ in range(64):
        v = rng.randrange(1 << 8)
        assert f(v) == run_logic(c, BasisState(8, v)).bits


def test_large_repeat_scales_linearly():
    # 100k gates over 64 qubits in well under a second, no 2**n anything
    rng = random.Random(43)
    block = random_x_circuit(rng, 64, 100, max_controls=3)
    big = repeat(block, 1000)
    assert len(big.gates) == 100_000
    start = time.monotonic()
    out = run_logic(big, BasisState(64, 0))
    elapsed = time.monotonic() - start
    assert 0 <= out.bits < (1 << 64)
    assert elapsed < 2.0


@st.composite
def _not_family_circuits(draw):
    """X and SWAP gates with 0-3 mixed-polarity controls, some objects repeated."""
    n = draw(st.integers(1, 6))
    kinds = [GateKind.X, GateKind.SWAP] if n >= 2 else [GateKind.X]
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        n_targets = 2 if kind is GateKind.SWAP else 1
        k = draw(st.integers(0, min(3, n - n_targets)))
        qubits = draw(st.permutations(range(n)))[: n_targets + k]
        polarities = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        targets = tuple(Index(q) for q in qubits[:n_targets])
        controls = tuple(
            Control(Index(q), v) for q, v in zip(qubits[n_targets:], polarities)
        )
        gates.append(Gate(kind, targets, controls))
    return Circuit((), n, tuple(gates) * draw(st.integers(1, 2)))


@settings(max_examples=200, deadline=None)
@given(_not_family_circuits())
def test_logic_function_matches_dense_unitary_property(c):
    f = logic_function(c)
    u = dense_unitary(c)
    for v in range(1 << c.n_qubits):
        assert u[f(v), v] == 1


@st.composite
def _sweeps(draw):
    """A circuit, its free qubits in any order, the others' fixed bits and a
    chunk_bits that splits the values into one or more blocks."""
    c = draw(_not_family_circuits())
    n = c.n_qubits
    free = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    fixed = draw(st.integers(0, (1 << n) - 1))
    return c, free, fixed, draw(st.integers(0, len(free)))


@settings(max_examples=200, deadline=None)
@given(_sweeps())
def test_sweep_matches_logic_function_property(case):
    c, free, fixed, chunk_bits = case
    n = c.n_qubits
    f = logic_function(c)
    held = fixed & ~sum(1 << q for q in free)
    blocks = []
    for block, planes in sweep(_ops(c), n, fixed, free, chunk_bits):
        assert len(planes) == n
        size = block.stop - block.start
        index = plane_indices(planes, size)
        bits = np.unpackbits(planes, axis=1, bitorder="little")
        # with fewer than 8 values, the spare positions repeat them
        for i in range(bits.shape[1]):
            v = block.start + i % size
            want = f(held | sum((v >> b & 1) << q for b, q in enumerate(free)))
            assert sum(int(bits[q, i]) << q for q in range(n)) == want
            if i < size:
                assert index[i] == want
        blocks.append(block)
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == 1 << len(free)
    assert len(blocks) == 1 << (len(free) - chunk_bits)


def test_sweep_holds_at_most_the_plane_scratch_at_the_widest_circuit():
    n = 65_536
    block, planes = next(sweep((), n, 0, list(range(16)), 16))
    assert planes.nbytes <= PLANE_SCRATCH
    assert planes.shape == (n, 64) and block == slice(0, 512)


def test_translation_is_kept_while_its_circuit_lives():
    c = Circuit((), 3, (Gate(GateKind.X, (Index(0),)),) * 4)
    ops = _ops(c)
    assert _ops(c) is ops
    assert isinstance(ops, tuple)
    key = id(c)
    assert key in _translations
    del c
    gc.collect()
    assert key not in _translations


def test_new_circuit_after_a_deleted_one_gets_its_own_results():
    for k in range(40):
        # each circuit is freed before the next is built, so ids repeat
        c = Circuit((), 4, (Gate(GateKind.X, (Index(k % 4),)),))
        assert run_logic(c, BasisState(4, 0)).bits == 1 << (k % 4)
        assert logic_function(c)(0) == 1 << (k % 4)
        del c


# ---- the one reading of a gate's references


@st.composite
def _indexed_gates(draw, max_qubits=70):
    # any kind, qubits drawn with repeats: SWAP(p, p), a control on a
    # target and a qubit controlled twice (with either polarity) all occur
    n = draw(st.integers(1, max_qubits))
    kind = draw(st.sampled_from(list(GateKind)))
    qubit = st.integers(0, n - 1)
    targets = draw(st.lists(qubit, min_size=2, max_size=2)) if kind is GateKind.SWAP else [draw(qubit)]
    controls = draw(st.lists(st.tuples(qubit, st.booleans()), max_size=6))
    return n, Gate(
        kind, tuple(Index(q) for q in targets), tuple(Control(Index(q), v) for q, v in controls)
    )


def _qubits(g: Gate) -> list[int]:
    return [t.index for t in g.targets] + [k.qubit.index for k in g.controls]


@settings(max_examples=300, deadline=None)
@given(_indexed_gates(), st.integers(0, 7), st.sampled_from([0, 5, None]))
@example((3, Gate(GateKind.SWAP, (Index(1), Index(1)))), 1, 0)
@example((2, Gate(GateKind.T, (Index(0),), (Control(Index(1)), Control(Index(1), False)))), 2, None)
def test_read_gate_matches_a_decode_property(case, at, past):
    n, g = case
    qubits = _qubits(g)
    if len(set(qubits)) < len(qubits):
        with pytest.raises(ValueError, match=" twice$"):
            read_gate(g, n)
    else:
        r = read_gate(g, n)
        assert r.targets == tuple(t.index for t in g.targets)
        assert r.controls == tuple((k.qubit.index, k.positive) for k in g.controls)
        assert r.mask == sum(1 << k.qubit.index for k in g.controls)
        assert r.want == sum(1 << k.qubit.index for k in g.controls if k.positive)
        assert r.named == sum(1 << q for q in qubits)
    # one bad reference, out of range or unresolved: index_of's error for it
    at %= len(qubits)
    bad = Named("a", 0) if past is None else Index(n + past)
    targets = tuple(bad if i == at else t for i, t in enumerate(g.targets))
    controls = tuple(
        Control(bad, k.positive) if len(targets) + i == at else k
        for i, k in enumerate(g.controls)
    )
    with pytest.raises(ValueError) as want:
        index_of(bad, n)
    with pytest.raises(ValueError) as got:
        read_gate(Gate(g.kind, targets, controls), n)
    assert str(got.value) == str(want.value)


@settings(max_examples=200, deadline=None)
@given(_indexed_gates(max_qubits=6).filter(lambda case: len(set(_qubits(case[1]))) < len(_qubits(case[1]))))
@example((2, Gate(GateKind.SWAP, (Index(0), Index(0)), (Control(Index(1)),))))
@example((2, Gate(GateKind.X, (Index(0),), (Control(Index(0)),))))
def test_a_gate_naming_a_qubit_twice_is_refused_by_every_reader_property(case):
    n, g = case
    # after a gate every reader accepts, so the refusal comes mid-circuit
    c = Circuit((), n, (Gate(GateKind.X, (Index(0),)), g))
    with pytest.raises(ValueError, match=r"^\w+ gate names qubit \d+ twice$") as want:
        read_gate(g, n)
    readers = [
        lambda: apply_gate(init_state(n), g),
        lambda: run(c, 1),
        lambda: specialize_syntactic(c, Specialization({0: 1})),
    ]
    if g.kind in (GateKind.X, GateKind.SWAP):  # the rest raise NonLogicGate first
        readers.append(lambda: run_logic(c, BasisState(n, 1)))
    for reader in readers:
        with pytest.raises(ValueError) as got:
            reader()
        assert str(got.value) == str(want.value)
    assert {d.gate_index for d in verify(c)} == {1}
