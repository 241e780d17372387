"""QP integer format: exact encodings, validation, round trips."""
import random

import pytest

from qforge.library import mod_add
from qforge.passes import PassConfig, compile_circuit
from qforge.qp import (
    BadIndex,
    BadOpcode,
    InvariantViolation,
    NonIntegerToken,
    QPFormatError,
    QPGate,
    QPProgram,
    Truncated,
    emit_qp,
    parse_qp,
    to_circuit,
)


def test_emit_exact_encoding():
    p = QPProgram(
        2,
        2,
        (QPGate(4, 0, (-1, -1)), QPGate(1, 1, (0, -1))),
    )
    assert emit_qp(p) == "2 2 2  4 0 -1 -1  1 1 0 -1"


def test_emit_empty_program():
    assert emit_qp(QPProgram(3, 2)) == "3 0 2"


def test_emit_is_deterministic():
    p = QPProgram(4, 3, (QPGate(1, 2, (0, 1, -1)),))
    assert emit_qp(p) == emit_qp(p)


def test_parse_single_gate():
    p = parse_qp("1 1 2  1 0 -1 -1")
    assert p == QPProgram(1, 2, (QPGate(1, 0, (-1, -1)),))


def test_parse_bad_opcode():
    with pytest.raises(BadOpcode) as info:
        parse_qp("1 1 2  9 0 -1 -1")
    assert info.value.value == 9
    assert info.value.gate_index == 0


def test_parse_control_equals_target():
    with pytest.raises(BadIndex):
        parse_qp("2 1 2  1 0 0 -1")


def test_parse_errors():
    with pytest.raises(Truncated):
        parse_qp("3 1")
    with pytest.raises(Truncated):
        parse_qp("3 2 2  1 0 -1 -1")
    with pytest.raises(NonIntegerToken):
        parse_qp("3 0 x")
    with pytest.raises(QPFormatError):
        parse_qp("3 0 2 7")  # trailing token
    with pytest.raises(BadIndex):
        parse_qp("2 1 2  1 0 -1 1")  # control after -1 slot
    with pytest.raises(BadIndex):
        parse_qp("2 1 2  1 5 -1 -1")  # target out of range
    with pytest.raises(BadIndex):
        parse_qp("0 0 2")


def test_emit_validates_invariants():
    with pytest.raises(BadOpcode) as info:
        emit_qp(QPProgram(2, 2, (QPGate(9, 0, (-1, -1)),)))
    assert isinstance(info.value, InvariantViolation)
    with pytest.raises(InvariantViolation):
        emit_qp(QPProgram(2, 2, (QPGate(1, 0, (0, -1)),)))
    with pytest.raises(InvariantViolation):
        emit_qp(QPProgram(2, 2, (QPGate(1, 0, (-1, 1)),)))
    with pytest.raises(InvariantViolation):
        emit_qp(QPProgram(3, 2, (QPGate(1, 0, (1, 1)),)))
    err = None
    try:
        emit_qp(QPProgram(2, 2, (QPGate(1, 1, (0, -1)), QPGate(1, 7, (0, -1)))))
    except InvariantViolation as e:
        err = e
    assert err is not None and err.gate_index == 1


def random_program(rng: random.Random) -> QPProgram:
    n = rng.randint(1, 12)
    m = rng.randint(2, 4)
    gates = []
    for _ in range(rng.randint(0, 20)):
        opcode = rng.randint(1, 8)
        qs = rng.sample(range(n), min(n, 1 + rng.randint(0, m)))
        target = qs[0]
        controls = tuple(qs[1:]) + (-1,) * (m - len(qs) + 1)
        gates.append(QPGate(opcode, target, controls))
    return QPProgram(n, m, tuple(gates))


def test_round_trip_corpus():
    rng = random.Random(777)
    for _ in range(1000):
        p = random_program(rng)
        assert parse_qp(emit_qp(p)) == p


def test_whitespace_insensitive():
    text = "2\n2   2\n4 0 -1 -1\n\t1 1 0 -1\n"
    assert parse_qp(text) == parse_qp("2 2 2  4 0 -1 -1  1 1 0 -1")


def test_compiled_programs_satisfy_invariants():
    # after compile: no swap opcodes exist, controls fit the budget
    program = compile_circuit(mod_add(4), PassConfig(max_controls=2))
    assert all(1 <= g.opcode <= 8 for g in program.gates)
    assert all(len(g.controls) == 2 for g in program.gates)
    emit_qp(program)  # must not raise


def test_compiled_random_circuits_satisfy_invariants():
    from helpers import random_indexed_circuit

    rng = random.Random(313)
    for _ in range(25):
        m = rng.randint(2, 4)
        circuit = random_indexed_circuit(rng, rng.randint(2, 7), 15, max_controls=5)
        program = compile_circuit(circuit, PassConfig(max_controls=m))
        for g in program.gates:
            assert 1 <= g.opcode <= 8  # swap has no opcode
            real = [v for v in g.controls if v != -1]
            assert len(real) <= m
            assert len(g.controls) == m
        parse_qp(emit_qp(program))  # emits and validates cleanly


def test_to_circuit_shape():
    p = parse_qp("3 2 2  4 0 -1 -1  1 2 0 -1")
    c = to_circuit(p)
    assert c.n_qubits == 3
    assert len(c.gates) == 2
    assert c.gates[1].controls[0].qubit.index == 0
