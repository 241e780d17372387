"""QP integer format: exact encodings, validation, round trips."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge.ir import MAX_QUBITS, Circuit, Control, Gate, GateKind, Index, repeat
from qforge.library import mod_add
from qforge.logic import BasisState, logic_function, run_logic
from qforge.passes import PassConfig, compile_circuit, resolve_names
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
    from_circuit,
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


@pytest.mark.parametrize(
    "text, token",
    [
        ("1_0 0 2", "1_0"),
        ("+2 0 2", "+2"),
        ("\uff12 0 2", "\uff12"),  # fullwidth 2
        ("2 0 \u0663", "\u0663"),  # Arabic-Indic 3
        ("2\x1c0 2", "2\x1c0"),  # str.split() would split here
        ("2\xa00 2", "2\xa00"),
        ("2 0 2 1-2", "1-2"),
        ("2 0 2 --1", "--1"),
        ("2 - 2", "-"),
    ],
)
def test_tokens_are_ascii_signed_decimals(text, token):
    with pytest.raises(NonIntegerToken) as info:
        parse_qp(text)
    assert repr(token) in str(info.value)


def test_leading_zeros_and_minus_zero_are_integers():
    assert parse_qp("02 1 2  1 -0 -1 -01") == QPProgram(2, 2, (QPGate(1, 0, (-1, -1)),))


@pytest.mark.parametrize("token", ["1" * 5000, "-" + "1" * 5000])
def test_integer_of_thousands_of_digits_is_not_echoed(token):
    with pytest.raises(QPFormatError) as info:
        parse_qp("2 0 " + token)
    assert not isinstance(info.value, NonIntegerToken)
    assert str(info.value) == f"integer of {len(token)} characters is too long"


def test_header_limits():
    assert parse_qp(f"{MAX_QUBITS} 0 {MAX_QUBITS - 1}").n_qubits == MAX_QUBITS
    with pytest.raises(BadIndex, match="n_qubits must be 1 to 65536"):
        parse_qp(f"{MAX_QUBITS + 1} 0 2")
    with pytest.raises(BadIndex):
        parse_qp("100000000000000000000 0 2")
    with pytest.raises(InvariantViolation, match="max_controls must be 2 to 65535"):
        parse_qp(f"2 0 {MAX_QUBITS}")
    with pytest.raises(InvariantViolation):
        QPProgram(2, MAX_QUBITS)


_QP_JUNK = st.lists(
    st.sampled_from(
        ["0", "1", "2", "-1", "-", "+", "_", " ", "\t", "\n", "\x1c", "\uff12"]
    )
).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.text() | _QP_JUNK)
def test_parse_qp_is_total(text):
    try:
        parse_qp(text)
    except QPFormatError:
        pass


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


def test_from_circuit_rejects_unlowered_gates():
    cx = Gate(GateKind.X, (Index(0),), (Control(Index(1)),))
    for bad in (
        Gate(GateKind.SWAP, (Index(0), Index(1))),
        Gate(GateKind.X, (Index(0),), (Control(Index(1), False),)),
    ):
        with pytest.raises(InvariantViolation) as info:
            from_circuit(Circuit((), 2, (cx, bad)), 2)
        assert info.value.gate_index == 1
    assert to_circuit(from_circuit(Circuit((), 2, (cx,)), 2)).gates == (cx,)


def test_to_circuit_shape():
    p = parse_qp("3 2 2  4 0 -1 -1  1 2 0 -1")
    c = to_circuit(p)
    assert c.n_qubits == 3
    assert len(c.gates) == 2
    assert c.gates[1].controls[0].qubit.index == 0


def test_to_circuit_shares_repeated_records():
    program = compile_circuit(repeat(mod_add(4), 3), PassConfig(max_controls=2))
    c = to_circuit(program)
    first = {}
    for record, gate in zip(program.gates, c.gates):
        assert first.setdefault(record, gate) is gate
    assert len(first) < len(c.gates)
    source, _ = resolve_names(repeat(mod_add(4), 3))
    step = logic_function(source)
    for v in range(512):
        bits = run_logic(c, BasisState(c.n_qubits, v)).bits
        assert bits == step(v)


@st.composite
def _programs(draw, min_qubits=1, min_gates=0):
    n = draw(st.integers(min_qubits, 12))
    m = draw(st.integers(2, 4))
    gates = []
    for _ in range(draw(st.integers(min_gates, 12))):
        k = draw(st.integers(0, min(m, n - 1)))
        qs = draw(st.permutations(range(n)))[: 1 + k]
        controls = tuple(qs[1:]) + (-1,) * (m - k)
        gates.append(QPGate(draw(st.integers(1, 8)), qs[0], controls))
    return QPProgram(n, m, tuple(gates))


@settings(max_examples=200, deadline=None)
@given(_programs())
def test_round_trip_property(p):
    assert parse_qp(emit_qp(p)) == p


def _break(g: QPGate, how: str, n: int) -> QPGate:
    """One record made invalid in a way the QP text can still express."""
    m = len(g.controls)
    other = (g.target + 1) % n
    if how == "opcode":
        return QPGate(9, g.target, g.controls)
    if how == "target":
        return QPGate(g.opcode, n, g.controls)
    if how == "control_range":
        return QPGate(g.opcode, g.target, (n,) + g.controls[1:])
    if how == "control_is_target":
        return QPGate(g.opcode, g.target, (g.target,) + g.controls[1:])
    if how == "duplicate":
        return QPGate(g.opcode, g.target, (other, other) + (-1,) * (m - 2))
    return QPGate(g.opcode, g.target, (-1,) * (m - 1) + (other,))  # after -1


@settings(max_examples=200, deadline=None)
@given(
    _programs(min_qubits=2, min_gates=1),
    st.data(),
    st.sampled_from(
        ["opcode", "target", "control_range", "control_is_target", "duplicate", "after"]
    ),
)
def test_broken_record_fails_alike_built_or_parsed(p, data, how):
    gi = data.draw(st.integers(0, len(p.gates) - 1))
    gates = list(p.gates)
    gates[gi] = _break(gates[gi], how, p.n_qubits)
    with pytest.raises(InvariantViolation) as built:
        QPProgram(p.n_qubits, p.max_controls, tuple(gates))
    values = [p.n_qubits, len(gates), p.max_controls]
    for g in gates:
        values += [g.opcode, g.target, *g.controls]
    with pytest.raises(InvariantViolation) as parsed:
        parse_qp(" ".join(map(str, values)))
    assert type(built.value) is type(parsed.value)
    assert built.value.gate_index == parsed.value.gate_index == gi


def test_repeated_bad_record_fails_at_its_first_occurrence():
    good, bad = QPGate(1, 0, (1, -1)), QPGate(1, 0, (0, -1))
    with pytest.raises(BadIndex, match="^gate 1: control 0 equals target$") as info:
        QPProgram(2, 2, (good, bad, good, bad))
    assert info.value.gate_index == 1
    with pytest.raises(BadIndex, match="^gate 1: control 0 equals target$") as info:
        parse_qp("2 4 2  1 0 1 -1  1 0 0 -1  1 0 1 -1  1 0 0 -1")
    assert info.value.gate_index == 1
    cx = Gate(GateKind.X, (Index(1),), (Control(Index(0)),))
    swap = Gate(GateKind.SWAP, (Index(0), Index(1)))
    with pytest.raises(InvariantViolation, match="^gate 1: swaps") as info:
        from_circuit(Circuit((), 2, (cx, swap, cx, swap)), 2)
    assert info.value.gate_index == 1


def test_parse_qp_shares_repeated_records():
    p = parse_qp("3 3 2  1 0 1 2  1 1 0 -1  1 0 1 2")
    assert p.gates[0] is p.gates[2]
    assert p.gates[0] is not p.gates[1]


def test_bad_token_after_good_ones_is_named():
    with pytest.raises(NonIntegerToken, match="not an integer: '1-2'"):
        parse_qp("2 1 2  1 0 1-2 -1")
    with pytest.raises(QPFormatError, match="integer of 5000 characters is too long"):
        parse_qp("2 1 2  1 0 " + "1" * 5000 + " -")
