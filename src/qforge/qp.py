"""The QP (Quantum Problem) integer instruction format.

A program is a plain list of decimal integers: a three-value header
``n_qubits n_gates max_controls`` followed by one fixed-width record
per gate, ``opcode target c1 .. cM`` with -1 marking unused control
slots. Every token is ASCII ``-?[0-9]+``, and any amount of ASCII
whitespace separates tokens; an error names one, or an integer it
refuses, by ``ir.shown`` (by its length when over 64 characters).
There are no strings and no floats, so the file is trivially diffable
and trivially consumed by a hardware host. ``n_qubits`` is at most
``ir.MAX_QUBITS`` (65,536) and ``max_controls`` at most one less.

Opcodes: 1=x 2=y 3=z 4=h 5=s 6=sdg 7=t 8=tdg. SWAP has no opcode on
purpose; it must be lowered before a program can be emitted.

``from_circuit`` and ``to_circuit`` are the codec to and from circuits;
a ``QPProgram`` is checked once, when it is built. Every step works
once per distinct gate or record, so repeated blocks cost little.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache

from .ir import MAX_QUBITS, Circuit, Control, Gate, GateKind, Index, QforgeError, map_shared, shown

OPCODES: dict[GateKind, int] = {
    GateKind.X: 1,
    GateKind.Y: 2,
    GateKind.Z: 3,
    GateKind.H: 4,
    GateKind.S: 5,
    GateKind.SDG: 6,
    GateKind.T: 7,
    GateKind.TDG: 8,
}

KINDS_BY_OPCODE: dict[int, GateKind] = {v: k for k, v in OPCODES.items()}

# Tokens are ASCII -?[0-9]+ between ASCII whitespace: one pass checks
# the characters, and int() then rejects a misplaced '-'.
_QP_CHARS = re.compile(r"[0-9\s-]*", re.ASCII)
_QP_TOKEN = re.compile(r"\S+", re.ASCII)


class QPFormatError(QforgeError):
    """Base class for malformed QP text or programs."""


class Truncated(QPFormatError):
    pass


class NonIntegerToken(QPFormatError):
    pass


class InvariantViolation(QPFormatError):
    def __init__(self, message: str, gate_index: int | None = None):
        where = "" if gate_index is None else f"gate {gate_index}: "
        super().__init__(where + message)
        self.gate_index = gate_index


class BadOpcode(InvariantViolation):
    def __init__(self, value: int, gate_index: int | None = None):
        super().__init__(f"bad opcode {_num(value)}", gate_index)
        self.value = value


class BadIndex(InvariantViolation):
    def __init__(
        self, message: str, value: int | None = None, gate_index: int | None = None
    ):
        super().__init__(message, gate_index)
        self.value = value


@dataclass(frozen=True, slots=True)
class QPGate:
    opcode: int
    target: int
    controls: tuple[int, ...]  # length = max_controls, -1 = unused slot


@dataclass(frozen=True, slots=True)
class QPProgram:
    """A QP program; the constructor checks the header and every record."""

    n_qubits: int
    max_controls: int
    gates: tuple[QPGate, ...] = ()

    def __post_init__(self) -> None:
        n_qubits, max_controls = self.n_qubits, self.max_controls
        _check_header(n_qubits, max_controls)
        map_shared(lambda gi, g: _check_gate(g, gi, n_qubits, max_controls), self.gates)


def _check_header(n_qubits: int, max_controls: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise BadIndex(f"n_qubits must be 1 to {MAX_QUBITS}, got {_num(n_qubits)}", n_qubits)
    if not 2 <= max_controls < MAX_QUBITS:
        raise InvariantViolation(
            f"max_controls must be 2 to {MAX_QUBITS - 1}, got {_num(max_controls)}"
        )


def _check_gate(g: QPGate, gi: int, n_qubits: int, max_controls: int) -> None:
    if g.opcode not in KINDS_BY_OPCODE:
        raise BadOpcode(g.opcode, gi)
    if not 0 <= g.target < n_qubits:
        raise BadIndex(f"target {_num(g.target)} out of range", g.target, gi)
    if len(g.controls) != max_controls:
        raise InvariantViolation(
            f"expected {max_controls} control slots, got {len(g.controls)}", gi
        )
    seen: set[int] = set()
    unused = False
    for v in g.controls:
        if v == -1:
            unused = True
            continue
        if unused:
            raise BadIndex("control after a -1 slot", v, gi)
        if not 0 <= v < n_qubits:
            raise BadIndex(f"control {_num(v)} out of range", v, gi)
        if v == g.target:
            raise BadIndex(f"control {v} equals target", v, gi)
        if v in seen:
            raise BadIndex(f"duplicate control {v}", v, gi)
        seen.add(v)


def from_circuit(c: Circuit, max_controls: int) -> QPProgram:
    """Encode a lowered circuit: indexed, swap-free, with at most
    max_controls positive controls per gate. Inverse of to_circuit."""
    pad = (-1,) * max_controls

    def encode(gi: int, g: Gate) -> QPGate:
        opcode = OPCODES.get(g.kind)
        slots = tuple(k.qubit.index for k in g.controls if k.positive)
        if opcode is None or len(slots) < len(g.controls):
            raise InvariantViolation("swaps and negative controls need lowering", gi)
        return QPGate(opcode, g.targets[0].index, slots + pad[len(slots):])

    return QPProgram(c.n_qubits, max_controls, tuple(map_shared(encode, c.gates)))


def emit_qp(p: QPProgram) -> str:
    """Serialize a program; deterministic byte-for-byte."""

    def record(_, g: QPGate) -> str:
        return " ".join(map(str, (g.opcode, g.target, *g.controls)))

    header = f"{p.n_qubits} {len(p.gates)} {p.max_controls}"
    return "  ".join([header, *map_shared(record, p.gates)])


def _num(value: int) -> str:
    """An integer read from QP text, named as ``ir.shown`` names text."""
    return shown(str(value), str)


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        if not tok.removeprefix("-").isdigit():
            raise NonIntegerToken(f"not an integer: {shown(tok)}") from None
        # int() refuses an integer of thousands of digits; not echoed
        raise QPFormatError(f"integer of {len(tok)} characters is too long") from None


def parse_qp(text: str) -> QPProgram:
    """Inverse of emit_qp on its image; QPProgram checks the records."""
    if not _QP_CHARS.fullmatch(text):
        bad = next(t for t in _QP_TOKEN.findall(text) if not _QP_CHARS.fullmatch(t))
        raise NonIntegerToken(f"not an integer: {shown(bad)}")
    tokens = text.split()  # only ASCII whitespace is left to split at
    try:
        values = list(map(int, tokens))
    except ValueError:  # again, naming the first token int() refuses
        values = list(map(_int, tokens))
    if len(values) < 3:
        raise Truncated(f"header needs 3 integers, got {len(values)}")
    n_qubits, n_gates, max_controls = values[0], values[1], values[2]
    _check_header(n_qubits, max_controls)
    if n_gates < 0:
        raise QPFormatError(f"negative gate count {_num(n_gates)}")
    width = 2 + max_controls
    expected = 3 + n_gates * width
    if len(values) < expected:
        # a gate count named by its length stands for the count it implies
        count = shown(str(n_gates), lambda _: str(expected))
        raise Truncated(f"expected {count} integers, got {len(values)}")
    if len(values) > expected:
        raise QPFormatError(f"{len(values) - expected} trailing token(s)")
    # one QPGate per distinct record, shared by its repeats
    record = cache(lambda r: QPGate(r[0], r[1], r[2:]))
    fields = iter(values[3:])
    gates = tuple(map(record, zip(*[fields] * width)))  # width-tuples in order
    return QPProgram(n_qubits, max_controls, gates)


def to_circuit(p: QPProgram) -> Circuit:
    """View a program as an anonymous indexed circuit (for simulation)."""
    # one object per qubit reference and per distinct record, shared by
    # every gate that repeats it (logic_function builds masks per object)
    index = cache(Index)
    control = cache(lambda v: Control(index(v), True))

    @cache
    def gate(g: QPGate) -> Gate:
        controls = tuple(control(v) for v in g.controls if v != -1)
        return Gate(KINDS_BY_OPCODE[g.opcode], (index(g.target),), controls)

    return Circuit((), p.n_qubits, tuple(map(gate, p.gates)))
