"""Reader and writer for the circuit source format (``.fqt``).

One statement per line; ``#`` starts a comment. ``lines``, the one line
reader of ``.fqt`` and ``.qtest``, ends a line at a newline only::

    qreg a 4            # register declaration
    x a[0]              # gate: target operand first
    x a[1] a[0] !a[2]   # remaining operands are controls, '!' = negative
    swap a[0] a[1] b[0] # swap takes two targets, then controls

Labels are ASCII ``[A-Za-z_][A-Za-z0-9_]*``; sizes (at least 1) and
offsets are ASCII decimal, and the registers hold at most
``ir.MAX_QUBITS`` (65,536) qubits in all. Whitespace may stand around
``!``, ``[`` and ``]``. Gate names are case-insensitive; register labels are
case-sensitive and must be declared before use.
"""
from __future__ import annotations

import re
from typing import Iterator

from .ir import MAX_QUBITS, Circuit, Control, Gate, GateKind, Named, QforgeError, QubitRef, shown

_GATES = {k.value: k for k in GateKind}

# Every part is optional, so a match never fails: the first group left
# unmatched (None) is the error, reported where that part should start.
# An operand's '!' group matches the empty string when there is none.
_WORD = r"[A-Za-z_][A-Za-z0-9_]*"
_HEAD = re.compile(rf"\s*({_WORD})?")
_QREG = re.compile(rf"\s*({_WORD})?\s*(0*[1-9][0-9]*)?\s*(\Z)?")
_QREG_PARTS = ("a register label", "a positive size", "end of line")
_OPERAND = re.compile(rf"\s*(!?)\s*({_WORD})?\s*(\[)?\s*([0-9]+)?\s*(\])?")
_OPERAND_PARTS = ("'!'", "a qubit operand", "'['", "an offset", "']'")


class ParseError(QforgeError):
    """Source error with a 1-based line and column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class UnknownGate(ParseError):
    def __init__(self, name: str, line: int, col: int):
        super().__init__(f"unknown gate {shown(name)}", line, col)
        self.name = name


class UndeclaredRegister(ParseError):
    def __init__(self, label: str, line: int, col: int):
        super().__init__(f"undeclared register {shown(label)}", line, col)
        self.label = label


def lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based number, text before '#' right-stripped) of each line not
    blank. Only \\n, \\r\\n and \\r end a line; a form feed, say, does not."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if body:
            yield lineno, body


def _require(m: re.Match, parts: tuple[str, ...], body: str, lineno: int) -> None:
    """Raise for m's first unmatched group, named by parts: at the next
    character after the group before it, or just past that at the end."""
    if None not in m.groups():
        return
    after = m.pos
    for group, what in enumerate(parts, start=1):
        if m[group] is None:
            at = len(body) - len(body[after:].lstrip())
            if at == len(body):
                raise ParseError(f"expected {what}", lineno, after + 1)
            raise ParseError(f"expected {what}, got {shown(body[at])}", lineno, at + 1)
        after = m.end(group)


def _number(m: re.Match, group: int, limit: int, what: str, lineno: int) -> int:
    """m's decimal group, or a ParseError at it when above limit
    (lengths first: int() refuses a number of thousands of digits)."""
    digits = m[group].lstrip("0") or "0"
    if len(digits) > len(str(limit)) or int(digits) > limit:
        message = f"{what} above {limit} (at most {MAX_QUBITS} qubits in all)"
        raise ParseError(message, lineno, m.start(group) + 1)
    return int(digits)


def parse_source(text: str) -> Circuit:
    """Parse circuit source text into a Circuit.

    Every failure raises a positioned ParseError (or a subclass); the
    parser never crashes on arbitrary input.
    """
    registers: dict[str, int] = {}
    total = 0  # qubits declared so far
    gates: list[Gate] = []
    # registers only grow, so a repeated gate line reads as its first
    parsed: dict[str, Gate] = {}
    for lineno, body in lines(text):
        if body in parsed:
            gates.append(parsed[body])
            continue
        head = _HEAD.match(body)
        _require(head, ("a gate name or 'qreg'",), body, lineno)
        word, col, pos = head[1], head.start(1) + 1, head.end()
        if word == "qreg":
            m = _QREG.match(body, pos)
            if m[1] in registers:
                raise ParseError(
                    f"register {shown(m[1])} already declared", lineno, m.start(1) + 1
                )
            _require(m, _QREG_PARTS, body, lineno)
            registers[m[1]] = _number(m, 2, MAX_QUBITS - total, "size", lineno)
            total += registers[m[1]]
            continue
        kind = _GATES.get(word.lower())
        if kind is None:
            raise UnknownGate(word, lineno, col)
        operands: list[tuple[Named, int]] = []  # (ref, index of its '!' or -1)
        while pos < len(body):
            m = _OPERAND.match(body, pos)
            if m[2] and m[2] not in registers:
                raise UndeclaredRegister(m[2], lineno, m.start(2) + 1)
            _require(m, _OPERAND_PARTS, body, lineno)
            offset = _number(m, 4, MAX_QUBITS - 1, "offset", lineno)
            operands.append((Named(m[2], offset), m.start(1) if m[1] else -1))
            pos = m.end()
        n_targets = 2 if kind is GateKind.SWAP else 1
        if len(operands) < n_targets:
            raise ParseError(f"{kind.value} needs {n_targets} target(s)", lineno, col)
        for _, bang in operands[:n_targets]:
            if bang >= 0:
                raise ParseError("a target cannot be negated", lineno, bang + 1)
        targets = tuple(ref for ref, _ in operands[:n_targets])
        controls = tuple(Control(ref, bang < 0) for ref, bang in operands[n_targets:])
        parsed[body] = Gate(kind, targets, controls)
        gates.append(parsed[body])
    return Circuit(tuple(registers.items()), total, tuple(gates))


def print_source(c: Circuit) -> str:
    """Canonical source text for a circuit.

    Every qubit must be printable as label[offset]: named references
    must use declared registers, and index references must fall inside
    the register span (they are printed through the reverse mapping).
    """
    names = [f"{label}[{i}]" for label, size in c.registers for i in range(size)]
    labels = dict(c.registers)

    def fmt(ref: QubitRef) -> str:
        if isinstance(ref, Named):
            if ref.label not in labels:
                raise ValueError(f"cannot print: undeclared register {shown(ref.label)}")
            return f"{ref.label}[{ref.offset}]"
        if not 0 <= ref.index < len(names):  # no wrap-around for negatives
            raise ValueError(
                f"cannot print: qubit {ref.index} is not covered by any register"
            )
        return names[ref.index]

    lines = [f"qreg {label} {size}" for label, size in c.registers]
    for g in c.gates:
        parts = [g.kind.value]
        parts.extend(fmt(t) for t in g.targets)
        for k in g.controls:
            parts.append(("" if k.positive else "!") + fmt(k.qubit))
        lines.append(" ".join(parts))
    return "".join(line + "\n" for line in lines)
