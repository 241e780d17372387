"""Circuit unit testing: prepare, run, decode, compare.

A test case names a circuit, a backend, register preparations and
expectations. Logic-backend cases compare decoded register integers
exactly; state-vector cases compare listed amplitudes within per-entry
tolerances and require every unlisted amplitude to be negligible.

Suite files (``.qtest``) are line oriented; ``parse_suite`` reads them and
their circuits with ``fileio.read_text`` and ``source.lines``, as ``.fqt``::

    circuit adder.fqt
    backend logic
    case add_1_2 prep a=1,b=2 expect b=3,c=0
    # state-vector expectations attach to the preceding case:
    backend sv
    case bell prep a=0
    expect amp 0 0.70710678 0 tol 1e-6
    expect amp 3 0.70710678 0 tol 1e-6

Register values are ASCII integer literals: decimal, or 0x / 0b / 0o
prefixed. An amplitude index is ASCII decimal; its real and imaginary
parts and its tolerance are ASCII floats without '_', the parts
finite and the tolerance finite and at least 0. A
register value, prep or expectation, must fit its register. Errors
name a word of the suite, a prep or an expectation by ``ir.shown``,
and a mismatch names a value by its literal's length (or its decimal
text's) the same way.

A backend mismatch (e.g. a Hadamard under the logic backend) reports
the case as an error, not a failure.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .fileio import read_text
from .ir import Circuit, InputError, QforgeError, check_basis, decimal, decode_registers
from .ir import encode_registers, map_shared, register_bases, shown
from .logic import BasisState, run_logic
from .passes import PassConfig, checked, lower
from .source import ParseError, lines, parse_source
from .statevector import run

DEFAULT_AMPLITUDE_TOL = 1e-9


class Backend(Enum):
    LOGIC = "logic"
    SV = "sv"


class SuiteError(QforgeError):
    """Malformed suite file."""

    def __init__(self, message: str, line: int | None = None):
        where = "" if line is None else f"line {line}: "
        super().__init__(where + message)
        self.line = line


@dataclass
class AmplitudeExpectation:
    index: int
    amplitude: complex
    tolerance: float


@dataclass
class TestCase:
    __test__ = False  # keep pytest from collecting the API type

    name: str
    circuit: Circuit
    backend: Backend
    prep: dict[str, int] = field(default_factory=dict)
    expect_registers: dict[str, int] = field(default_factory=dict)
    expect_amplitudes: list[AmplitudeExpectation] = field(default_factory=list)
    # the literal each register expectation was written as, for messages
    expect_literals: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CaseResult:
    name: str
    status: str  # "pass" | "fail" | "error"
    message: str = ""


@dataclass(frozen=True)
class TestReport:
    __test__ = False

    results: tuple[CaseResult, ...]

    @property
    def passed(self) -> int:
        return sum(r.status == "pass" for r in self.results)

    @property
    def failed(self) -> int:
        return sum(r.status == "fail" for r in self.results)

    @property
    def errors(self) -> int:
        return sum(r.status == "error" for r in self.results)

    @property
    def all_passed(self) -> bool:
        return self.passed == len(self.results)


def _prepare(c: Circuit, lowered: bool) -> Circuit | QforgeError:
    """The circuit cases run: lowered or checked, or the error doing so."""
    try:
        return lower(c, PassConfig()) if lowered else checked(c)
    except QforgeError as e:
        return e


def _run_case(case: TestCase, circuit: Circuit | QforgeError) -> CaseResult:
    if isinstance(circuit, QforgeError):
        return CaseResult(case.name, "error", str(circuit))
    try:
        bits = encode_registers(case.circuit, case.prep)
        if case.backend is Backend.LOGIC:
            bases = register_bases(case.circuit)
            for label, want in case.expect_registers.items():
                if label in bases:  # an unknown label is named below
                    check_basis(want, bases[label][1], f"register {shown(label)} expectation")
            # lowering may append ancillas; they prep to 0
            out = run_logic(circuit, BasisState(circuit.n_qubits, bits))
        else:
            state = run(circuit, bits)
            for expected in case.expect_amplitudes:
                check_basis(expected.index, state.n_qubits, "expected amplitude index")
    except QforgeError as e:
        return CaseResult(case.name, "error", str(e))

    if case.backend is Backend.LOGIC:
        decoded = decode_registers(case.circuit, out.bits)
        unknown = [label for label in case.expect_registers if label not in decoded]
        if unknown:
            message = f"expect names unknown register {shown(unknown[0])}"
            return CaseResult(case.name, "error", message)
        mismatches = [
            f"expected {shown(label, str)}={_value(want, case.expect_literals.get(label))}, "
            f"actual {shown(label, str)}={_value(decoded[label])}"
            for label, want in case.expect_registers.items()
            if decoded[label] != want
        ]
        if mismatches:
            return CaseResult(case.name, "fail", "; ".join(mismatches))
        return CaseResult(case.name, "pass")

    floor = min(
        (e.tolerance for e in case.expect_amplitudes), default=DEFAULT_AMPLITUDE_TOL
    )
    idx, amp = state.entries()  # ascending indices; every other amplitude is 0
    listed = np.isin(idx, [e.index for e in case.expect_amplitudes])
    actuals = dict(zip(idx[listed].tolist(), amp[listed]))
    for e in case.expect_amplitudes:
        actual = actuals.get(e.index, np.complex128(0))
        if abs(actual - e.amplitude) > e.tolerance:
            return CaseResult(
                case.name,
                "fail",
                f"amplitude[{e.index}] = {actual:.9g}, expected "
                f"{e.amplitude:.9g} within {e.tolerance:g}",
            )
    large = (np.abs(amp) > floor) & ~listed
    if large.any():
        k = int(large.argmax())
        message = f"unlisted amplitude[{idx[k]}] = {amp[k]:.9g} exceeds {floor:g}"
        return CaseResult(case.name, "fail", message)
    return CaseResult(case.name, "pass")


def _value(value: int, literal: str | None = None) -> str:
    """A register value for a message: whole if the literal it was
    written as (else its decimal text) is short, else named by the
    length of that text, as ``shown`` does."""
    text = decimal(value)
    return text if len(literal or text) <= 64 else shown(literal or text)


def run_suite(cases: list[TestCase], lower: bool = False) -> TestReport:
    """Run every case on its backend; results keep the case order.

    Each distinct circuit object is prepared once, so its logic cases
    also share one translation (``logic._ops``).
    """
    circuits = [case.circuit for case in cases]
    prepared = map_shared(lambda _, c: _prepare(c, lower), circuits)
    return TestReport(tuple(map(_run_case, cases, prepared)))


# exactly the ASCII literals int(text, 0) reads; it alone would also
# take '1_0', ' 3', '-3' and non-ASCII digits
_INT = re.compile(r"0+|[1-9][0-9]*|0[xX][0-9A-Fa-f]+|0[bB][01]+|0[oO][0-7]+")


def parse_int(text: str) -> int:
    """An ASCII integer literal: decimal, or 0x / 0b / 0o prefixed."""
    if not _INT.fullmatch(text):
        raise InputError(f"bad integer {shown(text)}")
    try:
        return int(text, 0)
    except ValueError:  # a decimal of over 4,300 digits
        raise InputError(f"integer of {len(text)} digits is too long") from None


def parse_assignments(text: str) -> dict[str, int]:
    """Register assignments ``a=3,b=0x5``; each register at most once."""
    out: dict[str, int] = {}
    for part in text.split(","):
        if not part:
            continue
        name, eq, value = part.partition("=")
        if not eq or not name:
            raise InputError(f"bad entry {shown(part)}")
        if name in out:
            raise InputError(f"register {shown(name)} assigned twice")
        try:
            out[name] = parse_int(value)
        except InputError:
            raise InputError(f"bad integer in entry {shown(part)}") from None
    return out


def parse_suite(path: str | Path) -> list[TestCase]:
    """Read a .qtest file; circuit paths resolve relative to the suite."""
    path = Path(path)
    base = path.parent
    circuit: Circuit | None = None
    backend = Backend.LOGIC
    cases: list[TestCase] = []
    loaded: dict[Path, Circuit] = {}
    try:
        text = read_text(path, f"suite {path}")
    except InputError as e:
        raise SuiteError(str(e)) from None
    for lineno, line in lines(text):
        words = line.split()
        keyword = words[0]
        if keyword == "circuit":
            if len(words) != 2:
                raise SuiteError("circuit takes one path", lineno)
            if "\0" in words[1]:  # open() raises ValueError on it
                raise SuiteError("circuit path contains a NUL byte", lineno)
            target = base / words[1]
            if target not in loaded:
                try:
                    loaded[target] = parse_source(read_text(target, f"circuit {words[1]}"))
                except OSError as e:
                    raise SuiteError(f"cannot read circuit: {e}", lineno) from None
                except InputError as e:
                    raise SuiteError(str(e), lineno) from None
                except ParseError as e:
                    raise SuiteError(f"bad circuit {words[1]}: {e}", lineno) from None
            circuit = loaded[target]
        elif keyword == "backend":
            if len(words) != 2 or words[1] not in ("logic", "sv"):
                raise SuiteError("backend must be 'logic' or 'sv'", lineno)
            backend = Backend(words[1])
        elif keyword == "case":
            if circuit is None:
                raise SuiteError("case before any circuit line", lineno)
            if len(words) < 2:
                raise SuiteError("case needs a name", lineno)
            given: dict[str, dict[str, int]] = {}
            raw: dict[str, str] = {}
            for i in range(2, len(words), 2):
                key = words[i]
                if key not in ("prep", "expect") or i + 1 == len(words):
                    raise SuiteError(f"unexpected token {shown(key)}", lineno)
                if key in given:
                    raise SuiteError(f"{key} given twice", lineno)
                raw[key] = words[i + 1]
                try:
                    given[key] = parse_assignments(words[i + 1])
                except InputError as e:
                    raise SuiteError(f"{key}: {e}", lineno) from None
            if "expect" in given and backend is not Backend.LOGIC:
                raise SuiteError("register expectations need the logic backend", lineno)
            prep, expect = given.get("prep", {}), given.get("expect", {})
            # parse_assignments has read these entries: each has one '='
            entries = raw.get("expect", "").split(",")
            literals = dict(entry.split("=", 1) for entry in entries if entry)
            cases.append(TestCase(words[1], circuit, backend, prep, expect,
                                  expect_literals=literals))
        elif keyword == "expect":
            # continuation line: expect amp <index> <re> <im> tol <t>
            if not cases:
                raise SuiteError("expect line before any case", lineno)
            if len(words) != 7 or words[1] != "amp" or words[5] != "tol":
                raise SuiteError(
                    "expected: expect amp <index> <re> <im> tol <t>", lineno
                )
            if cases[-1].backend is not Backend.SV:
                raise SuiteError("amplitude expectations need the sv backend", lineno)
            if not (words[2].isascii() and words[2].isdigit()):
                raise SuiteError("amplitude index must be ASCII decimal", lineno)
            try:  # int() also refuses a decimal of over 4,300 digits
                index = int(words[2])
                real, imag, tol = (float(words[k]) for k in (3, 4, 6))
                numbers = "".join(words[3:])  # float() also reads non-ASCII digits and '_'
                if not numbers.isascii() or "_" in numbers:
                    raise ValueError(numbers)
            except ValueError:
                raise SuiteError("bad number in amplitude expectation", lineno) from None
            if not (math.isfinite(real) and math.isfinite(imag)):
                raise SuiteError("amplitude parts must be finite", lineno)
            if not 0 <= tol < math.inf:  # also false for nan
                raise SuiteError("tolerance must be finite and at least 0", lineno)
            cases[-1].expect_amplitudes.append(
                AmplitudeExpectation(index, complex(real, imag), tol)
            )
        else:
            raise SuiteError(f"unknown keyword {shown(keyword)}", lineno)
    return cases
