"""Circuit unit testing: prepare, run, decode, compare.

A test case names a circuit, a backend, register preparations and
expectations. Logic-backend cases compare decoded register integers
exactly; state-vector cases compare listed amplitudes within per-entry
tolerances and require every unlisted amplitude to be negligible.

Suite files (``.qtest``) are line oriented::

    circuit adder.fqt
    backend logic
    case add_1_2 prep a=1,b=2 expect b=3,c=0
    # state-vector expectations attach to the preceding case:
    backend sv
    case bell prep a=0
    expect amp 0 0.70710678 0 tol 1e-6
    expect amp 3 0.70710678 0 tol 1e-6

A backend mismatch (e.g. a Hadamard under the logic backend) reports
the case as an error, not a failure.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .ir import Circuit, decode_registers, encode_registers
from .logic import BasisState, NonLogicGate, run_logic
from .passes import CompileError, PassConfig, checked, lower
from .source import ParseError, parse_source
from .statevector import StateTooLarge, run

DEFAULT_AMPLITUDE_TOL = 1e-9


class Backend(Enum):
    LOGIC = "logic"
    SV = "sv"


class SuiteError(Exception):
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


def _run_case(case: TestCase, lowered: bool) -> CaseResult:
    try:
        circuit = (
            lower(case.circuit, PassConfig()) if lowered else checked(case.circuit)
        )
        bits = encode_registers(case.circuit, case.prep)
        if case.backend is Backend.LOGIC:
            # lowering may append ancillas; they prep to 0
            out = run_logic(circuit, BasisState(circuit.n_qubits, bits))
        else:
            state = run(circuit, bits)
    except (CompileError, ValueError, NonLogicGate, StateTooLarge) as e:
        return CaseResult(case.name, "error", str(e))

    if case.backend is Backend.LOGIC:
        decoded = decode_registers(case.circuit, out.bits)
        unknown = [label for label in case.expect_registers if label not in decoded]
        if unknown:
            message = f"expect names unknown register {unknown[0]!r}"
            return CaseResult(case.name, "error", message)
        mismatches = [
            f"expected {label}={want}, actual {label}={decoded.get(label)}"
            for label, want in case.expect_registers.items()
            if decoded.get(label) != want
        ]
        if mismatches:
            return CaseResult(case.name, "fail", "; ".join(mismatches))
        return CaseResult(case.name, "pass")

    listed = {e.index: e for e in case.expect_amplitudes}
    floor = min(
        (e.tolerance for e in case.expect_amplitudes), default=DEFAULT_AMPLITUDE_TOL
    )
    for e in case.expect_amplitudes:
        if not 0 <= e.index < len(state.amplitudes):
            return CaseResult(
                case.name, "error", f"expected amplitude index {e.index} out of range"
            )
        actual = state.amplitudes[e.index]
        if abs(actual - e.amplitude) > e.tolerance:
            return CaseResult(
                case.name,
                "fail",
                f"amplitude[{e.index}] = {actual:.9g}, expected "
                f"{e.amplitude:.9g} within {e.tolerance:g}",
            )
    for i, actual in enumerate(state.amplitudes):
        if i not in listed and abs(actual) > floor:
            return CaseResult(
                case.name,
                "fail",
                f"unlisted amplitude[{i}] = {actual:.9g} exceeds {floor:g}",
            )
    return CaseResult(case.name, "pass")


def run_suite(cases: list[TestCase], lower: bool = False) -> TestReport:
    """Run every case on its backend; results keep the case order."""
    return TestReport(tuple(_run_case(case, lower) for case in cases))


# exactly the ASCII literals int(text, 0) reads; it alone would also
# take '1_0', ' 3', '-3' and non-ASCII digits
_INT = re.compile(r"0+|[1-9][0-9]*|0[xX][0-9A-Fa-f]+|0[bB][01]+|0[oO][0-7]+")


def parse_int(text: str) -> int:
    """An ASCII integer literal: decimal, or 0x / 0b / 0o prefixed."""
    if not _INT.fullmatch(text):
        raise ValueError(f"bad integer {text!r}")
    return int(text, 0)


def parse_assignments(text: str) -> dict[str, int]:
    """Register assignments ``a=3,b=0x5``; each register at most once."""
    out: dict[str, int] = {}
    for part in text.split(","):
        if not part:
            continue
        name, eq, value = part.partition("=")
        if not eq or not name:
            raise ValueError(f"bad entry {part!r}")
        if name in out:
            raise ValueError(f"register {name!r} assigned twice")
        try:
            out[name] = parse_int(value)
        except ValueError:
            raise ValueError(f"bad integer in entry {part!r}") from None
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
        text = path.read_text()
    except UnicodeDecodeError as e:
        raise SuiteError(f"cannot read suite {path}: not UTF-8 ({e.reason})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        keyword = words[0]
        if keyword == "circuit":
            if len(words) != 2:
                raise SuiteError("circuit takes one path", lineno)
            target = base / words[1]
            if target not in loaded:
                try:
                    loaded[target] = parse_source(target.read_text())
                except OSError as e:
                    raise SuiteError(f"cannot read circuit: {e}", lineno) from None
                except UnicodeDecodeError as e:
                    message = f"cannot read circuit {words[1]}: not UTF-8 ({e.reason})"
                    raise SuiteError(message, lineno) from None
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
            for i in range(2, len(words), 2):
                key = words[i]
                if key not in ("prep", "expect") or i + 1 == len(words):
                    raise SuiteError(f"unexpected token {key!r}", lineno)
                if key in given:
                    raise SuiteError(f"{key} given twice", lineno)
                try:
                    given[key] = parse_assignments(words[i + 1])
                except ValueError as e:
                    raise SuiteError(f"{key}: {e}", lineno) from None
            if "expect" in given and backend is not Backend.LOGIC:
                raise SuiteError("register expectations need the logic backend", lineno)
            prep, expect = given.get("prep", {}), given.get("expect", {})
            cases.append(TestCase(words[1], circuit, backend, prep, expect))
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
            try:
                cases[-1].expect_amplitudes.append(
                    AmplitudeExpectation(
                        index=int(words[2]),
                        amplitude=complex(float(words[3]), float(words[4])),
                        tolerance=float(words[6]),
                    )
                )
            except ValueError:
                raise SuiteError("bad number in amplitude expectation", lineno) from None
        else:
            raise SuiteError(f"unknown keyword {keyword!r}", lineno)
    return cases
