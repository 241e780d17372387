"""qforge command line: check, compile, sim, reduce, test.

Diagnostics go to stderr, results to stdout. Exit codes: 0 success,
1 user error (bad input, failing tests), 2 internal error.
"""
from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

import numpy as np

from .fileio import atomic_write_text
from .harness import SuiteError, parse_assignments, parse_int, parse_suite, run_suite
from .ir import (
    Circuit,
    CircuitError,
    Index,
    Named,
    decode_registers,
    encode_registers,
    register_bases,
)
from .logic import BasisState, NonLogicGate, run_logic
from .passes import CompileError, PassConfig, _resolver, checked, compile_circuit, verify
from .qp import QPFormatError, emit_qp, parse_qp, to_circuit
from .reduction import ReductionError, generate_kernels, write_kernels
from .source import ParseError, parse_source
from .statevector import StateTooLarge, probabilities, run

_USER_ERRORS = (
    ParseError,
    CircuitError,
    CompileError,
    QPFormatError,
    ReductionError,
    NonLogicGate,
    SuiteError,
    StateTooLarge,
    ValueError,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _load_circuit(path: str) -> Circuit:
    text = Path(path).read_text()
    if path.endswith(".qp"):
        return to_circuit(parse_qp(text))
    return parse_source(text)


def _parse_qubit_token(token: str, circuit: Circuit) -> int:
    """A specialization qubit: 'a[3]', 'a3', bare size-1 label, or index."""
    bases = register_bases(circuit)
    token = token.strip()
    if "[" in token and token.endswith("]"):
        label, _, rest = token.partition("[")
        offset = rest[:-1].strip()
        if not (offset.isascii() and offset.isdigit()):
            raise ValueError(f"cannot resolve qubit {token!r}")
        ref = Named(label, int(offset))
    elif token in bases:
        if bases[token][1] != 1:
            raise ValueError(f"{token!r} is a register, not a single qubit")
        ref = Named(token, 0)
    else:
        head = token.rstrip("0123456789")
        if head and head != token and head in bases:
            ref = Named(head, int(token[len(head):]))
        elif token.isascii() and token.isdigit():
            ref = Index(int(token))
        else:
            raise ValueError(f"cannot resolve qubit {token!r}")
    index = _resolver(circuit)(ref)
    if isinstance(index, str):
        raise ValueError(f"cannot resolve qubit {token!r}: {index}")
    return index


def _cmd_check(args) -> int:
    circuit = parse_source(Path(args.file).read_text())
    diags = verify(circuit)
    for d in diags:
        print(f"error: gate {d.gate_index}: {d.message}", file=sys.stderr)
    if diags:
        return 1
    print(f"ok: {circuit.n_qubits} qubits, {len(circuit.gates)} gates")
    return 0


def _cmd_compile(args) -> int:
    circuit = parse_source(Path(args.file).read_text())
    cfg = PassConfig(max_controls=args.max_controls)
    program = compile_circuit(circuit, cfg)
    atomic_write_text(args.output, emit_qp(program))
    print(f"{len(program.gates)} gates, {program.n_qubits} qubits")
    return 0


def _cmd_sim(args) -> int:
    circuit = checked(_load_circuit(args.file))
    if "=" in args.prep:
        prep = encode_registers(circuit, parse_assignments(args.prep))
    else:
        prep = parse_int(args.prep or "0")
        if not 0 <= prep < (1 << circuit.n_qubits):
            raise ValueError(
                f"prep value {prep} does not fit {circuit.n_qubits} qubits"
            )
    if args.backend == "logic":
        out = run_logic(circuit, BasisState(circuit.n_qubits, prep))
        if circuit.registers:
            fields = decode_registers(circuit, out.bits).items()
            print(" ".join(f"{label}={value}" for label, value in fields))
        else:
            print(format(out.bits, f"0{circuit.n_qubits}b"))
        return 0
    state = run(circuit, prep)
    probs = probabilities(state)
    # descending probability, ties by ascending index
    order = np.argsort(-probs, kind="stable")
    shown = 0
    for i in map(int, order):
        if shown >= args.top:
            break
        if probs[i] < 1e-12 and shown > 0:
            break
        amp = state.amplitudes[i]
        print(
            f"{i} {format(i, f'0{state.n_qubits}b')} "
            f"{amp.real:.10g} {amp.imag:.10g} {probs[i]:.10g}"
        )
        shown += 1
    return 0


def _cmd_reduce(args) -> int:
    source_path = Path(args.file)
    circuit = checked(parse_source(source_path.read_text()))
    qubit_indices = [
        _parse_qubit_token(tok, circuit) for tok in args.qubits.split(",") if tok
    ]
    values = []
    for value in args.values.split(","):
        value = value.strip()
        if not all(ch in "01" for ch in value):
            raise ValueError(f"value {value!r} must be a bit string")
        values.append([int(ch) for ch in value])
    report = generate_kernels(circuit, qubit_indices, values)
    manifest = write_kernels(report, source_path.stem, args.output)
    for entry in manifest["kernels"]:
        if "file" in entry:
            print(f"{entry['value']} {entry['file']} {entry['method']}")
        else:
            print(f"error: value {entry['value']}: {entry['error']}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_test(args) -> int:
    cases = parse_suite(args.suite)
    report = run_suite(cases, lower=args.lower)
    for result in report.results:
        tag = result.status.upper()
        suffix = f": {result.message}" if result.message else ""
        print(f"{tag} {result.name}{suffix}")
    print(f"{report.passed} passed, {report.failed} failed, {report.errors} errors")
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and verify a circuit")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("compile", help="lower a circuit and write a .qp file")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--max-controls", type=int, default=2)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("sim", help="simulate a .fqt or .qp circuit")
    p.add_argument("file")
    p.add_argument("--backend", choices=("logic", "sv"), default="sv")
    p.add_argument("--prep", default="", help="register assignments a=3,b=5 or an int")
    p.add_argument("--top", type=int, default=8, help="amplitudes to print (sv)")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("reduce", help="specialize qubits into kernel circuits")
    p.add_argument("file")
    p.add_argument("--qubits", required=True, help="comma list, e.g. a3,a2,a1,a0,c")
    p.add_argument("--values", required=True, help="comma list of bit strings")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("test", help="run a .qtest suite")
    p.add_argument("suite")
    p.add_argument("--lower", action="store_true", help="run cases fully lowered")
    p.set_defaults(func=_cmd_test)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
