"""qforge command line: check, compile, sim, reduce, test.

Diagnostics go to stderr, results to stdout. Exit codes: 0 success;
1 usage errors, failing checks, tests or kernels, ``OSError`` and every
``QforgeError`` (bad input; ``InputError`` for bad values and non-UTF-8
files); 2 any other exception, a bug, printed with its traceback.
"""
from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

import numpy as np

from .fileio import atomic_write_text, read_text
from .harness import parse_assignments, parse_int, parse_suite, run_suite
from .ir import (
    MAX_QUBITS,
    Circuit,
    Index,
    InputError,
    Named,
    QforgeError,
    decimal,
    decode_registers,
    encode_registers,
    register_bases,
    shown,
)
from .logic import BasisState, run_logic
from .passes import PassConfig, _resolver, checked, compile_circuit, verify
from .qp import emit_qp, parse_qp, to_circuit
from .reduction import generate_kernels, output_names, write_kernels
from .source import parse_source
from .statevector import run


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _number(digits: str) -> int:
    """ASCII decimal digits, compared with MAX_QUBITS by length first:
    int() refuses a number of thousands of digits."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_QUBITS)):
        raise InputError(f"qubit number of {len(digits)} digits is above {MAX_QUBITS}")
    return int(digits)


def _int_flag(text: str) -> int:
    """``parse_int`` for argparse, which would echo the whole value."""
    try:
        return parse_int(text)
    except InputError:
        raise argparse.ArgumentTypeError(f"invalid parse_int value: {shown(text)}") from None


def _parse_qubit_token(token: str, circuit: Circuit) -> int:
    """A specialization qubit: 'a[3]', 'a3', bare size-1 label, or index."""
    bases = register_bases(circuit)
    token = token.strip()
    if "[" in token and token.endswith("]"):
        label, _, rest = token.partition("[")
        offset = rest[:-1].strip()
        if not (offset.isascii() and offset.isdigit()):
            raise InputError(f"cannot resolve qubit {shown(token)}")
        ref = Named(label, _number(offset))
    elif token in bases:
        if bases[token][1] != 1:
            raise InputError(f"{shown(token)} is a register, not a single qubit")
        ref = Named(token, 0)
    else:
        head = token.rstrip("0123456789")
        if head and head != token and head in bases:
            ref = Named(head, _number(token[len(head):]))
        elif token.isascii() and token.isdigit():
            ref = Index(_number(token))
        else:
            raise InputError(f"cannot resolve qubit {shown(token)}")
    index = _resolver(circuit)(ref)
    if isinstance(index, str):
        # the reason names the label again: only a token shown whole gets it
        reason = f": {index}" if shown(token) == repr(token) else ""
        raise InputError(f"cannot resolve qubit {shown(token)}{reason}")
    return index


def _cmd_check(args) -> int:
    circuit = parse_source(read_text(args.file))
    diags = verify(circuit)
    for d in diags:
        print(f"error: gate {d.gate_index}: {d.message}", file=sys.stderr)
    if diags:
        return 1
    print(f"ok: {circuit.n_qubits} qubits, {len(circuit.gates)} gates")
    return 0


def _cmd_compile(args) -> int:
    circuit = parse_source(read_text(args.file))
    cfg = PassConfig(max_controls=args.max_controls)
    program = compile_circuit(circuit, cfg)
    atomic_write_text(args.output, emit_qp(program))
    print(f"{len(program.gates)} gates, {program.n_qubits} qubits")
    return 0


def _cmd_sim(args) -> int:
    if args.top < 1:
        raise InputError(f"--top must be at least 1, got {args.top}")
    text = read_text(args.file)
    qp = args.file.endswith(".qp")  # a QPProgram is checked when it is built
    circuit = to_circuit(parse_qp(text)) if qp else checked(parse_source(text))
    if "=" in args.prep:
        prep = encode_registers(circuit, parse_assignments(args.prep))
    else:
        prep = parse_int(args.prep or "0")
    if args.backend == "logic":
        out = run_logic(circuit, BasisState(circuit.n_qubits, prep))
        if circuit.registers:
            fields = decode_registers(circuit, out.bits).items()
            print(" ".join(f"{label}={decimal(value)}" for label, value in fields))
        else:
            print(format(out.bits, f"0{circuit.n_qubits}b"))
        return 0
    state = run(circuit, prep)
    idx, amp = state.entries()  # ascending indices; every other amplitude is 0
    probs = amp.real**2 + amp.imag**2
    # descending probability, ties by ascending index, over the entries of
    # at least 1e-12: the others sort last and are dropped
    keys = np.negative(probs)
    keys[~(probs >= 1e-12)] = np.inf
    order = np.argsort(keys, kind="stable")[: args.top]
    order = order[keys[order] < np.inf]
    if not order.size:
        # none passes 1e-12: the first maximum of all 2**n alone is
        # printed, which is index 0 when no listed probability passes 0
        if not idx.size or idx[0]:
            idx, amp, probs = (np.insert(a, 0, 0) for a in (idx, amp, probs))
        order = [probs.argmax()]
    for k in order:
        i, a = int(idx[k]), amp[k] + 0.0  # -0.0 + 0.0 is 0.0: a zero prints as 0 on every path
        print(
            f"{i} {format(i, f'0{state.n_qubits}b')} "
            f"{a.real:.10g} {a.imag:.10g} {probs[k]:.10g}"
        )
    return 0


def _cmd_reduce(args) -> int:
    circuit = parse_source(read_text(args.file))
    qubit_indices = [
        _parse_qubit_token(tok, circuit) for tok in args.qubits.split(",") if tok
    ]
    values = [value.strip() for value in args.values.split(",")]
    for value in values:
        if not all(ch in "01" for ch in value):
            raise InputError(f"value {shown(value)} must be a bit string")
        if len(value) != len(qubit_indices):
            width, count = len(value), len(qubit_indices)
            raise InputError(f"value {shown(value)}: value width {width} != qubit count {count}")
    output_names(Path(args.file).stem, values)  # checked before any work
    report = generate_kernels(circuit, qubit_indices, [list(map(int, v)) for v in values])
    manifest = write_kernels(report, Path(args.file).stem, args.output)
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
    p.add_argument("--max-controls", type=_int_flag, default=2)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("sim", help="simulate a .fqt or .qp circuit")
    p.add_argument("file")
    p.add_argument("--backend", choices=("logic", "sv"), default="sv")
    p.add_argument("--prep", default="", help="register assignments a=3,b=5 or an int")
    p.add_argument("--top", type=_int_flag, default=8, help="amplitudes to print (sv)")
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
    except (QforgeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
