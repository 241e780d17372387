"""The benchmark workloads.

Each workload function takes a seed and a scratch directory and returns
a Workload whose ops make up one cycle of its inputs. An op's ``run`` is
the timed call into qforge; ``check`` compares its output with an
independent reference outside the timed region and returns an error
message or None; ``exact`` gives the counts that must repeat exactly
for the same input. ``run`` returns ``(output, work)``, where ``work``
holds the work units done and any timed sub-steps.

qforge functions are always looked up through their module at call
time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qforge
from qforge import cli, library, logic, passes, qp, reduction, source, statevector
from qforge.ir import Control, Named

import reference as ref
from spans import ratio


@dataclass
class Op:
    kind: str
    run: Callable[[], tuple]
    check: Callable[[object], str | None]
    exact: Callable[[object], dict]  # name -> count; summed over a cycle


@dataclass
class Workload:
    ops: list[Op]
    unit: str  # what work_per_s counts
    extra: Callable[[dict, float], dict]  # named end-to-end extras from summed work
    warmup: Callable[[], None]  # lazy set-up a user pays once per process


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _gate(rng: random.Random, n: int, kind: str, k: int, neg_share: float = 0.3):
    """A gate of the given kind with k controls on random distinct qubits."""
    n_targets = 2 if kind == "swap" else 1
    qs = rng.sample(range(n), n_targets + k)
    controls = tuple((q, rng.random() >= neg_share) for q in qs[n_targets:])
    return (kind, tuple(qs[:n_targets]), controls)


def _random_gate(rng: random.Random, n: int, kinds, max_controls: int):
    kind = rng.choice(kinds)
    k = rng.randint(0, min(max_controls, n - (2 if kind == "swap" else 1)))
    return _gate(rng, n, kind, k)


def _polarities(rng: random.Random, k: int) -> list[bool]:
    """k control polarities, half of them (rounded up) positive, in seeded order."""
    out = [i < (k + 1) // 2 for i in range(k)]
    rng.shuffle(out)
    return out


def _registers(rng: random.Random, total: int) -> list[tuple[str, int]]:
    first = rng.randint(total // 4, total // 2)
    second = rng.randint(total // 4, total - first - total // 8)
    return [("p", first), ("q", second), ("r", total - first - second)]


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- every workload

PAPER_CIRCUIT = "cuccaro_modadd4_rearranged"
PAPER_QUBITS = "a3,a2,a1,a0,c"
PAPER_VALUES = "00010,00100,00110"


def _read_fqt(text: str) -> tuple[int, list]:
    """Qubit count and plain-tuple gates of .fqt text, read without qforge."""
    registers, gates = [], []
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        if words[0] == "qreg":
            registers.append((words[1], int(words[2])))
            continue
        base = ref.bases(registers)

        def index(word: str) -> tuple[int, bool]:
            label, _, rest = word.lstrip("!").partition("[")
            return base[label] + int(rest[:-1]), not word.startswith("!")

        operands = [index(w) for w in words[1:]]
        n_targets = 2 if words[0] == "swap" else 1
        gates.append((words[0], tuple(q for q, _ in operands[:n_targets]), tuple(operands[n_targets:])))
    return sum(size for _, size in registers), gates


def _paper_path_op(rng: random.Random, tmp: Path) -> Op:
    """The paper's whole path on its 4-bit modulo adder, once per cycle.

    Compile, read the QP back and run it on the logic backend, simulate
    the source state vector, run the bundled .qtest suite and reduce one
    value. It gives every layer a measured time on every workload, so no
    per-layer time is a constant 0; it carries no work units, so it does
    not change work_per_s.
    """
    fqt = _write(tmp / f"{PAPER_CIRCUIT}.fqt", library.load_fixture(f"{PAPER_CIRCUIT}.fqt"))
    suite = _write(tmp / "modadd4.qtest", library.load_fixture("modadd4.qtest"))
    qp_path, outdir = str(tmp / f"{PAPER_CIRCUIT}.qp"), tmp / "paper_path"
    n, gates = _read_fqt(Path(fqt).read_text())
    want_gates, want_anc = ref.lowered_size(gates, 2)
    a, b = rng.getrandbits(4), rng.getrandbits(4)
    prep = a | b << 4  # registers a(4), b(4), c(1)
    want = a | ((a + b) % 16) << 4

    def run():
        compiled, _ = _cli(["compile", fqt, "-o", qp_path])
        text = Path(qp_path).read_text()
        program = qp.parse_qp(text)
        bits = logic.run_logic(qp.to_circuit(program), logic.BasisState(program.n_qubits, prep)).bits
        resolved, _ = passes.resolve_names(source.parse_source(Path(fqt).read_text()))
        amps = statevector.run(resolved, prep).amplitudes
        tested, summary = _cli(["test", suite])
        reduced, _ = _cli(["reduce", fqt, "--qubits", PAPER_QUBITS, "--values", "00110",
                           "-o", str(outdir)])
        kernel = _read_fqt((outdir / f"{PAPER_CIRCUIT}.k00110.fqt").read_text())
        return (compiled, text, program, bits, amps, tested, summary, reduced, kernel), {}

    def check(out):
        compiled, text, program, bits, amps, tested, summary, reduced, kernel = out
        if (compiled, tested, reduced) != (0, 0, 0):
            return f"compile, test and reduce exited {compiled}, {tested}, {reduced}"
        err = _check_qp(text, program, want_gates, n + want_anc)
        if err:
            return err
        if bits != want or abs(abs(amps[want]) - 1.0) > 1e-9:
            return f"adder gives {bits} (logic), arithmetic says {want}"
        if summary.strip().splitlines()[-1] != "5 passed, 0 failed, 0 errors":
            return f"qforge test: {summary.strip().splitlines()[-1]!r}"
        free = np.arange(16, dtype=np.int64)
        if kernel[0] != 4 or not np.array_equal(ref.run_bits(kernel[1], free), (free + 3) % 16):
            return "the 00110 kernel is not the +3 increment"
        return None

    def exact(out):
        return dict(_qp_counts(out), kernel_gates=len(out[8][1]))

    return Op("paper_path", run, check, exact)


# ---------------------------------------------------------------- compile_logic

COMPILE_GATES = 5000
COMPILE_QUBITS = (24, 40)  # register total of each random circuit
COMPILE_WIDTHS = tuple(range(16, 33))
COMPILE_REPEATS = 6
COMPILE_INPUTS = 12
COMPILE_CHECK_INPUTS = 128
NOT_KINDS = ("x", "swap")


def _random_compile_op(rng: random.Random, tmp: Path, i: int, not_only: bool) -> Op:
    regs = _registers(rng, COMPILE_QUBITS[i])
    n = sum(size for _, size in regs)
    kinds = NOT_KINDS if not_only else ref.KINDS
    gates = [_random_gate(rng, n, kinds, 6) for _ in range(COMPILE_GATES)]
    fqt = _write(tmp / f"random{i}.fqt", ref.fqt_text(regs, gates))
    qp_path = str(tmp / f"random{i}.qp")
    want_gates, want_anc = ref.lowered_size(gates, 2)
    check_in = np.array(
        [rng.getrandbits(n) for _ in range(COMPILE_CHECK_INPUTS)], dtype=np.int64
    )

    def run():
        t0 = time.perf_counter()
        code, _ = _cli(["compile", fqt, "-o", qp_path])
        text = Path(qp_path).read_text()
        program = qp.parse_qp(text)
        work = {
            "units": len(gates),
            "compile_s": time.perf_counter() - t0,
            "compile_gates": len(gates),
        }
        return (code, text, program), work

    def check(out):
        code, text, program = out
        if code != 0:
            return f"compile exited {code}"
        err = _check_qp(text, program, want_gates, n + want_anc)
        if err or not not_only:
            return err
        return _check_not_program(gates, program, n, check_in)

    return Op("compile", run, check, _qp_counts)


def _qp_counts(out) -> dict:
    return {"qp_gates_out": len(out[2].gates), "qp.bytes": len(out[1])}


def _check_qp(text: str, program, want_gates: int, want_qubits: int) -> str | None:
    """The file round-trips through parse_qp and has the closed-form size."""
    values = [int(tok) for tok in text.split()]
    header = [program.n_qubits, len(program.gates), program.max_controls]
    flat = [v for g in program.gates for v in (g.opcode, g.target, *g.controls)]
    if values != header + flat:
        return "parse_qp does not reproduce the emitted integers"
    if len(program.gates) != want_gates:
        return f"{len(program.gates)} QP gates, closed form says {want_gates}"
    if program.n_qubits != want_qubits:
        return f"{program.n_qubits} qubits, expected {want_qubits}"
    return None


def _check_not_program(gates, program, n: int, inputs) -> str | None:
    """Compiled NOT-only program equals the source, ancillas 0 in and out."""
    want = ref.run_bits(gates, inputs)
    got = ref.run_bits(ref.from_qp(program), inputs)
    if np.any(got >> n):
        return "ancillas not returned to 0"
    if not np.array_equal(got, want):
        return "compiled program disagrees with the source"
    return None


def _adder_compile_op(rng: random.Random, tmp: Path, width: int) -> Op:
    polarity = _polarities(rng, 4)
    controls = [Control(Named("k", i), pos) for i, pos in enumerate(polarity)]
    adder = library.cuccaro_full_add(width) + qforge.new_circuit(("k", 4))
    circuit = qforge.repeat(qforge.with_controls(adder, controls), COMPILE_REPEATS)
    base = ref.bases(circuit.registers)
    n = circuit.n_qubits
    fqt, qp_path = str(tmp / f"adder{width}.fqt"), str(tmp / f"adder{width}.qp")
    inputs = []
    for j in range(COMPILE_INPUTS):
        k = sum(int(p) << i for i, p in enumerate(polarity))
        if j % 2:
            k = rng.getrandbits(4)
        a, b = rng.getrandbits(width), rng.getrandbits(width)
        c, z = rng.getrandbits(1), rng.getrandbits(1)
        bits = a << base["a"] | b << base["b"] | c << base["c"] | z << base["z"] | k << base["k"]
        fires = all(((k >> i) & 1) == int(p) for i, p in enumerate(polarity))
        for _ in range(COMPILE_REPEATS if fires else 0):
            b, carry = ref.add_with_carry(a, b + c, width)
            z ^= carry
        want = a << base["a"] | b << base["b"] | c << base["c"] | z << base["z"] | k << base["k"]
        inputs.append((bits, want))
    want_gates, want_anc = ref.lowered_size(ref.from_circuit(circuit), 2)
    n_source = len(circuit.gates)

    def run():
        t0 = time.perf_counter()
        _write(Path(fqt), source.print_source(circuit))
        code, _ = _cli(["compile", fqt, "-o", qp_path])
        text = Path(qp_path).read_text()
        program = qp.parse_qp(text)
        t1 = time.perf_counter()
        indexed = qp.to_circuit(program)
        outs = [
            logic.run_logic(indexed, logic.BasisState(program.n_qubits, bits)).bits
            for bits, _ in inputs
        ]
        t2 = time.perf_counter()
        work = {
            "units": n_source,
            "compile_s": t1 - t0,
            "compile_gates": n_source,
            "logic_s": t2 - t1,
            "logic_gates": len(program.gates) * len(inputs),
        }
        return (code, text, program, outs), work

    def check(out):
        code, text, program, outs = out
        if code != 0:
            return f"compile exited {code}"
        err = _check_qp(text, program, want_gates, n + want_anc)
        if err:
            return err
        for (_, want), got in zip(inputs, outs):
            if got != want:
                return f"adder output {got:#x}, arithmetic says {want:#x}"
        return None

    return Op("adder", run, check, _qp_counts)


def compile_logic(seed: int, tmp: Path) -> Workload:
    rng = random.Random(seed)
    randoms = [_random_compile_op(rng, tmp, i, not_only=i % 2 == 1)
               for i in range(len(COMPILE_QUBITS))]
    adders = [_adder_compile_op(rng, tmp, w) for w in COMPILE_WIDTHS]
    # One random circuit per half cycle: a run of this length then holds
    # well under ten of them, so op_tail_ms stays among the adders instead
    # of jumping between the two op kinds as the count crosses ten.
    half = len(adders) // 2
    order = [_paper_path_op(rng, tmp), randoms[0]] + adders[:half] + [randoms[1]] + adders[half:]

    def extra(work: dict, _op_time: float) -> dict:
        return {
            "compile_gates_per_s": (ratio(work["compile_gates"], work["compile_s"]), "1/s"),
            "logic_gates_per_s": (ratio(work["logic_gates"], work["logic_s"]), "1/s"),
        }

    def warmup():
        fqt = _write(tmp / "warmup.fqt", "qreg a 4\nx a[0] a[1] !a[2] a[3]\nswap a[1] a[2]\n")
        _cli(["compile", fqt, "-o", str(tmp / "warmup.qp")])
        program = qp.parse_qp((tmp / "warmup.qp").read_text())
        logic.run_logic(qp.to_circuit(program), logic.BasisState(program.n_qubits, 0))

    return Workload(order, "source gates compiled", extra, warmup)


# ---------------------------------------------------------------- sv_wide

SV_WIDTH = 9  # cuccaro_full_add(9) plus H on a: 20 qubits
SV_REGISTERS = (("p", 7), ("q", 7), ("r", 6))  # 20 qubits
# 1 adder op per 12 round trips: a run holds well under ten adder ops, so
# op_tail_ms stays among the round trips (see compile_logic)
SV_RANDOM_CIRCUITS = 12
# controls per gate, one count per gate kind: each control halves the
# amplitudes a gate touches. Every round trip has the same kinds and
# counts, so the seed moves only qubits, polarities and order.
SV_CONTROL_COUNTS = [0, 0, 1, 1, 1, 2, 2, 3, 3]


def _sv_op(kind: str, circuit, prep: int, check) -> Op:
    n_gates, n = len(circuit.gates), circuit.n_qubits

    def run():
        if passes.verify(circuit):
            raise ValueError("benchmark circuit failed verification")
        resolved, _ = passes.resolve_names(circuit)
        state = statevector.run(resolved, prep)
        return state, {"units": n_gates << n}

    return Op(kind, run, lambda state: check(state.amplitudes),
              lambda state: {"statevector.gates": n_gates})


def _adder_superposition(rng: random.Random) -> Op:
    w = SV_WIDTH
    circuit = qforge.new_circuit(("a", w), ("b", w), ("c", 1), ("z", 1))
    for i in range(w):
        circuit = circuit + qforge.h(Named("a", i))
    circuit = circuit + library.cuccaro_full_add(w)
    base = ref.bases(circuit.registers)
    b = rng.getrandbits(w)
    a = np.arange(1 << w, dtype=np.int64)
    total = a + b
    want = a << base["a"] | (total & ((1 << w) - 1)) << base["b"] | (total >> w) << base["z"]
    magnitude = 2.0 ** (-w / 2)

    def check(amp):
        if not np.allclose(np.abs(amp[want]), magnitude, rtol=0, atol=1e-9):
            return "amplitudes at the arithmetic indices are not 2**-4.5"
        rest = np.ones(amp.size, dtype=bool)
        rest[want] = False
        if np.max(np.abs(amp[rest])) > 1e-9:
            return "non-zero amplitude off the arithmetic indices"
        return None

    return _sv_op("adder", circuit, b << base["b"], check)


def _round_trip(rng: random.Random) -> Op:
    n = sum(size for _, size in SV_REGISTERS)
    kinds = list(ref.KINDS)
    rng.shuffle(kinds)
    counts = SV_CONTROL_COUNTS[:]
    rng.shuffle(counts)
    gates = [_gate(rng, n, kind, k) for kind, k in zip(kinds, counts)]
    text = ref.fqt_text(SV_REGISTERS, gates + ref.inverse(gates))
    circuit = source.parse_source(text)
    prep = rng.getrandbits(n)

    def check(amp):
        norm = float(np.vdot(amp, amp).real)
        if abs(norm - 1.0) > 1e-9:
            return f"norm drifted to {norm!r}"
        if abs(amp[prep] - 1.0) > 1e-9:
            return f"circuit then inverse left amplitude {amp[prep]} at the prep"
        return None

    return _sv_op("round_trip", circuit, prep, check)


def sv_wide(seed: int, tmp: Path) -> Workload:
    rng = random.Random(seed)
    ops = [_paper_path_op(rng, tmp), _adder_superposition(rng)]
    ops += [_round_trip(rng) for _ in range(SV_RANDOM_CIRCUITS)]

    def extra(work: dict, op_time: float) -> dict:
        return {"sv_ns_per_amp": (ratio(op_time * 1e9, work["units"]), "ns")}

    def warmup():
        circuit = source.parse_source(ref.fqt_text(SV_REGISTERS, [("h", (0,), ())]))
        statevector.run(passes.resolve_names(circuit)[0], 0)

    return Workload(ops, "amplitude updates", extra, warmup)


# ---------------------------------------------------------------- reduce

REDUCE_MOD_WIDTHS = (10, 11, 12)
REDUCE_MOD_CONSTANTS = 1
# Most ops are 9-qubit scratch circuits, so the median op sits in the
# middle of them whatever the seed; the 10-qubit ones set the tail.
REDUCE_SCRATCH_FREE = (9,) * 15 + (10,) * 3
REDUCE_SCRATCH_GATES = 80
REDUCE_CONTROL_ONLY = 3


def _check_kernel(source_gates, kernel_gates, index_map, constants, fixed) -> str | None:
    """Kernel, embedded through index_map, equals the source on every free input."""
    m = len(index_map)
    free = np.arange(1 << m, dtype=np.int64)
    embedded = np.full(free.shape, sum(bit << q for q, bit in fixed.items()), dtype=np.int64)
    for old, new in index_map.items():
        embedded |= ((free >> new) & 1) << old
    want = ref.run_bits(source_gates, embedded)
    got_free = ref.run_bits(kernel_gates, free)
    got = np.full(free.shape, sum(bit << q for q, bit in constants.items()), dtype=np.int64)
    for old, new in index_map.items():
        got |= ((got_free >> new) & 1) << old
    if not np.array_equal(got, want):
        return "kernel disagrees with the source on some free input"
    return None


def _generate_op(kind: str, circuit, qubits: list[int], value: list[int], arith=None) -> Op:
    """One kernel through generate_kernels; arith maps free inputs to outputs."""
    resolved, _ = passes.resolve_names(circuit)
    source_gates = ref.from_circuit(resolved)
    fixed = dict(zip(qubits, value))

    def run():
        report = reduction.generate_kernels(resolved, qubits, [value])
        return report, {"units": len(report.kernels)}

    def check(report):
        if not report.ok or len(report.kernels) != 1:
            return f"reduction failed: {report.outcomes[0].error}"
        kernel = report.kernels[0]
        gates = ref.from_circuit(kernel.circuit)
        if arith is not None:
            free = np.arange(1 << kernel.circuit.n_qubits, dtype=np.int64)
            if not np.array_equal(ref.run_bits(gates, free), arith(free)):
                return "kernel disagrees with the arithmetic"
        return _check_kernel(source_gates, gates, kernel.index_map,
                             kernel.final_constants, fixed)

    return Op(kind, run, check, lambda r: {
        "kernel_gates": sum(len(k.circuit.gates) for k in r.kernels)})


def _mod_add_op(rng: random.Random, width: int) -> Op:
    circuit = library.mod_add(width)
    base = ref.bases(circuit.registers)
    # Odd, so the kernel changes every bit, with half the bits set: the
    # kernel's size grows with the number of set bits, so this keeps the
    # work about the same for every seed.
    k = sum(1 << i for i in [0] + rng.sample(range(1, width), width // 2 - 1))
    qubits = [base["a"] + i for i in range(width)] + [base["c"]]
    value = [(k >> i) & 1 for i in range(width)] + [0]
    # free qubits are b, in order, so the kernel adds k to its input
    return _generate_op("mod_add", circuit, qubits, value,
                        lambda free: (free + k) & ((1 << width) - 1))


def _scratch_op(rng: random.Random, m: int) -> Op:
    """NOT circuit whose two constant qubits hold Toffoli scratch results.

    A Toffoli computes into a constant qubit from free controls, a gate
    uses it, and the Toffoli is repeated to uncompute it, so the
    constants end where they started but the syntactic walk refuses.
    """
    gates = []
    for _ in range(REDUCE_SCRATCH_GATES):
        if rng.random() < 0.25:
            a, b, t = rng.sample(range(m), 3)
            scratch = m + rng.randrange(2)
            compute = ("x", (scratch,), ((a, True), (b, rng.random() < 0.5)))
            gates += [compute, ("x", (t,), ((scratch, True),)), compute]
        else:
            gates.append(_random_gate(rng, m, ("x",), 3))
    circuit = source.parse_source(ref.fqt_text([("f", m), ("s", 2)], gates))
    return _generate_op("scratch", circuit, [m, m + 1], [0, 0])


def _control_only_op(rng: random.Random, m: int) -> Op:
    """Constants used only as controls: the syntactic walk succeeds."""
    gates = []
    for _ in range(48):
        kind, targets, controls = _random_gate(rng, m, ("x", "swap"), 2)
        if rng.random() < 0.5:
            controls += ((m + rng.randrange(2), rng.random() < 0.5),)
        gates.append((kind, targets, controls))
    circuit = source.parse_source(ref.fqt_text([("f", m), ("s", 2)], gates))
    return _generate_op("control_only", circuit, [m, m + 1], [rng.getrandbits(1), 1])


def _paper_op(tmp: Path) -> Op:
    name = PAPER_CIRCUIT
    fqt = str(tmp / f"{name}.fqt")  # written by _paper_path_op
    outdir = tmp / "paper_kernels"

    def run():
        code, _ = _cli(["reduce", fqt, "--qubits", PAPER_QUBITS,
                           "--values", PAPER_VALUES, "-o", str(outdir)])
        manifest = json.loads((outdir / f"{name}.manifest.json").read_text())
        kernels = [_read_fqt((outdir / e["file"]).read_text()) for e in manifest["kernels"]]
        return (code, manifest, kernels), {"units": len(kernels)}

    def check(out):
        code, manifest, kernels = out
        if code != 0 or len(kernels) != 3:
            return f"qforge reduce exited {code} with {len(kernels)} kernels"
        free = np.arange(16, dtype=np.int64)
        for inc, entry, (n, gates) in zip((1, 2, 3), manifest["kernels"], kernels):
            if entry["method"] != "semantic" or n != 4:
                return f"kernel +{inc}: {entry['method']} over {n} qubits"
            if not np.array_equal(ref.run_bits(gates, free), (free + inc) % 16):
                return f"kernel +{inc} is not the +{inc} increment"
        return None

    return Op("paper_cli", run, check, lambda out: {
        "kernel_gates": sum(len(g) for _, g in out[2])})


def reduce(seed: int, tmp: Path) -> Workload:
    rng = random.Random(seed)
    heavy = [_paper_path_op(rng, tmp), _paper_op(tmp)]
    heavy += [_mod_add_op(rng, w) for w in REDUCE_MOD_WIDTHS for _ in range(REDUCE_MOD_CONSTANTS)]
    heavy += [_scratch_op(rng, m) for m in REDUCE_SCRATCH_FREE]
    light = [_control_only_op(rng, 8) for _ in range(REDUCE_CONTROL_ONLY)]
    ops = heavy + light

    def extra(work: dict, op_time: float) -> dict:
        return {"kernels_per_s": (ratio(work["units"], op_time), "1/s")}

    return Workload(ops, "kernels", extra, ops[0].run)


WORKLOADS = {
    "compile_logic": compile_logic,
    "sv_wide": sv_wide,
    "reduce": reduce,
}
