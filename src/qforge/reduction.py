"""Circuit qubit reduction: specialize constant qubits away.

Fixing k qubits to constant bits produces a kernel circuit over the
remaining n - k qubits, so each kernel's state vector is 2**k times
smaller than the original's. Two strategies are tried in order:

* syntactic: walk the gate list propagating the known bits. Controls
  on specialized qubits are evaluated (drop the gate or strip the
  control); NOT gates targeting a specialized qubit with fully-known
  controls just update the tracked bit. Anything else is NotReducible.

* semantic: for computational-basis (NOT-family) circuits, evaluate
  the permutation the circuit applies to the free qubits under the
  fixed assignment, then resynthesize it as multi-controlled NOTs.
  Requires the specialized qubits to end in a constant state; if their
  output depends on the free inputs the specialization is entangled
  and removing the qubits would change semantics, which is an error.

  Cost, with m free qubits out of n: extraction runs the 2**m free
  values on ``logic``'s bit planes, at most ``logic.PLANE_SCRATCH``
  bytes of them at a time, a few numpy calls per gate and block.
  Synthesis keeps the images as m bit planes, Python ints in ``logic``'s
  packed layout, so a fix with c controls is c + 1 big-int operations
  whatever m is. At most SEMANTIC_MAX_FREE free qubits are swept.

Kernel circuits are densely reindexed over the free qubits (old index
order preserved) and carry a fresh register ``q`` so they can be
printed and run like any other circuit.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .fileio import atomic_write_text
from .ir import Circuit, Control, Gate, GateKind, Index, InputError, QforgeError, shown
from .logic import NonLogicGate, _ops, plane_indices, read_gate, sweep
from .passes import _resolve
from .source import print_source

# most free qubits the semantic path sweeps; it bounds memory, not time:
# extraction's 2**m-entry permutation list, beside which synthesis's
# 2*m*2**m bits of planes are small (sweep planes: logic.PLANE_SCRATCH)
SEMANTIC_MAX_FREE = 20
NAME_MAX = 255  # longest file name, in bytes, reduce may write


class ReductionError(QforgeError):
    """Base class for reduction failures."""


class NotReducible(ReductionError):
    """The syntactic walk hit a gate it cannot specialize away."""

    def __init__(self, gate_index: int, reason: str):
        super().__init__(f"gate {gate_index}: {reason}")
        self.gate_index = gate_index
        self.reason = reason


class UnsupportedForSemanticReduction(ReductionError):
    """Semantic extraction needs a computational-basis circuit."""


class EntangledSpecialization(ReductionError):
    """The specialized qubits do not end in a free-independent constant."""


class NotAPermutation(ReductionError):
    """Synthesis input is not a bijection over a power-of-two domain."""


@dataclass(frozen=True)
class Specialization:
    """Constant-bit assignment for a subset of qubits.

    ``method`` records how a kernel was obtained ("syntactic" or
    "semantic") and is filled in on results.
    """

    assignments: Mapping[int, int]
    method: str | None = None


@dataclass(frozen=True)
class ReducedKernel:
    """A specialized kernel over the free qubits.

    index_map sends old free-qubit indices to their dense new ones;
    final_constants gives the classical output bit of every
    specialized qubit, so a bit that differs from its assignment is
    the record of a qubit that ends flipped.
    """

    circuit: Circuit
    index_map: dict[int, int]
    final_constants: dict[int, int]
    specialization: Specialization


@dataclass(frozen=True)
class KernelOutcome:
    value: tuple[int, ...]
    kernel: ReducedKernel | None = None
    error: str | None = None


@dataclass(frozen=True)
class ReductionReport:
    outcomes: tuple[KernelOutcome, ...]

    @property
    def kernels(self) -> list[ReducedKernel]:
        return [o.kernel for o in self.outcomes if o.kernel is not None]

    @property
    def ok(self) -> bool:
        return all(o.error is None for o in self.outcomes)


def find_control_only_qubits(c: Circuit) -> set[int]:
    """Qubits that never appear as a gate target: ideal specialization picks."""
    return set(range(c.n_qubits)) - {t for g in c.gates for t in read_gate(g, c.n_qubits).targets}


def _check_assignments(c: Circuit, assignments: Mapping[int, int]) -> None:
    for q, bit in assignments.items():
        if not 0 <= q < c.n_qubits:
            raise InputError(f"specialized qubit {q} not in circuit of {c.n_qubits}")
        if bit not in (0, 1):
            raise InputError(f"assignment for qubit {q} must be 0 or 1, got {bit}")


def _free_index_map(n: int, assignments: Mapping[int, int]) -> dict[int, int]:
    free = [q for q in range(n) if q not in assignments]
    return {old: new for new, old in enumerate(free)}


def _kernel_circuit(m: int, gates: Sequence[Gate]) -> Circuit:
    registers = ((("q", m),) if m > 0 else ())
    return Circuit(registers, m, tuple(gates))


def specialize_syntactic(c: Circuit, spec: Specialization) -> ReducedKernel:
    """Constant-propagate the assigned bits through the gate list.

    Raises NotReducible at the first gate whose effect on a specialized
    qubit cannot be evaluated classically.
    """
    _check_assignments(c, spec.assignments)
    n = c.n_qubits
    tracked = dict(spec.assignments)
    index_map = _free_index_map(n, tracked)
    out: list[Gate] = []
    for gi, g in enumerate(c.gates):
        targets, controls = read_gate(g, n)[:2]
        keep = [(q, v) for q, v in controls if q not in tracked]
        fires = all(tracked[q] == v for q, v in controls if q in tracked)
        if any(t in tracked for t in targets):
            if g.kind is not GateKind.X:
                raise NotReducible(gi, f"{g.kind.value} gate targets a specialized qubit")
            if keep:
                raise NotReducible(
                    gi,
                    f"NOT targeting specialized qubit {targets[0]} has a control "
                    f"on free qubit {keep[0][0]}",
                )
            if fires:
                tracked[targets[0]] ^= 1
        elif fires:
            out.append(Gate(g.kind, tuple(Index(index_map[t]) for t in targets),
                            tuple(Control(Index(index_map[q]), v) for q, v in keep)))
    m = n - len(tracked)
    kernel = c if not spec.assignments else _kernel_circuit(m, out)
    return ReducedKernel(
        circuit=kernel,
        index_map=index_map,
        final_constants=tracked,
        specialization=replace(spec, method="syntactic"),
    )


def extract_permutation(
    c: Circuit, spec: Specialization
) -> tuple[list[int], dict[int, int]]:
    """Evaluate the free-qubit permutation under a fixed assignment.

    Runs the circuit in the computational basis on every free value and
    requires the specialized qubits to come out the same every time.
    Returns (permutation, final constant bits of the assigned qubits,
    which differ from the assignment where a qubit ends flipped).
    More than SEMANTIC_MAX_FREE free qubits raise
    UnsupportedForSemanticReduction before any work is done.

    Each block of ``logic.sweep`` is checked packed: every specialized
    row must be all 0x00 or all 0xFF, as value 0's bit is.
    """
    _check_assignments(c, spec.assignments)
    n = c.n_qubits
    m = n - len(spec.assignments)
    if m > SEMANTIC_MAX_FREE:
        raise UnsupportedForSemanticReduction(
            f"{m} free qubits exceed the semantic sweep cap of {SEMANTIC_MAX_FREE}"
        )
    try:
        ops = _ops(c)
    except NonLogicGate as e:
        raise UnsupportedForSemanticReduction(str(e)) from e
    free = list(_free_index_map(n, spec.assignments))
    fixed = sum(bit << q for q, bit in spec.assignments.items())
    perm = np.empty(1 << m, np.intp)
    for block, planes in sweep(ops, n, fixed, free, m):
        count = block.stop - block.start
        perm[block] = plane_indices(planes[free], count)
        planes[free] = 0
        if block.start == 0:
            expected = -(planes[:, :1] & 1)  # value 0's bits as whole bytes
        np.bitwise_xor(planes, expected, out=planes)
        differs = np.bitwise_or.reduce(planes, axis=0)
        if differs.any():
            first = block.start + int(plane_indices(differs[None], count).argmax())
            raise EntangledSpecialization(
                "specialized qubits do not end in a constant state; their "
                f"output differs between free inputs (e.g. at value {first})"
            )
    return perm.tolist(), {q: int(expected[q, 0] & 1) for q in sorted(spec.assignments)}


def _bit_planes(values: np.ndarray, m: int) -> list[int]:
    """Bit i of int b is bit b of values[i]: ``logic``'s packed rows,
    each read as one little-endian int."""
    return [
        int.from_bytes(np.packbits(values >> b & 1, bitorder="little").tobytes(), "little")
        for b in range(m)
    ]


def synthesize_from_permutation(perm: Sequence[int]) -> Circuit:
    """Resynthesize a basis permutation as multi-controlled NOTs.

    Output-side transformation-based synthesis (Miller, Maslov & Dueck,
    DAC 2003): walk basis values in ascending order and append NOT gates
    that map the current image of v onto v without disturbing any
    already-fixed smaller value (the control sets guarantee that); the
    collected gate list, reversed, is the circuit. Gate count is bounded
    by m * 2**m.

    The images are kept as m bit planes, Python ints in which bit i of
    plane b is bit b of f(i). A fix with target bit j and control mask c
    (j never in c) flips bit j of every image that contains c: the AND
    of c's planes is the fire mask, XORed into plane j, so a fix costs
    |c| + 1 big-int operations whatever m is. A run of values that are
    already their own image is jumped over with one OR of every plane's
    difference from the identity's, read from v up.
    """
    size = len(perm)
    if size == 0 or size & (size - 1):
        raise NotAPermutation(f"domain size {size} is not a power of two")
    m = size.bit_length() - 1
    if sorted(perm) != list(range(size)):
        raise NotAPermutation("values are not a bijection over the domain")
    planes = _bit_planes(np.array(perm, np.intp), m)
    identity = _bit_planes(np.arange(size, dtype=np.intp), m)
    everything = (1 << size) - 1

    def fire_mask(mask: int) -> int:
        """The values whose image contains every bit of mask."""
        fire = everything
        while mask:
            low = mask & -mask
            fire &= planes[low.bit_length() - 1]
            mask ^= low
        return fire

    fixes: list[tuple[int, int]] = []  # (target bit, positive-control mask)
    v = 0
    while v < size:
        y = 0
        for b, plane in enumerate(planes):
            y |= (plane >> v & 1) << b
        if y == v:  # jump ahead to the next value whose image is not itself
            differs = 0
            for plane, bits in zip(planes, identity):
                differs |= plane ^ bits
            ahead = differs >> v
            if not ahead:
                break
            v += (ahead & -ahead).bit_length() - 1
            continue
        # raise the bits v has and y lacks, controlled on y's current ones;
        # each raise adds its bit to the image and so to the next controls
        fire = fire_mask(y)
        missing = v & ~y
        while missing:
            j = (missing & -missing).bit_length() - 1
            fixes.append((j, y))
            planes[j] ^= fire
            fire &= planes[j]
            y |= 1 << j
            missing &= missing - 1
        # then clear the extra bits, controlled on v's ones, whose planes
        # no clear changes
        fire = fire_mask(v)
        extra = y & ~v
        while extra:
            j = (extra & -extra).bit_length() - 1
            fixes.append((j, v))
            planes[j] ^= fire
            extra &= extra - 1
        v += 1
    qubits = [Index(b) for b in range(m)]
    controls = [Control(q) for q in qubits]
    by_mask: dict[int, tuple[Control, ...]] = {0: ()}

    def mask_controls(mask: int) -> tuple[Control, ...]:
        """Positive controls on mask's bits in ascending order, as Gate
        equality compares them: the mask without its top bit, extended."""
        got = by_mask.get(mask)
        if got is None:
            top = mask.bit_length() - 1
            got = by_mask[mask] = mask_controls(mask ^ (1 << top)) + (controls[top],)
        return got

    # one Gate per (target, mask) pair, shared by every fix that repeats it
    x = GateKind.X
    built = {(j, mask): Gate(x, (qubits[j],), mask_controls(mask)) for j, mask in set(fixes)}
    return Circuit((), m, tuple(map(built.__getitem__, reversed(fixes))))


def _reduce(c: Circuit, spec: Specialization) -> ReducedKernel:
    """The syntactic kernel for one assignment, else the semantic one."""
    try:
        return specialize_syntactic(c, spec)
    except NotReducible:
        pass
    perm, constants = extract_permutation(c, spec)
    synth = synthesize_from_permutation(perm)
    return ReducedKernel(
        circuit=_kernel_circuit(synth.n_qubits, synth.gates),
        index_map=_free_index_map(c.n_qubits, spec.assignments),
        final_constants=constants,
        specialization=replace(spec, method="semantic"),
    )


def generate_kernels(
    c: Circuit,
    qubit_indices: Sequence[int],
    values: Sequence[Sequence[int]],
) -> ReductionReport:
    """One kernel per assignment value, syntactic first, semantic fallback.

    values[i][j] is the bit assigned to qubit_indices[j]. Named
    references are resolved first. Failures are recorded per value and
    do not abort the remaining ones. A circuit that ``verify`` rejects
    raises InputError before any value is tried: its gates have no
    defined meaning to evaluate.
    """
    gates, diags = _resolve(c)
    if diags:
        d = diags[0]
        raise InputError(f"circuit fails verify: gate {d.gate_index}: {d.message}")
    c = Circuit(c.registers, c.n_qubits, tuple(gates))
    if len(set(qubit_indices)) != len(qubit_indices):
        raise InputError("specialized qubits must be pairwise distinct")
    outcomes: list[KernelOutcome] = []
    for value in values:
        bits = tuple(int(b) for b in value)
        try:
            if len(bits) != len(qubit_indices):
                raise InputError(
                    f"value width {len(bits)} != qubit count {len(qubit_indices)}"
                )
            spec = Specialization(dict(zip(qubit_indices, bits)))
            outcomes.append(KernelOutcome(bits, kernel=_reduce(c, spec)))
        except QforgeError as e:
            outcomes.append(KernelOutcome(bits, error=str(e)))
    return ReductionReport(tuple(outcomes))


def output_names(base_name: str, values: Sequence[str]) -> tuple[str, list[str]]:
    """Every file name reduce writes: ``<base>.manifest.json`` and each
    ``<base>.k<value>.fqt``. A value given twice is an InputError, and so
    is a name over NAME_MAX bytes, which gives lengths, not the name."""
    stem = len(os.fsencode(base_name))
    named = [(f"{base_name}.manifest.json", f"a file stem of {stem} bytes names a manifest")]
    seen: set[str] = set()
    for v in values:
        if v in seen:
            raise InputError(f"value {shown(v)} given twice")
        seen.add(v)
        named.append((f"{base_name}.k{v}.fqt", f"a value of {len(v)} bits names a kernel file"))
    for name, what in named:
        size = len(os.fsencode(name))
        if size > NAME_MAX:
            raise InputError(f"{what} of {size} bytes; at most {NAME_MAX} fit")
    return named[0][0], [name for name, _ in named[1:]]


def write_kernels(
    report: ReductionReport, base_name: str, directory: str | Path
) -> dict:
    """Write kernels as ``<base>.k<value>.fqt`` plus a JSON manifest.

    Returns the manifest, which lists value, file, method and the
    specialization bookkeeping for every outcome (including failures).
    """
    values = ["".join(map(str, outcome.value)) for outcome in report.outcomes]
    manifest_name, file_names = output_names(base_name, values)  # before any write
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"source": base_name, "kernels": []}
    for outcome, value_str, file_name in zip(report.outcomes, values, file_names):
        entry: dict = {"value": value_str}
        if outcome.kernel is None:
            entry["error"] = outcome.error
        else:
            atomic_write_text(directory / file_name, print_source(outcome.kernel.circuit))
            entry["file"] = file_name
            entry["method"] = outcome.kernel.specialization.method
            entry["final_constants"] = {
                str(q): bit for q, bit in sorted(outcome.kernel.final_constants.items())
            }
            entry["index_map"] = {
                str(old): new for old, new in sorted(outcome.kernel.index_map.items())
            }
        manifest["kernels"].append(entry)
    atomic_write_text(directory / manifest_name, json.dumps(manifest, indent=2) + "\n")
    return manifest
