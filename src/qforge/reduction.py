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

  Cost, with m free qubits out of n: extraction runs all 2**m free
  values at once on packed bit planes (n * 2**m / 8 bytes), a few
  numpy calls per gate. Synthesis keeps the permutation table and its
  inverse, so a fix with c controls swaps 2**(m-c-1) value pairs
  instead of sweeping all 2**m entries. At most SEMANTIC_MAX_FREE free
  qubits are swept.

Kernel circuits are densely reindexed over the free qubits (old index
order preserved) and carry a fresh register ``q`` so they can be
printed and run like any other circuit.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .fileio import atomic_write_text
from .ir import Circuit, Control, Gate, GateKind, Index, is_indexed
from .logic import NonLogicGate, run_planes
from .passes import verify
from .source import print_source

# most free qubits the semantic path sweeps; it bounds the bit planes'
# memory (n * 2**m / 8 bytes), not the synthesis time
SEMANTIC_MAX_FREE = 20


class ReductionError(Exception):
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
    specialized qubit.
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
    if not is_indexed(c):
        raise ValueError("circuit must be indexed; run resolve_names first")
    targeted = {t.index for g in c.gates for t in g.targets}
    return set(range(c.n_qubits)) - targeted


def _check_assignments(c: Circuit, assignments: Mapping[int, int]) -> None:
    for q, bit in assignments.items():
        if not 0 <= q < c.n_qubits:
            raise ValueError(f"specialized qubit {q} not in circuit of {c.n_qubits}")
        if bit not in (0, 1):
            raise ValueError(f"assignment for qubit {q} must be 0 or 1, got {bit}")


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
    if not is_indexed(c):
        raise ValueError("circuit must be indexed; run resolve_names first")
    _check_assignments(c, spec.assignments)
    tracked = dict(spec.assignments)
    index_map = _free_index_map(c.n_qubits, tracked)
    out: list[Gate] = []
    for gi, g in enumerate(c.gates):
        keep: list[Control] = []  # the free controls
        fires = True  # every specialized control holds
        for k in g.controls:
            if k.qubit.index in tracked:
                fires = fires and tracked[k.qubit.index] == k.positive
            else:
                keep.append(k)
        targets = [t.index for t in g.targets]
        if any(t in tracked for t in targets):
            if g.kind is not GateKind.X:
                raise NotReducible(gi, f"{g.kind.value} gate targets a specialized qubit")
            if keep:
                raise NotReducible(
                    gi,
                    f"NOT targeting specialized qubit {targets[0]} has a control "
                    f"on free qubit {keep[0].qubit.index}",
                )
            if fires:
                tracked[targets[0]] ^= 1
        elif fires:
            new_targets = tuple(Index(index_map[t]) for t in targets)
            new_controls = tuple(
                Control(Index(index_map[k.qubit.index]), k.positive) for k in keep
            )
            out.append(Gate(g.kind, new_targets, new_controls))
    m = c.n_qubits - len(tracked)
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
    Returns (permutation, final constant bits of the assigned qubits).
    More than SEMANTIC_MAX_FREE free qubits raise
    UnsupportedForSemanticReduction before any work is done.

    All 2**m free values run at once through ``logic.run_planes``: one
    packed bit-plane row per qubit, n * 2**m / 8 bytes in all, and a
    few numpy calls over rows of 2**m / 8 bytes per gate.
    """
    if not is_indexed(c):
        raise ValueError("circuit must be indexed; run resolve_names first")
    _check_assignments(c, spec.assignments)
    m = c.n_qubits - len(spec.assignments)
    if m > SEMANTIC_MAX_FREE:
        raise UnsupportedForSemanticReduction(
            f"{m} free qubits exceed the semantic sweep cap of {SEMANTIC_MAX_FREE}"
        )
    size = 1 << m
    values = np.arange(size)
    free = list(_free_index_map(c.n_qubits, spec.assignments))
    planes = np.empty((c.n_qubits, (size + 7) // 8), np.uint8)
    for new, old in enumerate(free):
        planes[old] = np.packbits((values >> new) & 1, bitorder="little")
    for q, bit in spec.assignments.items():
        planes[q] = 0xFF if bit else 0
    try:
        out = run_planes(c, planes)
    except NonLogicGate as e:
        raise UnsupportedForSemanticReduction(str(e)) from e

    def unpacked(rows: list[int]) -> np.ndarray:
        return np.unpackbits(out[rows], axis=1, count=size, bitorder="little")

    assigned = sorted(spec.assignments)
    final = unpacked(assigned)
    differs = (final != final[:, :1]).any(axis=0)
    if differs.any():
        raise EntangledSpecialization(
            "specialized qubits do not end in a constant state; their "
            f"output differs between free inputs (e.g. at value {differs.argmax()})"
        )
    constants = {q: int(final[i, 0]) for i, q in enumerate(assigned)}
    if constants != dict(spec.assignments):
        warnings.warn(
            f"specialized qubits end at {constants}, not at their input "
            f"assignment {dict(spec.assignments)}",
            stacklevel=2,
        )
    perm = np.zeros(size, np.int64)
    for new, bits in enumerate(unpacked(free)):
        perm |= bits.astype(np.int64) << new
    return perm.tolist(), constants


def synthesize_from_permutation(perm: Sequence[int]) -> Circuit:
    """Resynthesize a basis permutation as multi-controlled NOTs.

    Output-side transformation-based synthesis (Miller, Maslov & Dueck,
    DAC 2003): walk basis values in ascending order and append NOT gates
    that map the current image of v onto v without disturbing any
    already-fixed smaller value (the control sets guarantee that); the
    collected gate list, reversed, is the circuit. Gate count is bounded
    by m * 2**m.

    The table ``f`` is kept together with its inverse ``g``. A fix with
    target bit j and control mask c (j never in c) flips bit j of every
    image that contains c, which swaps the images of the 2**(m-|c|-1)
    value pairs (y, y | 1<<j) with y containing c; only those pairs are
    touched, so wide control masks cost little.
    """
    size = len(perm)
    if size == 0 or size & (size - 1):
        raise NotAPermutation(f"domain size {size} is not a power of two")
    m = size.bit_length() - 1
    if sorted(perm) != list(range(size)):
        raise NotAPermutation("values are not a bijection over the domain")
    f = list(perm)
    g = [0] * size
    for i, y in enumerate(f):
        g[y] = i

    def apply_fix(target_bit: int, control_mask: int) -> None:
        flip = 1 << target_bit
        free = (size - 1) & ~(control_mask | flip)
        s = free
        while True:  # every submask s of free, down to 0
            y0 = control_mask | s
            y1 = y0 | flip
            i0, i1 = g[y0], g[y1]
            f[i0], f[i1] = y1, y0
            g[y0], g[y1] = i1, i0
            if not s:
                return
            s = (s - 1) & free

    fixes: list[tuple[int, int]] = []  # (target bit, positive-control mask)
    for v in range(size):
        y = f[v]
        if y == v:
            continue
        # raise the bits v has and y lacks, controlled on y's current ones
        missing = v & ~y
        while missing:
            j = (missing & -missing).bit_length() - 1
            fixes.append((j, y))
            apply_fix(j, y)
            y = f[v]
            missing = v & ~y
        # then clear the extra bits, controlled on v's ones
        extra = y & ~v
        while extra:
            j = (extra & -extra).bit_length() - 1
            fixes.append((j, v))
            apply_fix(j, v)
            extra &= extra - 1
    qubits = [Index(b) for b in range(m)]
    controls = [Control(q) for q in qubits]
    by_mask: dict[int, tuple[Control, ...]] = {}
    gates = []
    for target_bit, mask in reversed(fixes):
        mask_controls = by_mask.get(mask)
        if mask_controls is None:
            mask_controls = tuple(controls[b] for b in range(m) if (mask >> b) & 1)
            by_mask[mask] = mask_controls
        gates.append(Gate(GateKind.X, (qubits[target_bit],), mask_controls))
    return Circuit((), m, tuple(gates))


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

    values[i][j] is the bit assigned to qubit_indices[j]. Failures are
    recorded per value and do not abort the remaining ones. A circuit
    that ``verify`` rejects raises ValueError before any value is tried:
    its gates have no defined meaning to evaluate.
    """
    if not is_indexed(c):
        raise ValueError("circuit must be indexed; run resolve_names first")
    diags = verify(c)
    if diags:
        d = diags[0]
        raise ValueError(f"circuit fails verify: gate {d.gate_index}: {d.message}")
    if len(set(qubit_indices)) != len(qubit_indices):
        raise ValueError("specialized qubits must be pairwise distinct")
    outcomes: list[KernelOutcome] = []
    for value in values:
        bits = tuple(int(b) for b in value)
        try:
            if len(bits) != len(qubit_indices):
                raise ValueError(
                    f"value width {len(bits)} != qubit count {len(qubit_indices)}"
                )
            spec = Specialization(dict(zip(qubit_indices, bits)))
            outcomes.append(KernelOutcome(bits, kernel=_reduce(c, spec)))
        except (ValueError, ReductionError) as e:
            outcomes.append(KernelOutcome(bits, error=str(e)))
    return ReductionReport(tuple(outcomes))


def write_kernels(
    report: ReductionReport, base_name: str, directory: str | Path
) -> dict:
    """Write kernels as ``<base>.k<value>.fqt`` plus a JSON manifest.

    Returns the manifest, which lists value, file, method and the
    specialization bookkeeping for every outcome (including failures).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"source": base_name, "kernels": []}
    for outcome in report.outcomes:
        value_str = "".join(str(b) for b in outcome.value)
        entry: dict = {"value": value_str}
        if outcome.kernel is None:
            entry["error"] = outcome.error
        else:
            file_name = f"{base_name}.k{value_str}.fqt"
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
    atomic_write_text(
        directory / f"{base_name}.manifest.json",
        json.dumps(manifest, indent=2) + "\n",
    )
    return manifest
