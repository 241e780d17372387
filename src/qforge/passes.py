"""Lowering pipeline from the builder IR down to the integer format.

The pass order is fixed and written out once, in ``lower``: verify and
resolve names (``checked``), lower swaps, lower negative controls,
expand multi-controls; ``compile_circuit`` is ``lower`` plus the QP
encoding. Swaps go first so a controlled swap turns into controlled
NOTs whose (possibly negative) controls the next pass still sees;
multi-control expansion runs last so it only ever meets plain positive
controls.

Every pass is a pure circuit -> circuit function and each is
idempotent, so reruns are harmless. Each does its per-gate work once
per distinct gate object (``ir.map_shared``), and builds each new
object (X flip, control, ancilla Toffoli) once, so repeats stay shared.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain

from .ir import (
    MAX_QUBITS,
    Circuit,
    Control,
    Gate,
    GateKind,
    Index,
    InputError,
    QforgeError,
    QubitRef,
    map_shared,
    register_bases,
    shown,
)
from .qp import QPProgram, from_circuit


class CompileError(QforgeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, pass_name: str, message: str):
        super().__init__(f"{pass_name}: {message}")
        self.pass_name = pass_name


@dataclass(frozen=True)
class PassConfig:
    """Architecture limits for lowering.

    max_controls is the largest control count the target accepts, from
    2 (the expansion scheme itself needs Toffolis) to MAX_QUBITS - 1.
    """

    max_controls: int = 2

    def __post_init__(self) -> None:
        if not 2 <= self.max_controls < MAX_QUBITS:
            raise InputError(
                f"max_controls must be 2 to {MAX_QUBITS - 1}, got {self.max_controls}"
            )


@dataclass(frozen=True)
class Diagnostic:
    gate_index: int
    message: str


def _resolver(c: Circuit):
    bases = register_bases(c)

    def resolve(ref: QubitRef) -> int | str:
        """Resolved index, or a human-readable problem description."""
        if isinstance(ref, Index):
            if 0 <= ref.index < c.n_qubits:
                return ref.index
            return f"qubit index {ref.index} out of range ({c.n_qubits} qubits)"
        entry = bases.get(ref.label)
        if entry is None:
            return f"undeclared register {shown(ref.label)}"
        base, size = entry
        if not 0 <= ref.offset < size:
            name = shown(f"{ref.label}[{ref.offset}]", str)
            return f"qubit {name} out of range (register has {size} qubits)"
        return base + ref.offset

    return resolve


def _resolve(c: Circuit) -> tuple[list[Gate | None], list[Diagnostic]]:
    """The one walk behind verify, resolve_names and checked.

    Returns every gate with its references indexed (None for a gate
    with an unresolvable reference) and the well-formedness diagnostics
    in gate order; a broken gate's first diagnostic names its first
    unresolvable reference. A repeated gate object is resolved once and
    its diagnostics repeat at each of its indices.
    """
    resolve = _resolver(c)
    # resolved references repeat across gates; build each one once
    index = cache(Index)
    control = cache(lambda q, positive: Control(index(q), positive))

    def gate(_, g: Gate) -> tuple[Gate | None, list[str]]:
        targets = [resolve(t) for t in g.targets]
        controls = [resolve(k.qubit) for k in g.controls]
        refs = targets + controls
        if str in map(type, refs):
            return None, [r for r in refs if isinstance(r, str)]
        problems: list[str] = []
        if len(set(refs)) < len(refs):  # some qubit is named twice
            if g.kind is GateKind.SWAP and targets[0] == targets[1]:
                problems.append(f"swap targets are identical (qubit {targets[0]})")
            seen: dict[int, bool] = {}
            for q, k in zip(controls, g.controls):
                if q in targets:
                    problems.append(f"target qubit {q} used as a control")
                elif q not in seen:
                    seen[q] = k.positive
                elif seen[q] == k.positive:
                    problems.append(f"duplicate control on qubit {q}")
                else:
                    problems.append(f"qubit {q} is both a positive and a negative control")
        indexed_controls = tuple(
            control(q, k.positive) for q, k in zip(controls, g.controls)
        )
        return Gate(g.kind, tuple(map(index, targets)), indexed_controls), problems

    resolved = map_shared(gate, c.gates)
    diags = [
        Diagnostic(gi, message)
        for gi, (_, problems) in enumerate(resolved)
        for message in problems
    ]
    return [g for g, _ in resolved], diags


def verify(c: Circuit) -> list[Diagnostic]:
    """Well-formedness diagnostics; an empty list means the circuit is clean.

    Reports unresolvable or out-of-range qubits, targets reused as
    controls, duplicate or contradictory controls, and swaps whose two
    targets coincide.
    """
    return _resolve(c)[1]


def resolve_names(c: Circuit) -> tuple[Circuit, dict[tuple[str, int], int]]:
    """Replace named references with indices.

    Registers map to indices in declaration order, offset-ascending.
    Returns the indexed circuit together with the full mapping table
    (label, offset) -> index. Already-indexed circuits pass through
    unchanged. Raises InputError naming the first unresolvable
    reference; other diagnostics are verify's business.
    """
    gates, diags = _resolve(c)
    for d in diags:
        if gates[d.gate_index] is None:
            raise InputError(d.message)
    table = {
        (label, off): base + off
        for label, (base, size) in register_bases(c).items()
        for off in range(size)
    }
    return Circuit(c.registers, c.n_qubits, tuple(gates)), table


def _replaced(c: Circuit, replace) -> tuple[Gate, ...]:
    """c's gates, each replaced by replace's tuple, built once per object."""
    return tuple(chain.from_iterable(map_shared(replace, c.gates)))


def lower_swaps(c: Circuit) -> Circuit:
    """Replace SWAP(p, q) with CX(p->q), CX(q->p), CX(p->q).

    Controls on the swap are carried onto all three NOTs, so controlled
    swaps lower exactly.
    """

    def lower(_, g: Gate) -> tuple[Gate, ...]:
        if g.kind is not GateKind.SWAP:
            return (g,)
        p, q = g.targets

        def cx(a: QubitRef, b: QubitRef) -> Gate:
            return Gate(GateKind.X, (b,), g.controls + (Control(a, True),))

        pq = cx(p, q)
        return (pq, cx(q, p), pq)

    return Circuit(c.registers, c.n_qubits, _replaced(c, lower))


def lower_negative_controls(c: Circuit) -> Circuit:
    """Make every control positive by negating its qubit around the gate.

    Each negative control q becomes a positive one with X(q) inserted
    immediately before and after the gate. No cancellation of adjacent
    X pairs is attempted.
    """
    # one X flip and one positive control per qubit
    flip = cache(lambda q: Gate(GateKind.X, (q,), ()))
    positive = cache(lambda q: Control(q, True))

    def lower(_, g: Gate) -> tuple[Gate, ...]:
        flips = tuple(flip(k.qubit) for k in g.controls if not k.positive)
        if not flips:
            return (g,)
        controls = tuple(positive(k.qubit) for k in g.controls)
        return (*flips, Gate(g.kind, g.targets, controls), *reversed(flips))

    return Circuit(c.registers, c.n_qubits, _replaced(c, lower))


def _fresh_ancilla_label(c: Circuit) -> str:
    taken = {label for label, _ in c.registers}
    label = "anc"
    i = 0
    while label in taken:
        i += 1
        label = f"anc{i}"
    return label


def expand_multi_controls(c: Circuit, cfg: PassConfig) -> Circuit:
    """Rewrite gates with more than max_controls controls.

    While a gate has too many controls, a Toffoli folds its first two
    controls into a fresh |0> ancilla, which then stands in for the
    pair; the ancillas are uncomputed in reverse order right after the
    gate, so each one is back to |0> and the pool (sized by the worst
    gate, k - max_controls ancillas) is reused across gates.

    Expects positive controls only, i.e. runs after
    lower_negative_controls.
    """
    m = cfg.max_controls
    pool = max((len(g.controls) - m for g in c.gates), default=0)
    if pool <= 0:
        return c
    base = c.n_qubits
    registers = c.registers
    if c.register_span == c.n_qubits:
        registers = registers + ((_fresh_ancilla_label(c), pool),)
    # one ancilla reference each, one Toffoli per (ancilla, control, control)
    ancilla = cache(lambda i: Index(base + i))
    stand_in = cache(lambda i: Control(ancilla(i), True))
    toffoli = cache(lambda i, a, b: Gate(GateKind.X, (ancilla(i),), (a, b)))

    def expand(_, g: Gate) -> tuple[Gate, ...]:
        if len(g.controls) <= m:
            return (g,)
        for k in g.controls:
            if not k.positive:
                raise ValueError(
                    "negative controls must be lowered before multi-control expansion"
                )
        controls = list(g.controls)
        computed: list[Gate] = []
        while len(controls) > m:
            i = len(computed)
            computed.append(toffoli(i, controls[0], controls[1]))
            controls = [stand_in(i)] + controls[2:]
        return (*computed, Gate(g.kind, g.targets, tuple(controls)), *reversed(computed))

    return Circuit(registers, base + pool, _replaced(c, expand))


def checked(c: Circuit) -> Circuit:
    """The resolved circuit, or a CompileError naming the first diagnostic."""
    gates, diags = _resolve(c)
    if diags:
        first = diags[0]
        raise CompileError(
            "verify",
            f"{len(diags)} error(s); first: gate {first.gate_index}: {first.message}",
        )
    return Circuit(c.registers, c.n_qubits, tuple(gates))


def lower(c: Circuit, cfg: PassConfig) -> Circuit:
    """Verify, resolve and lower to swap-free gates with at most
    max_controls positive controls each.

    Raises checked's CompileError when verify rejects the circuit.
    """
    lowered = lower_negative_controls(lower_swaps(checked(c)))
    return expand_multi_controls(lowered, cfg)


def compile_circuit(c: Circuit, cfg: PassConfig | None = None) -> QPProgram:
    """Lower the circuit and encode it as a QP program."""
    cfg = cfg or PassConfig()
    return from_circuit(lower(c, cfg), cfg.max_controls)
