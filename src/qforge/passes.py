"""Lowering pipeline from the builder IR down to the integer format.

The pass order is fixed and written out once, in ``lower``: verify and
resolve names (``checked``), lower swaps, lower negative controls,
expand multi-controls; ``compile_circuit`` is ``lower`` plus the QP
encoding. Swaps go first so a controlled swap turns into controlled
NOTs whose (possibly negative) controls the next pass still sees;
multi-control expansion runs last so it only ever meets plain positive
controls.

Every pass is a pure circuit -> circuit function and each is
idempotent, so reruns are harmless.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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
    register_bases,
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
            return f"undeclared register {ref.label!r}"
        base, size = entry
        if not 0 <= ref.offset < size:
            return (
                f"qubit {ref.label}[{ref.offset}] out of range "
                f"(register has {size} qubits)"
            )
        return base + ref.offset

    return resolve


def _resolve(c: Circuit) -> tuple[list[Gate | None], list[Diagnostic]]:
    """The one walk behind verify, resolve_names and checked.

    Returns every gate with its references indexed (None for a gate
    with an unresolvable reference) and the well-formedness diagnostics
    in gate order; a broken gate's first diagnostic names its first
    unresolvable reference.
    """
    resolve = _resolver(c)
    # resolved references repeat across gates; build each one once
    index = cache(Index)
    control = cache(lambda q, positive: Control(index(q), positive))
    gates: list[Gate | None] = []
    diags: list[Diagnostic] = []
    for gi, g in enumerate(c.gates):
        targets = [resolve(t) for t in g.targets]
        controls = [resolve(k.qubit) for k in g.controls]
        refs = targets + controls
        if str in map(type, refs):
            diags.extend(Diagnostic(gi, r) for r in refs if isinstance(r, str))
            gates.append(None)
            continue
        if len(set(refs)) < len(refs):  # some qubit is named twice
            if g.kind is GateKind.SWAP and targets[0] == targets[1]:
                diags.append(
                    Diagnostic(gi, f"swap targets are identical (qubit {targets[0]})")
                )
            seen: dict[int, bool] = {}
            for q, k in zip(controls, g.controls):
                if q in targets:
                    diags.append(Diagnostic(gi, f"target qubit {q} used as a control"))
                elif q not in seen:
                    seen[q] = k.positive
                elif seen[q] == k.positive:
                    diags.append(Diagnostic(gi, f"duplicate control on qubit {q}"))
                else:
                    both = f"qubit {q} is both a positive and a negative control"
                    diags.append(Diagnostic(gi, both))
        indexed_controls = tuple(
            control(q, k.positive) for q, k in zip(controls, g.controls)
        )
        gates.append(Gate(g.kind, tuple(map(index, targets)), indexed_controls))
    return gates, diags


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


def lower_swaps(c: Circuit) -> Circuit:
    """Replace SWAP(p, q) with CX(p->q), CX(q->p), CX(p->q).

    Controls on the swap are carried onto all three NOTs, so controlled
    swaps lower exactly.
    """
    out: list[Gate] = []
    for g in c.gates:
        if g.kind is not GateKind.SWAP:
            out.append(g)
            continue
        p, q = g.targets

        def cx(a: QubitRef, b: QubitRef) -> Gate:
            return Gate(GateKind.X, (b,), g.controls + (Control(a, True),))

        out.extend((cx(p, q), cx(q, p), cx(p, q)))
    return Circuit(c.registers, c.n_qubits, tuple(out))


def lower_negative_controls(c: Circuit) -> Circuit:
    """Make every control positive by negating its qubit around the gate.

    Each negative control q becomes a positive one with X(q) inserted
    immediately before and after the gate. No cancellation of adjacent
    X pairs is attempted.
    """
    out: list[Gate] = []
    for g in c.gates:
        flips = [
            Gate(GateKind.X, (k.qubit,), ()) for k in g.controls if not k.positive
        ]
        if not flips:
            out.append(g)
            continue
        positive = tuple(Control(k.qubit, True) for k in g.controls)
        out.extend(flips)
        out.append(Gate(g.kind, g.targets, positive))
        out.extend(reversed(flips))
    return Circuit(c.registers, c.n_qubits, tuple(out))


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
    out: list[Gate] = []
    for g in c.gates:
        if len(g.controls) <= m:
            out.append(g)
            continue
        for k in g.controls:
            if not k.positive:
                raise ValueError(
                    "negative controls must be lowered before multi-control expansion"
                )
        controls = list(g.controls)
        computed: list[Gate] = []
        next_ancilla = base
        while len(controls) > m:
            w = Index(next_ancilla)
            next_ancilla += 1
            computed.append(Gate(GateKind.X, (w,), (controls[0], controls[1])))
            controls = [Control(w, True)] + controls[2:]
        out.extend(computed)
        out.append(Gate(g.kind, g.targets, tuple(controls)))
        out.extend(reversed(computed))
    return Circuit(registers, base + pool, tuple(out))


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
