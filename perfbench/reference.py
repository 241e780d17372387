"""Independent references for checking qforge's outputs.

Nothing here calls the code under test: circuits are plain tuples, the
``.fqt`` text is written by hand, and NOT-family circuits are evaluated
on numpy bit vectors.

A gate is ``(kind, targets, controls)`` with absolute qubit indices:
``kind`` is a lower-case gate name, ``targets`` a tuple of ints and
``controls`` a tuple of ``(qubit, positive)`` pairs.
"""
from __future__ import annotations

import numpy as np

KINDS = ("x", "y", "z", "h", "s", "sdg", "t", "tdg", "swap")
INVERSE = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}
OPCODE_KINDS = {1: "x", 2: "y", 3: "z", 4: "h", 5: "s", 6: "sdg", 7: "t", 8: "tdg"}


def bases(registers):
    """Register label -> base index, in declaration order."""
    out, base = {}, 0
    for label, size in registers:
        out[label] = base
        base += size
    return out


def fqt_text(registers, gates) -> str:
    """``.fqt`` source for a circuit whose qubits all sit in registers."""
    names = [f"{label}[{i}]" for label, size in registers for i in range(size)]
    lines = [f"qreg {label} {size}" for label, size in registers]
    for kind, targets, controls in gates:
        words = [kind] + [names[t] for t in targets]
        words += [("" if pos else "!") + names[q] for q, pos in controls]
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


def from_circuit(circuit):
    """Plain-tuple gates of a qforge Circuit, resolved by register order."""
    base = bases(circuit.registers)

    def index(ref):
        label = getattr(ref, "label", None)
        return ref.index if label is None else base[label] + ref.offset

    return [
        (
            g.kind.value,
            tuple(index(t) for t in g.targets),
            tuple((index(k.qubit), k.positive) for k in g.controls),
        )
        for g in circuit.gates
    ]


def from_qp(program):
    """Plain-tuple gates of a parsed QP program."""
    return [
        (OPCODE_KINDS[g.opcode], (g.target,), tuple((q, True) for q in g.controls if q != -1))
        for g in program.gates
    ]


def inverse(gates):
    return [(INVERSE.get(kind, kind), t, c) for kind, t, c in reversed(gates)]


def lowered_size(gates, max_controls: int) -> tuple[int, int]:
    """Closed-form (gate count, ancilla count) after qforge's lowering.

    A non-SWAP gate with k controls, v of them negative, becomes
    1 + 2v + 2 max(0, k - m) gates and needs max(0, k - m) ancillas; a
    SWAP becomes three such gates with k + 1 controls.
    """
    total = anc = 0
    for kind, _, controls in gates:
        k = len(controls)
        neg = sum(1 for _, pos in controls if not pos)
        if kind == "swap":
            k += 1
        extra = max(0, k - max_controls)
        one = 1 + 2 * neg + 2 * extra
        total += 3 * one if kind == "swap" else one
        anc = max(anc, extra)
    return total, anc


def run_bits(gates, inputs: np.ndarray) -> np.ndarray:
    """Apply NOT-family gates to many basis states at once (int64 bits)."""
    v = inputs.astype(np.int64, copy=True)
    for kind, targets, controls in gates:
        pos = sum(1 << q for q, p in controls if p)
        neg = sum(1 << q for q, p in controls if not p)
        fire = ((v & pos) == pos) & ((v & neg) == 0)
        if kind == "x":
            v ^= fire.astype(np.int64) << targets[0]
        elif kind == "swap":
            p, q = targets
            diff = ((v >> p) ^ (v >> q)) & 1
            v ^= (fire.astype(np.int64) & diff) * ((1 << p) | (1 << q))
        else:
            raise ValueError(f"{kind} is not a NOT-family gate")
    return v


def add_with_carry(a: int, b: int, width: int) -> tuple[int, int]:
    """(a + b) mod 2**width and the carry out."""
    s = a + b
    return s & ((1 << width) - 1), s >> width
