"""Computational-basis simulator.

Tracks a single basis state as one integer bit string (bit i = qubit
i), so circuits built only from NOT gates with any number of controls
run in time proportional to the gate count and memory proportional to
the qubit count. SWAP is accepted and handled as the conditional bit
exchange it is. Anything else raises NonLogicGate: such circuits need
the state-vector backend.

Negative controls cost nothing here, so they are honored directly with
no lowering.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .ir import Circuit, Gate, GateKind, index_of


class NonLogicGate(Exception):
    """A gate outside the NOT family reached the logic simulator."""

    def __init__(self, kind: GateKind, gate_index: int):
        super().__init__(
            f"gate {gate_index}: {kind.value} cannot be simulated in the "
            "computational basis; use the state-vector backend"
        )
        self.kind = kind
        self.gate_index = gate_index


@dataclass(frozen=True, slots=True)
class BasisState:
    """One computational-basis state of an n-qubit register."""

    n_qubits: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.n_qubits):
            raise ValueError(
                f"bits 0x{self.bits:x} out of range for {self.n_qubits} qubits"
            )

    def bit(self, q: int) -> int:
        return (self.bits >> q) & 1


def _masks(g: Gate, gi: int, n: int) -> tuple:
    """Precompute (is_swap, positive-mask, negative-mask, flip...) for a gate."""
    if g.kind is not GateKind.X and g.kind is not GateKind.SWAP:
        raise NonLogicGate(g.kind, gi)
    pos = 0
    neg = 0
    for k in g.controls:
        q = index_of(k.qubit, n)
        if k.positive:
            pos |= 1 << q
        else:
            neg |= 1 << q
    if g.kind is GateKind.X:
        t = index_of(g.targets[0], n)
        return (False, pos, neg, 1 << t)
    p = index_of(g.targets[0], n)
    q = index_of(g.targets[1], n)
    return (True, pos, neg, p, q, (1 << p) | (1 << q))


def run_logic(c: Circuit, state: BasisState) -> BasisState:
    """Run a NOT-family circuit on one basis state.

    Per gate, the target bit flips iff every positive control bit is 1
    and every negative control bit is 0.
    """
    if state.n_qubits != c.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits, circuit has {c.n_qubits}"
        )
    return BasisState(c.n_qubits, logic_function(c)(state.bits))


def logic_function(c: Circuit) -> Callable[[int], int]:
    """Compile a NOT-family circuit into a plain bits -> bits function.

    Gate objects repeated in the circuit (e.g. via ``repeat``) are
    precomputed once, so million-gate circuits stay cheap. Useful on its
    own when the same circuit is evaluated on many inputs (the
    qubit-reduction pass sweeps every free basis value).
    """
    n = c.n_qubits
    cache: dict[int, tuple] = {}
    ops = []
    for gi, g in enumerate(c.gates):
        op = cache.get(id(g))
        if op is None:
            op = cache[id(g)] = _masks(g, gi, n)
        ops.append(op)

    def apply(bits: int) -> int:
        for op in ops:
            if op[0]:
                _, pos, neg, p, q, pq = op
                if (bits & pos) == pos and not (bits & neg):
                    if ((bits >> p) ^ (bits >> q)) & 1:
                        bits ^= pq
            else:
                _, pos, neg, flip = op
                if (bits & pos) == pos and not (bits & neg):
                    bits ^= flip
        return bits

    return apply
