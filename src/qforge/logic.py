"""Computational-basis simulator.

Tracks a single basis state as one integer bit string (bit i = qubit
i), so circuits built only from NOT gates with any number of controls
run in time proportional to the gate count and memory proportional to
the qubit count. SWAP is accepted and runs as the three CNOT ops it
lowers to. Anything else raises NonLogicGate: such circuits need the
state-vector backend.

Negative controls cost nothing here, so they are honored directly with
no lowering.

``run_planes`` runs the same ops on many basis states at once, one
packed bit plane per qubit, for sweeps over every input; the
state-vector backend runs them through ``run_ops`` to find where a run
of X and SWAP gates moves each amplitude. The ops (``_ops``) are built
once per circuit object and cached while the circuit lives.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from .ir import Circuit, Gate, GateKind, QforgeError, check_basis, index_of, map_shared

Ops = tuple[tuple[int, int, int], ...]


class NonLogicGate(QforgeError):
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
        check_basis(self.bits, self.n_qubits)


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


# (weak reference to the circuit, its ops) by id(circuit); an entry
# goes when its circuit is collected, so a reused id never hits
_translations: dict[int, tuple[weakref.ref, Ops]] = {}


def _ops(c: Circuit) -> Ops:
    """Every gate of a NOT-family circuit as ``(mask, want, flip)`` ops.

    ``flip`` applies when ``bits & mask == want``. A SWAP(p, q) becomes
    CX(p->q), CX(q->p), CX(p->q), each carrying the swap's controls, and
    SWAP(p, p) becomes nothing. Gates are taken as ``verify`` accepts
    them: a target reused as a control or a contradictory control pair
    has no defined meaning. The translation is built once per circuit
    object and kept while the circuit lives, and within it once per
    distinct gate object (gates shared via ``repeat``, the parser or
    ``qp.to_circuit``), so million-gate circuits stay cheap. Raises
    NonLogicGate at the first gate outside the NOT family.
    """
    entry = _translations.get(id(c))
    if entry is not None and entry[0]() is c:
        return entry[1]
    n = c.n_qubits
    x, swap = GateKind.X, GateKind.SWAP  # enum attribute lookups are slow

    def gate_ops(gi: int, g: Gate) -> Ops:
        kind = g.kind
        if kind is not x and kind is not swap:
            raise NonLogicGate(kind, gi)
        mask = want = 0
        for k in g.controls:
            bit = 1 << index_of(k.qubit, n)
            mask |= bit
            if k.positive:
                want |= bit
        p = 1 << index_of(g.targets[0], n)
        if kind is x:
            return ((mask, want, p),)
        q = 1 << index_of(g.targets[1], n)
        pq = (mask | p, want | p, q)
        return (pq, (mask | q, want | q, p), pq) if p != q else ()

    ops = tuple(chain.from_iterable(map_shared(gate_ops, c.gates)))
    key = id(c)
    _translations[key] = (weakref.ref(c, lambda _: _translations.pop(key, None)), ops)
    return ops


def logic_function(c: Circuit) -> Callable[[int], int]:
    """Compile a NOT-family circuit into a plain bits -> bits function.

    The gates run as ``_ops`` translates them, once per circuit object.
    Useful on its own when the same circuit is evaluated on a few
    inputs; ``run_planes`` evaluates it on many at once.
    """
    ops = _ops(c)

    def apply(bits: int) -> int:
        for mask, want, flip in ops:
            if bits & mask == want:
                bits ^= flip
        return bits

    return apply


def run_planes(c: Circuit, planes: np.ndarray) -> np.ndarray:
    """Run a NOT-family circuit on many basis states at once.

    ``planes`` is a uint8 array with one row per qubit: row q holds
    qubit q's bit of every input, packed eight inputs to a byte (as
    ``np.packbits(..., bitorder="little")`` lays them out). The gates
    run as ``run_ops`` runs them, translated once per circuit object.
    NonLogicGate is raised before anything is evaluated. Returns the
    output planes; the input is not changed.
    """
    if planes.shape[0] != c.n_qubits:
        raise ValueError(
            f"planes have {planes.shape[0]} rows, circuit has {c.n_qubits} qubits"
        )
    ops = _ops(c)
    out = np.array(planes, dtype=np.uint8)
    run_ops(ops, list(out))
    return out


def run_ops(ops: Ops, rows: list[np.ndarray]) -> None:
    """Run ``_ops`` output in place over packed bit planes, one row per qubit.

    Each op ANDs its control rows (negated for negative controls) into
    a fire mask and XORs that into the target row, so an op costs a few
    numpy calls over rows of ``len(rows[0])`` bytes.
    """
    fire, negated = np.empty_like(rows[0]), np.empty_like(rows[0])
    for mask, want, flip in ops:
        fire.fill(0xFF)
        while mask:
            low = mask & -mask
            row = rows[low.bit_length() - 1]
            fire &= row if want & low else np.invert(row, out=negated)
            mask ^= low
        rows[flip.bit_length() - 1] ^= fire
