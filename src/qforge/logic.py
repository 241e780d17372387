"""Computational-basis simulator.

Tracks a single basis state as one integer bit string (bit i = qubit
i), so circuits built only from NOT gates with any number of controls
run in time proportional to the gate count and memory proportional to
the qubit count. SWAP is accepted and runs as the three CNOT ops it
lowers to. Anything else raises NonLogicGate: such circuits need the
state-vector backend.

Negative controls cost nothing here, so they are honored directly with
no lowering. ``read_gate`` is the one reading of an indexed gate, for
this backend, every state-vector path and the reduction walk, and it
refuses a gate naming a qubit twice, as ``verify`` does.

Many states at once run on bit planes, whose layout only this module
knows: one uint8 row per qubit, state i's bit at bit i % 8 of byte
i // 8 (``np.packbits(..., bitorder="little")``). ``run_ops`` runs ops
on them, ``sweep`` fills them with every value of some qubits in blocks
of at most PLANE_SCRATCH bytes, and ``plane_indices`` decodes them.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .ir import Circuit, Gate, GateKind, QforgeError, check_basis, index_of, map_shared

Ops = tuple[tuple[int, int, int], ...]

PLANE_SCRATCH = 4 << 20  # most bytes of planes a sweep holds, whatever n is
# (shift, mask) of the three delta swaps of an 8x8 bit transpose
_TRANSPOSE_STEPS = [
    (7, np.uint64(0x00AA00AA00AA00AA)),
    (14, np.uint64(0x0000CCCC0000CCCC)),
    (28, np.uint64(0x00000000F0F0F0F0)),
]


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


class GateReading(NamedTuple):
    """A resolved gate on n qubits as qubit numbers and bits (``read_gate``)."""

    targets: tuple[int, ...]
    controls: tuple[tuple[int, bool], ...]  # (qubit, positive), in order
    mask: int  # OR of the control bits
    want: int  # OR of the positive control bits
    named: int  # OR of every bit the gate names


def read_gate(g: Gate, n: int) -> GateReading:
    """Read a gate's references on n qubits, targets first, raising index_of's
    ValueError at a bad one, then a ValueError if the gate names a qubit
    twice: ``verify`` rejects such a gate, and no reader gives it a meaning."""
    targets, controls, mask, want = [], [], 0, 0
    for ref in g.targets:
        targets.append(index_of(ref, n))
    for k in g.controls:
        q = index_of(k.qubit, n)
        controls.append((q, k.positive))
        mask |= 1 << q
        if k.positive:
            want |= 1 << q
    named = mask | 1 << targets[0] | 1 << targets[-1]  # one target or two
    if named.bit_count() != len(targets) + len(controls):
        qubits = targets + [q for q, _ in controls]
        raise ValueError(f"{g.kind.value} gate names qubit {max(qubits, key=qubits.count)} twice")
    reading = (tuple(targets), tuple(controls), mask, want, named)
    return tuple.__new__(GateReading, reading)  # half the generated __new__'s cost, paid per gate


def flip_ops(r: GateReading) -> Ops:
    """The ops of an X (one target) or SWAP (two) gate: see ``translate``."""
    mask, want, p = r.mask, r.want, 1 << r.targets[0]
    if len(r.targets) == 1:
        return ((mask, want, p),)
    q = 1 << r.targets[1]
    pq = (mask | p, want | p, q)
    return pq, (mask | q, want | q, p), pq


def translate(gates: Sequence[Gate], n: int) -> Ops:
    """A NOT-family gate list on n qubits as ``(mask, want, flip)`` ops.

    ``flip`` applies when ``bits & mask == want``. A SWAP(p, q) becomes
    CX(p->q), CX(q->p), CX(p->q), each carrying the swap's controls. A
    gate naming a qubit twice raises ``read_gate``'s ValueError, as
    ``verify`` rejects it. Each distinct gate object (gates shared via
    ``repeat``, the parser or ``qp.to_circuit``) is translated once, so
    million-gate lists stay cheap. Raises NonLogicGate at the first gate
    outside the NOT family.
    """
    x, swap = GateKind.X, GateKind.SWAP  # enum attribute lookups are slow

    def gate_ops(gi: int, g: Gate) -> Ops:
        if g.kind is not x and g.kind is not swap:
            raise NonLogicGate(g.kind, gi)
        return flip_ops(read_gate(g, n))

    return tuple(chain.from_iterable(map_shared(gate_ops, gates)))


# (weak reference to the circuit, its ops) by id(circuit); an entry
# goes when its circuit is collected, so a reused id never hits
_translations: dict[int, tuple[weakref.ref, Ops]] = {}


def _ops(c: Circuit) -> Ops:
    """``translate`` of c's gates, built once and kept while c lives."""
    entry = _translations.get(id(c))
    if entry is not None and entry[0]() is c:
        return entry[1]
    ops = translate(c.gates, c.n_qubits)
    key = id(c)
    _translations[key] = (weakref.ref(c, lambda _: _translations.pop(key, None)), ops)
    return ops


def logic_function(c: Circuit) -> Callable[[int], int]:
    """Compile a NOT-family circuit into a plain bits -> bits function.

    The gates run as ``translate`` reads them, once per circuit object.
    Useful on its own when the same circuit is evaluated on a few
    inputs; ``sweep`` evaluates it on many at once.
    """
    ops = _ops(c)

    def apply(bits: int) -> int:
        for mask, want, flip in ops:
            if bits & mask == want:
                bits ^= flip
        return bits

    return apply


def run_ops(ops: Ops, rows: list[np.ndarray]) -> None:
    """Run ``translate`` output in place over bit planes, one row per qubit.

    Each op ANDs its control rows (negated for negative controls) into
    a fire mask and XORs that into the target row: a few numpy calls.
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


def sweep(ops: Ops, n: int, fixed: int, free: list[int], chunk_bits: int):
    """Run ``ops`` on every value of the ``free`` qubits, a block at a time.

    Bit b of a value is qubit ``free[b]``; every other qubit holds its
    bit of ``fixed``. Yields, in order, each block's slice of 2**chunk_bits
    values (fewer if their planes would pass PLANE_SCRATCH) and output
    planes, which the caller may change. Planes are at least a byte
    wide: state i holds the block's value i mod its value count.
    """
    cap = (PLANE_SCRATCH // max(n, 1)).bit_length() + 2  # 8 * width values fit
    chunk_bits = min(chunk_bits, len(free), cap)
    width = max(1, (1 << chunk_bits) >> 3)
    planes = np.empty((n, width), np.uint8)
    rows = list(planes)
    held = np.array([-(fixed >> q & 1) & 0xFF for q in range(n)], np.uint8)[:, None]
    # bits 0, 1 and 2 of 0, 1, ..., 7; higher bits in whole bytes
    counting = np.empty((chunk_bits, width), np.uint8)
    counting[:3] = np.array([[0xAA], [0xCC], [0xF0]], np.uint8)[:chunk_bits]
    for b in range(3, chunk_bits):
        counting[b] = (np.arange(width) >> (b - 3) & 1) * 0xFF
    for block in range(1 << (len(free) - chunk_bits)):
        planes[...] = held
        planes[free[:chunk_bits]] = counting
        for b in range(chunk_bits, len(free)):
            planes[free[b]] = -(block >> (b - chunk_bits) & 1) & 0xFF
        run_ops(ops, rows)
        yield slice(block << chunk_bits, (block + 1) << chunk_bits), planes


def plane_indices(planes: np.ndarray, count: int) -> np.ndarray:
    """Per state, of the first ``count``, the integer whose bit r is row r.

    With rows padded to a multiple of 8, each 8-row by 8-state block, as
    one uint64 word, is transposed as an 8x8 bit matrix (bit 8r + i
    moves to 8i + r), so byte i of the word becomes state i's byte of
    rows 8k to 8k + 7; the bytes are then shifted into place.
    """
    groups, width = max(1, -(-len(planes) // 8)), planes.shape[1]
    padded = np.zeros((groups * 8, width), np.uint8)
    padded[:len(planes)] = planes
    words = padded.reshape(groups, 8, width).transpose(0, 2, 1).copy().view("<u8")
    t = np.empty_like(words)
    for shift, mask in _TRANSPOSE_STEPS:  # in place: no temporary per ufunc
        np.right_shift(words, shift, out=t)
        t ^= words
        t &= mask
        words ^= t
        t <<= shift
        words ^= t
    byte = words.view(np.uint8).reshape(groups, 8 * width)[:, :count]
    index = byte[0].astype(np.intp)
    shifted = np.empty_like(index)
    for k in range(1, groups):
        np.left_shift(byte[k], 8 * k, out=shifted, dtype=np.intp)
        index |= shifted
    return index
