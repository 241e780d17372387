"""Full state-vector simulator.

Keeps all 2**n complex amplitudes and views them as an n-axis tensor of
shape (2,)*n, qubit q on axis n-1-q (basis indexing is little-endian
throughout the toolkit: bit i of a basis index holds qubit i). A gate
never builds an index or mask array. Each control of polarity v fixes
its axis to slice(v, v+1), so the amplitudes that fail a control are
not touched and each extra control halves the work. The target axis
then splits into a |0> half and a |1> half, and the gate's 2x2 matrix
mixes the two half views in place:

* X swaps the halves through one half-size temporary;
* Z, S, SDG, T and TDG scale only the |1> half by their phase in
  ``_PHASES`` (-1, i, -i, e^{i pi/4}, e^{-i pi/4});
* H is an add and a subtract written into the halves, and Y a swap
  with phases, each with one half-size temporary.

A (controlled) SWAP of p and q instead exchanges the (p=1, q=0) and
(p=0, q=1) quarter views, so raw and lowered circuits both simulate.
A one-element slice rather than an integer index keeps every
selection a view even when controls and targets fix every axis; an
integer there would make numpy return a scalar copy and lose the write.
The half views are disjoint, which is what licenses updating their
elements in parallel.

A run of X and SWAP gates, with any controls, only permutes basis
states. ``run`` applies each run of at least FUSE_MIN_GATES such gates
on at least FUSE_MIN_QUBITS qubits as one permutation (``_permute``),
moving each amplitude once instead of once per gate: below those sizes
the fixed cost of the step is not repaid. The step holds one half-size
temporary and at most _FUSE_SCRATCH bytes besides, and ``init_state``
counts both. It only moves amplitudes, so ``run`` is bit-identical to
applying every gate with ``apply_gate``.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .ir import BasisOutOfRange  # re-exported
from .ir import Circuit, Gate, GateKind, InputError, QforgeError, check_basis, index_of
from .logic import _ops, run_ops

_SQ2 = 1.0 / math.sqrt(2.0)

# the |1>-half factor of each gate that leaves |0> alone; H and Y are
# written out in apply_gate, and X and SWAP exchange amplitudes
_PHASES: dict[GateKind, complex] = {
    GateKind.Z: -1,
    GateKind.S: 1j,
    GateKind.SDG: -1j,
    GateKind.T: _SQ2 * (1 + 1j),
    GateKind.TDG: _SQ2 * (1 - 1j),
}

# break-even of _permute against apply_gate, measured at 8-20 qubits
FUSE_MIN_GATES = 16
FUSE_MIN_QUBITS = 12
_CHUNK_BITS = 16  # _permute handles 2**16 output indices per plane pass
_FUSE_SCRATCH = 4 << 20  # what _permute holds besides its half-size temporary
# (shift, mask) of the three delta swaps of an 8x8 bit transpose
_TRANSPOSE_STEPS = [
    (7, np.uint64(0x00AA00AA00AA00AA)),
    (14, np.uint64(0x0000CCCC0000CCCC)),
    (28, np.uint64(0x00000000F0F0F0F0)),
]


class StateTooLarge(QforgeError):
    """The amplitudes and one kernel temporary exceed physical memory."""


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray


def init_state(n_qubits: int, basis: int = 0) -> StateVector:
    """State vector with amplitude 1 at the given basis index.

    Raises StateTooLarge, before allocating, when the state, the
    half-size temporary of a gate and the _FUSE_SCRATCH bytes of a
    fused X/SWAP run do not fit in physical memory.
    """
    if n_qubits < 1:
        raise InputError(f"n_qubits must be positive, got {n_qubits}")
    check_basis(basis, n_qubits)
    need = 3 * (np.dtype(complex).itemsize << (n_qubits - 1)) + _FUSE_SCRATCH
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > physical:
        raise StateTooLarge(
            f"{n_qubits} qubits need {need} bytes for the state vector; "
            f"physical memory is {physical} bytes"
        )
    amp = np.zeros(1 << n_qubits, dtype=complex)
    amp[basis] = 1.0
    return StateVector(n_qubits, amp)


def _views(state: StateVector, gate: Gate, *fixes) -> list[np.ndarray]:
    """Views of the amplitudes meeting every control, one per fixing."""
    n = state.n_qubits
    sel = [slice(None)] * n
    for k in gate.controls:
        v = 1 if k.positive else 0
        sel[n - 1 - index_of(k.qubit, n)] = slice(v, v + 1)
    tensor = state.amplitudes.reshape((2,) * n)
    views = []
    for fix in fixes:
        part = sel[:]
        for q, v in fix:  # (qubit, value) pairs
            part[n - 1 - q] = slice(v, v + 1)
        views.append(tensor[tuple(part)])
    return views


def _exchange(a: np.ndarray, b: np.ndarray) -> None:
    tmp = a.copy()
    # a ufunc, not a[...] = b: assignment between views of one buffer
    # first copies b whole, since numpy only checks their bounds overlap
    np.positive(b, out=a)
    b[...] = tmp


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the state.

    Where every control is met, each amplitude pair (|0>, |1>) on the
    target qubit is replaced by its image under the gate matrix, and a
    SWAP exchanges the amplitudes whose two target bits differ; every
    other amplitude is left as it is.
    """
    n = state.n_qubits
    t = index_of(gate.targets[0], n)
    if gate.kind is GateKind.SWAP:
        q = index_of(gate.targets[1], n)
        if t == q:
            raise ValueError("swap targets are identical")
        _exchange(*_views(state, gate, [(t, 1), (q, 0)], [(t, 0), (q, 1)]))
        return state
    lo, hi = _views(state, gate, [(t, 0)], [(t, 1)])
    if gate.kind is GateKind.X:
        _exchange(lo, hi)
    elif gate.kind is GateKind.H:
        tmp = np.multiply(lo, _SQ2)
        hi *= _SQ2
        np.add(tmp, hi, out=lo)
        np.subtract(tmp, hi, out=hi)
    elif gate.kind is GateKind.Y:
        tmp = np.multiply(lo, 1j)
        np.multiply(hi, -1j, out=lo)
        hi[...] = tmp
    else:
        hi *= _PHASES[gate.kind]
    return state


def run(c: Circuit, prep: int = 0) -> StateVector:
    """Prepare the given basis state and apply every gate in order.

    Long X/SWAP runs go through ``_permute`` (see the module docstring),
    every other gate through ``apply_gate``.
    """
    state = init_state(c.n_qubits, prep)
    gates = c.gates
    done = 0
    if c.n_qubits >= FUSE_MIN_QUBITS:
        for start, stop, p in _permutation_runs(gates, c.n_qubits):
            if stop - start >= FUSE_MIN_GATES:
                for g in gates[done:start]:
                    apply_gate(state, g)
                _permute(state, gates[start:stop], p)
                done = stop
    for g in gates[done:]:
        apply_gate(state, g)
    return state


def _permutation_targets(gate: Gate, n: int) -> int:
    """Target bits of an X or SWAP gate on distinct qubits, else 0."""
    if gate.kind is not GateKind.X and gate.kind is not GateKind.SWAP:
        return 0
    refs = list(gate.targets) + [k.qubit for k in gate.controls]
    bits = [1 << index_of(ref, n) for ref in refs]
    if len(set(bits)) < len(bits):
        return 0  # apply_gate keeps its own reading of a repeated qubit
    return sum(bits[: len(gate.targets)])


def _permutation_runs(gates, n: int):
    """Yield ``(start, stop, p)`` for each maximal run of X/SWAP gates
    that leaves a qubit untargeted, p the highest such qubit.

    A gate that would target the last untargeted qubit closes the run
    and starts the next one.
    """
    everything = (1 << n) - 1
    start, targeted = 0, 0
    for i, g in enumerate(gates):
        bits = _permutation_targets(g, n)
        if bits and targeted | bits != everything:
            targeted |= bits
            continue
        if start < i:
            yield start, i, (everything & ~targeted).bit_length() - 1
        start, targeted = (i, bits) if bits and bits != everything else (i + 1, 0)
    if start < len(gates):
        yield start, len(gates), (everything & ~targeted).bit_length() - 1


def _plane_indices(planes: np.ndarray, index: np.ndarray, shifted: np.ndarray) -> None:
    """Write the integer whose bit q is row q of ``planes`` into ``index``.

    ``planes`` has a multiple of 8 rows, packed as ``run_ops`` reads
    them. Each 8-row by 8-input block, as one uint64 word, is
    transposed as an 8x8 bit matrix (bit 8r + i moves to 8i + r), so
    byte i of the word becomes input i's byte of rows 8k to 8k + 7;
    the bytes are then shifted into place.
    """
    groups, width = planes.shape[0] // 8, planes.shape[1]
    words = planes.reshape(groups, 8, width).transpose(0, 2, 1).copy().view("<u8")
    t = np.empty_like(words)
    for shift, mask in _TRANSPOSE_STEPS:  # in place: no temporary per ufunc
        np.right_shift(words, shift, out=t)
        t ^= words
        t &= mask
        words ^= t
        t <<= shift
        words ^= t
    byte = words.view(np.uint8).reshape(groups, 8 * width)[:, :len(index)]
    np.copyto(index, byte[0])
    for k in range(1, groups):
        np.left_shift(byte[k], 8 * k, out=shifted, dtype=index.dtype)
        index |= shifted


def _permute(state: StateVector, gates, p: int) -> None:
    """Apply a run of X/SWAP gates that never targets qubit p at once.

    The run maps each p-half of the state to itself. Each op of
    ``logic._ops`` is an involution, so running the ops in reverse
    (``logic.run_ops``) over bit planes of output indices gives the
    index each output amplitude comes from. A half is gathered with
    ``np.take`` into one half-size temporary, 2**_CHUNK_BITS output
    indices at a time, and then written back.
    """
    n = state.n_qubits
    inverse = _ops(Circuit((), n, tuple(gates)))[::-1]
    half_bits = n - 1
    chunk_bits = min(_CHUNK_BITS, half_bits)
    size = 1 << chunk_bits
    width = max(1, size >> 3)  # bytes per plane row
    # bit b of an index into the half is qubit b below p, b + 1 above
    qubit = [b if b < p else b + 1 for b in range(half_bits)]
    planes = np.zeros((-(-n // 8) * 8, width), np.uint8)
    rows = list(planes[:n])
    # bits 0, 1 and 2 of 0, 1, ..., 7; higher bits in whole bytes
    counting = np.empty((chunk_bits, width), np.uint8)
    counting[:3] = np.array([[0xAA], [0xCC], [0xF0]], np.uint8)[:chunk_bits]
    column = np.arange(width)
    for b in range(3, chunk_bits):
        counting[b] = (column >> (b - 3) & 1) * 0xFF
    index, shifted = np.empty(size, np.intp), np.empty(size, np.intp)
    temp = np.empty(1 << half_bits, dtype=state.amplitudes.dtype)
    tensor = state.amplitudes.reshape((2,) * n)
    for h in (0, 1):
        for chunk in range(1 << (half_bits - chunk_bits)):
            planes[qubit[:chunk_bits]] = counting
            planes[p] = -h & 0xFF
            for b in range(chunk_bits, half_bits):
                planes[qubit[b]] = -(chunk >> (b - chunk_bits) & 1) & 0xFF
            run_ops(inverse, rows)
            _plane_indices(planes, index, shifted)
            out = temp[chunk * size:(chunk + 1) * size]
            # every index is in range; mode="raise" would buffer out
            np.take(state.amplitudes, index, out=out, mode="clip")
        half = tensor[(slice(None),) * (n - 1 - p) + (slice(h, h + 1),)]
        half[...] = temp.reshape(half.shape)


def probabilities(s: StateVector) -> np.ndarray:
    """|amplitude|^2 per basis index; sums to 1 for a normalized state."""
    a = s.amplitudes
    return a.real**2 + a.imag**2
