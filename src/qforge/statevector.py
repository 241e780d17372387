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
* Z, S, SDG, T and TDG scale only the |1> half;
* H is an add and a subtract written into the halves, and Y a swap
  with phases, each with one half-size temporary.

A (controlled) SWAP of p and q instead exchanges the (p=1, q=0) and
(p=0, q=1) quarter views, so raw and lowered circuits both simulate.
A one-element slice rather than an integer index keeps every
selection a view even when controls and targets fix every axis; an
integer there would make numpy return a scalar copy and lose the write.
The half views are disjoint, which is what licenses updating their
elements in parallel.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .ir import Circuit, Gate, GateKind, index_of

_SQ2 = 1.0 / math.sqrt(2.0)

GATE_MATRICES: dict[GateKind, np.ndarray] = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, _SQ2 * (1 + 1j)]], dtype=complex),
    GateKind.TDG: np.array([[1, 0], [0, _SQ2 * (1 - 1j)]], dtype=complex),
}


class BasisOutOfRange(Exception):
    """Requested preparation index does not fit the register."""


class StateTooLarge(Exception):
    """The amplitudes and one kernel temporary exceed physical memory."""


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray


# the |1>-half factor of each gate that leaves |0> alone
_PHASES = {
    kind: u[1, 1]
    for kind, u in GATE_MATRICES.items()
    if u[0, 0] == 1 and u[0, 1] == 0 and u[1, 0] == 0
}


def init_state(n_qubits: int, basis: int = 0) -> StateVector:
    """State vector with amplitude 1 at the given basis index.

    Raises StateTooLarge, before allocating, when the state plus the
    half-size temporary of a gate does not fit in physical memory.
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be positive, got {n_qubits}")
    if not 0 <= basis < (1 << n_qubits):
        raise BasisOutOfRange(
            f"basis index {basis} out of range for {n_qubits} qubits"
        )
    need = 3 * (np.dtype(complex).itemsize << (n_qubits - 1))
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
    """Prepare the given basis state and apply every gate in order."""
    state = init_state(c.n_qubits, prep)
    for g in c.gates:
        apply_gate(state, g)
    return state


def probabilities(s: StateVector) -> np.ndarray:
    """|amplitude|^2 per basis index; sums to 1 for a normalized state."""
    a = s.amplitudes
    return a.real**2 + a.imag**2
