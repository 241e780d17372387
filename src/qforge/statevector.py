"""Full state-vector simulator.

Keeps all 2**n complex amplitudes and updates every one of them per
gate: amplitudes are paired across the target bit, so the pair stride
is 2**target, and each pair is mixed by the gate's 2x2 matrix. Controls
(positive or negative) filter which pairs are touched; the index pairs
are disjoint, which is what would license applying them in parallel.

Basis indexing is little-endian throughout the toolkit: bit i of a
basis index holds qubit i.
"""
from __future__ import annotations

import math
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


class UnloweredSwap(Exception):
    """A SWAP gate reached the pairwise 2x2 update kernel."""


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())


_INDEX_CACHE: dict[int, np.ndarray] = {}


def _indices(n: int) -> np.ndarray:
    cached = _INDEX_CACHE.get(n)
    if cached is None:
        cached = np.arange(1 << n, dtype=np.int64)
        _INDEX_CACHE[n] = cached
    return cached


def init_state(n_qubits: int, basis: int = 0) -> StateVector:
    """State vector with amplitude 1 at the given basis index."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be positive, got {n_qubits}")
    if not 0 <= basis < (1 << n_qubits):
        raise BasisOutOfRange(
            f"basis index {basis} out of range for {n_qubits} qubits"
        )
    amp = np.zeros(1 << n_qubits, dtype=complex)
    amp[basis] = 1.0
    return StateVector(n_qubits, amp)


def _control_mask(idx: np.ndarray, gate: Gate, n: int, base_mask: np.ndarray):
    mask = base_mask
    for k in gate.controls:
        cq = index_of(k.qubit, n)
        bit = (idx >> cq) & 1
        mask = mask & (bit == (1 if k.positive else 0))
    return mask


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one non-SWAP gate in place and return the state.

    For every index j whose target bit is 0 and whose control bits are
    satisfied, the amplitude pair (j, j + 2**target) is replaced by its
    image under the gate matrix.
    """
    if gate.kind is GateKind.SWAP:
        raise UnloweredSwap("SWAP has no 2x2 matrix; lower it or use run()")
    n = state.n_qubits
    t = index_of(gate.targets[0], n)
    u = GATE_MATRICES[gate.kind]
    idx = _indices(n)
    mask = _control_mask(idx, gate, n, (idx >> t) & 1 == 0)
    j = idx[mask]
    jp = j | (1 << t)
    amp = state.amplitudes
    a = amp[j]
    b = amp[jp]
    amp[j] = u[0, 0] * a + u[0, 1] * b
    amp[jp] = u[1, 0] * a + u[1, 1] * b
    return state


def apply_swap(state: StateVector, gate: Gate) -> StateVector:
    """Apply a (controlled) SWAP in place as an exact index permutation."""
    if gate.kind is not GateKind.SWAP:
        raise ValueError(f"not a swap gate: {gate.kind.value}")
    n = state.n_qubits
    p = index_of(gate.targets[0], n)
    q = index_of(gate.targets[1], n)
    if p == q:
        raise ValueError("swap targets are identical")
    idx = _indices(n)
    base = ((idx >> p) & 1 == 1) & ((idx >> q) & 1 == 0)
    mask = _control_mask(idx, gate, n, base)
    i = idx[mask]
    j = i ^ ((1 << p) | (1 << q))
    amp = state.amplitudes
    amp[i], amp[j] = amp[j], amp[i]
    return state


def run(c: Circuit, prep: int = 0) -> StateVector:
    """Prepare the given basis state and apply every gate in order.

    SWAP gates are dispatched to the permutation kernel, so both raw
    and lowered circuits simulate; everything else goes through the
    pairwise update.
    """
    state = init_state(c.n_qubits, prep)
    for g in c.gates:
        if g.kind is GateKind.SWAP:
            apply_swap(state, g)
        else:
            apply_gate(state, g)
    return state


def probabilities(s: StateVector) -> np.ndarray:
    """|amplitude|^2 per basis index; sums to 1 for a normalized state."""
    a = s.amplitudes
    return a.real**2 + a.imag**2
