"""Shared random-circuit generators and independent oracles.

The oracles here deliberately avoid the code paths they are used to
check: the dense matrix oracle enumerates basis columns instead of
strided pairs, and the arithmetic oracles are plain Python integers.
"""
from __future__ import annotations

import cmath
import math
import random

import numpy as np

from qforge.ir import Circuit, Control, Gate, GateKind, Index, Named, new_circuit

# textbook 2x2 matrices, written apart from the simulator's phase table
_H = 1 / math.sqrt(2)
_T = cmath.exp(1j * math.pi / 4)
GATE_MATRICES: dict[GateKind, np.ndarray] = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[_H, _H], [_H, -_H]], dtype=complex),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, _T]], dtype=complex),
    GateKind.TDG: np.array([[1, 0], [0, _T.conjugate()]], dtype=complex),
}

ALL_KINDS = list(GateKind)
NON_SWAP_KINDS = [k for k in ALL_KINDS if k is not GateKind.SWAP]


def random_indexed_circuit(
    rng: random.Random,
    n_qubits: int,
    n_gates: int,
    kinds=ALL_KINDS,
    max_controls: int = 3,
    p_negative: float = 0.3,
) -> Circuit:
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind is GateKind.SWAP and n_qubits < 2:
            kind = GateKind.X
        n_targets = 2 if kind is GateKind.SWAP else 1
        want = n_targets + rng.randint(0, max_controls)
        qs = rng.sample(range(n_qubits), min(n_qubits, want))
        targets = tuple(Index(q) for q in qs[:n_targets])
        controls = tuple(
            Control(Index(q), rng.random() >= p_negative) for q in qs[n_targets:]
        )
        gates.append(Gate(kind, targets, controls))
    return Circuit((), n_qubits, tuple(gates))


def random_x_circuit(
    rng: random.Random,
    n_qubits: int,
    n_gates: int,
    max_controls: int = 3,
    p_negative: float = 0.3,
) -> Circuit:
    return random_indexed_circuit(
        rng, n_qubits, n_gates, kinds=[GateKind.X], max_controls=max_controls,
        p_negative=p_negative,
    )


_LABELS = ["a", "b", "c", "r", "q", "work"]


def random_named_circuit(
    rng: random.Random,
    max_registers: int = 3,
    max_size: int = 4,
    max_gates: int = 50,
) -> Circuit:
    labels = rng.sample(_LABELS, rng.randint(1, max_registers))
    registers = [(label, rng.randint(1, max_size)) for label in labels]
    pool = [Named(label, i) for label, size in registers for i in range(size)]
    gates = []
    for _ in range(rng.randint(0, max_gates)):
        kind = rng.choice(ALL_KINDS)
        if kind is GateKind.SWAP and len(pool) < 2:
            kind = GateKind.X
        n_targets = 2 if kind is GateKind.SWAP else 1
        want = n_targets + rng.randint(0, 3)
        refs = rng.sample(pool, min(len(pool), want))
        targets = tuple(refs[:n_targets])
        controls = tuple(
            Control(ref, rng.random() >= 0.3) for ref in refs[n_targets:]
        )
        gates.append(Gate(kind, targets, controls))
    return new_circuit(*registers) + Circuit((), 0, tuple(gates))


def dense_gate_matrix(g: Gate, n: int) -> np.ndarray:
    """Full 2**n matrix of one gate, built column by column."""
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        satisfied = all(
            ((j >> k.qubit.index) & 1) == (1 if k.positive else 0)
            for k in g.controls
        )
        if not satisfied:
            m[j, j] = 1.0
            continue
        if g.kind is GateKind.SWAP:
            p = g.targets[0].index
            q = g.targets[1].index
            i = j
            if ((j >> p) ^ (j >> q)) & 1:
                i = j ^ ((1 << p) | (1 << q))
            m[i, j] = 1.0
        else:
            u = GATE_MATRICES[g.kind]
            t = g.targets[0].index
            b = (j >> t) & 1
            m[j & ~(1 << t), j] = u[0, b]
            m[j | (1 << t), j] = u[1, b]
    return m


def dense_unitary(c: Circuit) -> np.ndarray:
    """Dense product of the whole circuit; independent of the simulator."""
    u = np.eye(1 << c.n_qubits, dtype=complex)
    for g in c.gates:
        u = dense_gate_matrix(g, c.n_qubits) @ u
    return u


def norm(v: np.ndarray) -> float:
    return float(np.sqrt(np.sum(v.real**2 + v.imag**2)))


def pair_swap_synthesis(perm: list[int]) -> Circuit:
    """Transformation-based synthesis on a table and its inverse.

    The oracle for ``reduction.synthesize_from_permutation``: the same
    Miller-Maslov-Dueck walk, kept as the permutation ``f`` and its
    inverse ``g``, where a fix with target bit j and control mask c
    swaps the images of the 2**(m-|c|-1) value pairs (y, y | 1<<j) with
    y containing c. ``perm`` must be a permutation of range(2**m).
    """
    size = len(perm)
    m = size.bit_length() - 1
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
    gates = tuple(
        Gate(GateKind.X, (Index(j),),
             tuple(Control(Index(b)) for b in range(m) if (mask >> b) & 1))
        for j, mask in reversed(fixes)
    )
    return Circuit((), m, gates)
