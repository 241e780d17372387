"""Full state-vector simulator.

Keeps all 2**n complex amplitudes and views them as an n-axis tensor of
shape (2,)*n, qubit q on axis n-1-q (basis indexing is little-endian
throughout the toolkit: bit i of a basis index holds qubit i). Every
path reads a gate through ``logic.read_gate``, which refuses one
naming a qubit twice, and a gate never builds an index or mask array.
Each control of polarity v fixes its axis to slice(v, v+1), so the
amplitudes that fail a control are not touched and each extra control
halves the work. The target axis then splits into a |0> half and a |1>
half, and the gate's 2x2 matrix mixes the two half views in place:

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
the fixed cost of the step is not repaid. The step runs the gates on
``logic``'s bit planes and holds one half-size temporary and at most
``logic.PLANE_SCRATCH`` bytes besides; ``init_state`` counts both. It
only moves amplitudes, so it is bit-identical to applying each gate
with ``apply_gate``.

Every run starts from one basis state, and arithmetic circuits keep the
state sparse. So at every width ``run`` first applies gates to the
support alone (``_sparse``): the basis indices (int64) of the entries
the gates have reached, and their amplitudes. X and SWAP
move indices by their ops (``logic.flip_ops``); Z, S, SDG, T and TDG
scale the entries whose target bit is 1 and whose controls hold; Y
moves each fired entry to its partner, times its phase; H pairs each
fired entry with its partner, 0 where absent, and runs
``apply_gate``'s ufuncs on the pairs. Before an H that would take
the support past 2**n >> SPARSE_SHARE_BITS entries, none below six
qubits, and before a gate other than X and SWAP naming every qubit
(see below), the dense loop above takes the remaining gates. The
switch depends on n and the support size only, at a break-even
measured at 8-20 qubits. A support of 2**(n - 6) entries and its
temporaries take under a fifth of the half-size temporary
``init_state`` counts.

A ``StateVector`` holds its support until something reads
``amplitudes``: the first read, by the dense loop or by a caller,
scatters the support into ``np.zeros``, so the array holds the same
bits whenever it is built. A run that stays sparse never builds it,
and its readers go through ``entries``, which lists the support, or
the entries of the array that are not +0 in both parts, by ascending
index. So ``sim`` and ``test`` on a basis-state arithmetic circuit
hold only the support. ``init_state``'s memory check still counts the
whole array: it comes first in ``run``, before any work.

Every sparse product is out of place. numpy 2.4 rounds an in-place
product on a one-element array by another path: for
v = -(1+1j)/sqrt(2), ``a = np.full(1, v); a *= T`` leaves a real part of
0, while ``np.full(1, v) * T`` and every longer array leave -2.2e-17.
``apply_gate`` multiplies a one-element half view in place only for a
gate naming every qubit, which the sparse phase leaves to it. So every
real and imaginary part that is not zero equals the dense loop's bit
for bit, and the states are equal under ``np.array_equal``. A part
that is exactly zero may differ in sign: the dense loop also multiplies
the zeros outside the support, and (0+0j) * -1j is 0-0j.
"""
from __future__ import annotations

import math
import os

import numpy as np

from .ir import BasisOutOfRange  # re-exported
from .ir import Circuit, Gate, GateKind, InputError, QforgeError, check_basis
from .logic import PLANE_SCRATCH, GateReading, flip_ops, plane_indices, read_gate, sweep, translate

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
# break-even of _sparse against the dense loop, measured at 8-20 qubits
SPARSE_SHARE_BITS = 6  # the support stays within 2**n >> 6 entries


class StateTooLarge(QforgeError):
    """The amplitudes and one kernel temporary exceed physical memory."""


class StateVector:
    """The 2**n amplitudes of an n-qubit state, held as an array or as a
    support: basis indices (int64, no index twice) and their amplitudes,
    every other amplitude 0. ``amplitudes`` builds the array from the
    support on first access; ``entries`` reads either form."""

    def __init__(self, n_qubits: int, amplitudes: np.ndarray | None = None,
                 support: tuple[np.ndarray, np.ndarray] | None = None):
        self.n_qubits = n_qubits
        self._dense, self._support = amplitudes, support

    @property
    def amplitudes(self) -> np.ndarray:
        if self._dense is None:
            idx, amp = self._support
            self._dense = np.zeros(1 << self.n_qubits, dtype=complex)
            self._dense[idx] = amp
            self._support = None
        return self._dense

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, amplitudes), indices ascending: the support, or the
        array's entries that are not +0 in both parts. Every basis index
        left out has amplitude +0."""
        if self._dense is not None:
            bits = self._dense.view(np.uint64)
            idx = np.flatnonzero(np.logical_or(bits[::2], bits[1::2]))
            # every entry listed: the array itself, not a copy of it
            return idx, self._dense if len(idx) == len(self._dense) else self._dense[idx]
        idx, amp = self._support
        order = np.argsort(idx, kind="stable")  # adaptive: once sorted, a linear pass
        self._support = idx[order], amp[order]
        return self._support


def init_state(n_qubits: int, basis: int = 0) -> StateVector:
    """State vector with amplitude 1 at the given basis index, held as
    that one-entry support.

    Raises StateTooLarge, before allocating, when the state, the
    half-size temporary of a gate and the PLANE_SCRATCH bytes of a
    fused X/SWAP run do not fit in physical memory.
    """
    if n_qubits < 1:
        raise InputError(f"n_qubits must be positive, got {n_qubits}")
    check_basis(basis, n_qubits)
    need = 3 * (np.dtype(complex).itemsize << (n_qubits - 1)) + PLANE_SCRATCH
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > physical:
        raise StateTooLarge(
            f"{n_qubits} qubits need {need} bytes for the state vector; "
            f"physical memory is {physical} bytes"
        )
    return StateVector(n_qubits, support=(np.array([basis], dtype=np.int64), np.ones(1, complex)))


def _views(state: StateVector, r: GateReading, *fixes) -> list[np.ndarray]:
    """Views of the amplitudes meeting every control, one per fixing."""
    n = state.n_qubits
    sel = [slice(None)] * n
    for q, positive in r.controls:
        sel[n - 1 - q] = slice(1, 2) if positive else slice(0, 1)
    tensor = state.amplitudes.reshape((2,) * n)
    views = []
    for fix in fixes:  # (qubit, value) pairs; every fixing names the same qubits
        for q, v in fix:
            sel[n - 1 - q] = slice(v, v + 1)
        views.append(tensor[tuple(sel)])
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
    r = read_gate(gate, state.n_qubits)
    t = r.targets[0]
    if len(r.targets) == 2:  # a SWAP, the one two-target kind
        q = r.targets[1]
        _exchange(*_views(state, r, [(t, 1), (q, 0)], [(t, 0), (q, 1)]))
        return state
    lo, hi = _views(state, r, [(t, 0)], [(t, 1)])
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

    Gates first act on the state's support (``_sparse``), and a run
    they all act on returns the state holding its support. The dense
    loop takes the rest: long X/SWAP runs go through ``_permute``, every
    other gate through ``apply_gate`` (see the module docstring).
    """
    state = init_state(c.n_qubits, prep)
    gates = c.gates[_sparse(state, c.gates):]
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


def _sparse(state: StateVector, gates) -> int:
    """Apply gates to the support of the basis state ``init_state`` gave
    while the support holds at most 2**n >> SPARSE_SHARE_BITS entries,
    and leave the state holding it; return the number of gates applied.

    The support is the basis indices (int64) and amplitudes of the
    entries the gates have reached. It stops before a gate other than X
    and SWAP naming every qubit, and an H that would pass that size.
    """
    n = state.n_qubits
    everything, limit = (1 << n) - 1, (1 << n) >> SPARSE_SHARE_BITS
    X, SWAP, Y, H = GateKind.X, GateKind.SWAP, GateKind.Y, GateKind.H  # one enum lookup each
    idx, amp = state._support
    for done, g in enumerate(gates):
        r, kind = read_gate(g, n), g.kind
        moves = kind is X or kind is SWAP
        if r.named == everything and not moves:
            break  # apply_gate's rounding differs here: see above
        if moves:
            for mask, want, flip in flip_ops(r):
                np.bitwise_xor(idx, flip, out=idx, where=idx & mask == want)
            continue
        t, mask, want = 1 << r.targets[0], r.mask, r.want
        if kind is Y:  # each fired entry moves to its partner
            lo = idx & (mask | t) == want
            hi = idx & (mask | t) == want | t
            amp[lo], amp[hi] = np.multiply(amp[lo], 1j), np.multiply(amp[hi], -1j)
            idx[lo | hi] ^= t
        elif kind is not H:
            fire = idx & (mask | t) == want | t
            amp[fire] = np.multiply(amp[fire], _PHASES[kind])
        else:  # each fired entry pairs with its partner, 0 where absent
            fire = idx & mask == want
            keep, fired, up = ~fire, amp[fire], idx[fire] & t != 0
            if 0 < np.count_nonzero(up) < len(fired):  # a fired entry may meet its partner
                pairs, slot = np.unique(idx[fire] & ~t, return_inverse=True)
            else:  # all on one side of t: no partner is present, no sort
                pairs, slot = idx[fire] & ~t, np.arange(len(fired))
            if np.count_nonzero(keep) + 2 * len(pairs) > limit:
                break
            lo, hi = np.zeros((2, len(pairs)), dtype=complex)
            lo[slot[~up]], hi[slot[up]] = fired[~up], fired[up]
            tmp, hi = np.multiply(lo, _SQ2), np.multiply(hi, _SQ2)
            idx = np.concatenate((idx[keep], pairs, pairs | t))
            amp = np.concatenate((amp[keep], np.add(tmp, hi), np.subtract(tmp, hi)))
    else:
        done = len(gates)
    state._dense, state._support = None, (idx, amp)
    return done


def _permutation_runs(gates, n: int):
    """Yield ``(start, stop, p)`` for each maximal run of X/SWAP gates
    that leaves a qubit untargeted, p the highest such qubit.

    A gate that would target the last untargeted qubit closes the run
    and starts the next one.
    """
    everything = (1 << n) - 1
    start, targeted = 0, 0
    for i, g in enumerate(gates):
        r = read_gate(g, n) if g.kind is GateKind.X or g.kind is GateKind.SWAP else None
        bits = r.named ^ r.mask if r is not None else 0  # the target bits
        if bits and targeted | bits != everything:
            targeted |= bits
            continue
        if start < i:
            yield start, i, (everything & ~targeted).bit_length() - 1
        start, targeted = (i, bits) if bits and bits != everything else (i + 1, 0)
    if start < len(gates):
        yield start, len(gates), (everything & ~targeted).bit_length() - 1


def _permute(state: StateVector, gates, p: int) -> None:
    """Apply a run of X/SWAP gates that never targets qubit p at once.

    The run maps each p-half of the state to itself. Each op of
    ``logic.translate`` is an involution, so sweeping a half's output
    indices through the ops in reverse gives each amplitude's source
    index; ``np.take`` gathers the half into one half-size temporary,
    2**_CHUNK_BITS indices at a time, and it is written back.
    """
    n = state.n_qubits
    inverse = translate(gates, n)[::-1]
    qubits = [q for q in range(n) if q != p]  # bit b of an index into a half
    temp = np.empty(1 << (n - 1), dtype=state.amplitudes.dtype)
    tensor = state.amplitudes.reshape((2,) * n)
    for h in (0, 1):
        for block, planes in sweep(inverse, n, h << p, qubits, _CHUNK_BITS):
            index = plane_indices(planes, block.stop - block.start)
            # every index is in range; mode="raise" would buffer out
            np.take(state.amplitudes, index, out=temp[block], mode="clip")
        half = tensor[(slice(None),) * (n - 1 - p) + (slice(h, h + 1),)]
        half[...] = temp.reshape(half.shape)


def probabilities(s: StateVector) -> np.ndarray:
    """|amplitude|^2 per basis index; sums to 1 for a normalized state.

    Read through ``entries``: a state held as its support builds this
    float array, never its complex one."""
    idx, amp = s.entries()
    probs = np.zeros(1 << s.n_qubits)
    probs[idx] = amp.real**2 + amp.imag**2
    return probs
