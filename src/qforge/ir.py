"""Circuit intermediate representation and builder combinators.

A circuit is an immutable value: an ordered register table, a qubit
count and an ordered gate list. Combinators never reorder or rewrite
gates, so the list a builder produces is exactly what the simulators
and the lowering passes will see.

Qubits are referred to either by register label and offset (``Named``)
or by absolute position (``Index``). Named references act as symbolic
pointers: they are only turned into indices by the name-resolution
pass, which lets subcircuits be written independently of their final
placement. Anonymous (index-only) qubits and named registers may
coexist in one circuit.

Every message names text from a flag or an input file through
``shown``: quoted up to 64 characters, beyond that by its length.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class QforgeError(Exception):
    """Root of every error that bad input can cause; the CLI exits 1 on it."""


class InputError(QforgeError, ValueError):
    """A value from outside the program (a flag, a prep, a file) is invalid."""


class BasisOutOfRange(InputError):
    """A basis value does not fit the qubits it is meant for."""


def shown(text: str, quote: Callable[[str], str] = repr) -> str:
    """User text for a message; ``quote=str`` gives a qubit name bare."""
    return quote(text) if len(text) <= 64 else f"token of {len(text)} characters"


def decimal(value: int) -> str:
    """``str(value)`` for a non-negative int of any size: str() refuses
    one of over 4,300 digits (the default limit), and a result is
    printed whole whatever its size."""
    if value.bit_length() <= 2048:  # at most 617 digits, under any limit
        return str(value)
    low = value.bit_length() * 3 // 20  # about half its digits
    high, rest = divmod(value, 10**low)
    return decimal(high) + decimal(rest).zfill(low)


# Most qubits a parsed circuit or QP program may declare, and one more
# than the most controls a QP record may carry: every basis value, bit
# string and index map a command builds stays under 64 Ki entries.
MAX_QUBITS = 1 << 16


class CircuitError(QforgeError):
    """Base class for errors raised while building circuits."""


class ConflictingRegister(CircuitError):
    """The same register label was declared more than once."""

    def __init__(self, label: str, size_a: int, size_b: int):
        if size_a == size_b:
            message = f"register {shown(label)} declared twice"
        else:
            message = f"register {shown(label)} declared with sizes {size_a} and {size_b}"
        super().__init__(message)
        self.label = label


class ControlTargetsOverlap(CircuitError):
    """A control qubit is also a target inside the controlled circuit."""


class DuplicateControlConflict(CircuitError):
    """One qubit would control a gate with both polarities at once."""


class BadLadderGeometry(CircuitError):
    """Ladder step/width do not tile the given qubit list."""


class LengthMismatch(CircuitError):
    """Two qubit registers that must have equal length do not."""


class GateKind(Enum):
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    SWAP = "swap"


_SWAP = GateKind.SWAP  # read by every Gate built: a global is cheaper than an enum lookup


@dataclass(frozen=True, slots=True)
class Named:
    """Qubit referenced as an offset into a labelled register."""

    label: str
    offset: int


@dataclass(frozen=True, slots=True)
class Index:
    """Qubit referenced by absolute position in the register."""

    index: int


QubitRef = Named | Index


def as_ref(q: int | QubitRef) -> QubitRef:
    """Coerce a plain int to an Index reference."""
    if isinstance(q, (Named, Index)):
        return q
    if isinstance(q, int) and not isinstance(q, bool):
        if q < 0:
            raise ValueError(f"qubit index must be non-negative, got {q}")
        return Index(q)
    raise TypeError(f"not a qubit reference: {q!r}")


@dataclass(frozen=True, slots=True)
class Control:
    qubit: QubitRef
    positive: bool = True


def ctrl(q: int | QubitRef) -> Control:
    """Positive control: the gate fires when this qubit is |1>."""
    return Control(as_ref(q), True)


def nctrl(q: int | QubitRef) -> Control:
    """Negative control: the gate fires when this qubit is |0>."""
    return Control(as_ref(q), False)


def as_control(c: int | QubitRef | Control) -> Control:
    if isinstance(c, Control):
        return c
    return Control(as_ref(c), True)


@dataclass(frozen=True, slots=True)
class Gate:
    """One primitive operation: kind, target(s) and a control set.

    SWAP carries two targets; every other kind carries exactly one.
    Target/control distinctness is deliberately not enforced here; the
    verifier reports it so that parsed circuits can be diagnosed
    instead of rejected mid-construction.
    """

    kind: GateKind
    targets: tuple[QubitRef, ...]
    controls: tuple[Control, ...] = ()

    def __post_init__(self) -> None:
        want = 2 if self.kind is _SWAP else 1
        if len(self.targets) != want:
            raise ValueError(
                f"{self.kind.value} takes {want} target(s), got {len(self.targets)}"
            )


@dataclass(frozen=True)  # no slots: logic caches by weak reference
class Circuit:
    """Ordered gate list over named registers plus anonymous qubits.

    ``n_qubits`` is always at least the sum of the register sizes; the
    remainder, if any, are anonymous index-only qubits.
    """

    registers: tuple[tuple[str, int], ...] = ()
    n_qubits: int = 0
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        span = 0
        for label, size in self.registers:
            if label in seen:
                raise ConflictingRegister(label, size, size)
            if size < 1:
                raise ValueError(f"register {shown(label)} must have positive size")
            seen.add(label)
            span += size
        if self.n_qubits < span:
            raise ValueError(
                f"n_qubits={self.n_qubits} smaller than register span {span}"
            )

    def __add__(self, other: "Circuit") -> "Circuit":
        return chain(self, other)

    @property
    def register_span(self) -> int:
        return sum(size for _, size in self.registers)


def register_bases(c: Circuit) -> dict[str, tuple[int, int]]:
    """Map register label -> (base index, size), in declaration order."""
    out: dict[str, tuple[int, int]] = {}
    base = 0
    for label, size in c.registers:
        out[label] = (base, size)
        base += size
    return out


def encode_registers(c: Circuit, values: dict[str, int]) -> int:
    """Basis index with each named register holding its value, the rest 0."""
    bases = register_bases(c)
    bits = 0
    for label, value in values.items():
        entry = bases.get(label)
        if entry is None:
            raise InputError(f"prep names unknown register {shown(label)}")
        base, size = entry
        bits |= check_basis(value, size, f"register {shown(label)} value") << base
    return bits


def check_basis(value: int, width: int, what: str = "basis value") -> int:
    """The value, if it is a width-qubit basis value; never builds 2**width."""
    if value < 0 or value.bit_length() > width:
        # str() of an int of thousands of digits raises ValueError
        number = value if value.bit_length() <= 64 else f"of {value.bit_length()} bits"
        raise BasisOutOfRange(f"{what} {number} does not fit {width} qubits")
    return value


def decode_registers(c: Circuit, bits: int) -> dict[str, int]:
    """Each named register's value in a basis index, in declaration order."""
    return {
        label: (bits >> base) & ((1 << size) - 1)
        for label, (base, size) in register_bases(c).items()
    }


def index_of(ref: QubitRef, n: int) -> int:
    """Position of a resolved reference, checked against n qubits."""
    if not isinstance(ref, Index):
        raise ValueError(f"unresolved qubit reference {ref}; run resolve_names first")
    if not 0 <= ref.index < n:
        raise ValueError(f"qubit index {ref.index} out of range for {n} qubits")
    return ref.index


def map_shared(f: Callable[[int, T], R], items: Sequence[T]) -> list[R]:
    """``[f(i, x) for i, x in enumerate(items)]``, calling f only at the
    first occurrence i of each object (told apart by ``id()``, which
    items keeps from being reused); its repeats share that result, and
    an error names the first occurrence."""
    done: dict[int, R] = {}
    out: list[R] = []
    for i, x in enumerate(items):
        key = id(x)
        if key not in done:
            done[key] = f(i, x)
        out.append(done[key])
    return out


def new_circuit(*registers: tuple[str, int], n_qubits: int = 0) -> Circuit:
    """Declaration-only circuit over the given registers.

    Extra anonymous qubits can be requested with ``n_qubits``.
    """
    regs = tuple((label, size) for label, size in registers)
    span = sum(size for _, size in regs)
    return Circuit(regs, max(span, n_qubits), ())


def qubits(label: str, size: int) -> list[Named]:
    """References to every qubit of a register, offset-ascending."""
    return [Named(label, i) for i in range(size)]


def _anon_span(refs: Sequence[QubitRef]) -> int:
    n = 0
    for r in refs:
        if isinstance(r, Index):
            n = max(n, r.index + 1)
    return n


def _gate_circuit(
    kind: GateKind,
    targets: Sequence[int | QubitRef],
    controls: Sequence[int | QubitRef | Control] = (),
) -> Circuit:
    tgts = tuple(as_ref(t) for t in targets)
    ctls = tuple(as_control(k) for k in controls)
    n = _anon_span(list(tgts) + [k.qubit for k in ctls])
    return Circuit((), n, (Gate(kind, tgts, ctls),))


def x(q: int | QubitRef) -> Circuit:
    return _gate_circuit(GateKind.X, (q,))


def y(q: int | QubitRef) -> Circuit:
    return _gate_circuit(GateKind.Y, (q,))


def z(q: int | QubitRef) -> Circuit:
    return _gate_circuit(GateKind.Z, (q,))


def h(q: int | QubitRef) -> Circuit:
    return _gate_circuit(GateKind.H, (q,))


def s(q: int | QubitRef) -> Circuit:
    return _gate_circuit(GateKind.S, (q,))


def sdg(q: int | QubitRef) -> Circuit:
    return _gate_circuit(GateKind.SDG, (q,))


def t(q: int | QubitRef) -> Circuit:
    return _gate_circuit(GateKind.T, (q,))


def tdg(q: int | QubitRef) -> Circuit:
    return _gate_circuit(GateKind.TDG, (q,))


def swap(a: int | QubitRef, b: int | QubitRef) -> Circuit:
    return _gate_circuit(GateKind.SWAP, (a, b))


def cnot(control: int | QubitRef, target: int | QubitRef) -> Circuit:
    return _gate_circuit(GateKind.X, (target,), (control,))


def ccx(c1: int | QubitRef, c2: int | QubitRef, target: int | QubitRef) -> Circuit:
    return _gate_circuit(GateKind.X, (target,), (c1, c2))


def mcx(
    controls: Sequence[int | QubitRef | Control], target: int | QubitRef
) -> Circuit:
    """NOT with an arbitrary control set (mixed polarity allowed)."""
    return _gate_circuit(GateKind.X, (target,), tuple(controls))


def chain(c1: Circuit, c2: Circuit) -> Circuit:
    """Concatenate two circuits: c1's gates, then c2's.

    Registers merge by label; declaring the same label with two sizes
    is an error. The empty circuit is a two-sided identity.
    """
    regs = list(c1.registers)
    sizes = dict(c1.registers)
    for label, size in c2.registers:
        if label in sizes:
            if sizes[label] != size:
                raise ConflictingRegister(label, sizes[label], size)
        else:
            regs.append((label, size))
            sizes[label] = size
    span = sum(sizes.values())
    n = max(c1.n_qubits, c2.n_qubits, span)
    return Circuit(tuple(regs), n, c1.gates + c2.gates)


def with_controls(
    c: Circuit, controls: Sequence[int | QubitRef | Control]
) -> Circuit:
    """Add the given controls to every gate of the circuit.

    Controls accumulate with any a gate already carries. A duplicate of
    an existing control with the same polarity is dropped; the same
    qubit with opposite polarities is an error, because such a gate
    could never fire and silently keeping it would hide a bug.
    """
    new = [as_control(k) for k in controls]
    targets = {t for g in c.gates for t in g.targets}
    for k in new:
        if k.qubit in targets:
            raise ControlTargetsOverlap(
                f"control qubit {k.qubit} is a gate target inside the circuit"
            )
    out = []
    for g in c.gates:
        merged = list(g.controls)
        polarity = {k.qubit: k.positive for k in merged}
        for k in new:
            if k.qubit in polarity:
                if polarity[k.qubit] != k.positive:
                    raise DuplicateControlConflict(
                        f"qubit {k.qubit} used as both positive and negative control"
                    )
                continue
            merged.append(k)
            polarity[k.qubit] = k.positive
        out.append(Gate(g.kind, g.targets, tuple(merged)))
    n = max(c.n_qubits, _anon_span([k.qubit for k in new]))
    return Circuit(c.registers, n, tuple(out))


def repeat(c: Circuit, k: int) -> Circuit:
    """The circuit's gate list repeated k times, k >= 0."""
    if k < 0:
        raise ValueError(f"repeat count must be non-negative, got {k}")
    return Circuit(c.registers, c.n_qubits, c.gates * k)


def ladder(
    step: int,
    width: int,
    builder: Callable[[tuple[QubitRef, ...]], Circuit],
    qubit_list: Sequence[int | QubitRef],
    reverse: bool = False,
) -> Circuit:
    """Tile a subcircuit along overlapping windows of a qubit list.

    Windows of ``width`` qubits start at offsets 0, step, 2*step, ...
    and the last window must end exactly at the end of the list. The
    builder is applied to each window and the results are chained in
    window order, or reverse window order when ``reverse`` is set (each
    window's internal gate order is preserved either way).
    """
    refs = [as_ref(q) for q in qubit_list]
    if step < 1 or width < 1:
        raise BadLadderGeometry(f"step={step} and width={width} must be positive")
    if len(refs) < width or (len(refs) - width) % step != 0:
        raise BadLadderGeometry(
            f"{len(refs)} qubits cannot be tiled with width {width} and step {step}"
        )
    windows = [
        tuple(refs[off : off + width])
        for off in range(0, len(refs) - width + 1, step)
    ]
    if reverse:
        windows.reverse()
    out = Circuit()
    for w in windows:
        out = chain(out, builder(w))
    return out


def interleave(
    r1: Sequence[int | QubitRef], r2: Sequence[int | QubitRef]
) -> list[QubitRef]:
    """[r1[0], r2[0], r1[1], r2[1], ...] for equal-length lists."""
    if len(r1) != len(r2):
        raise LengthMismatch("Input qubit register lengths must be identical.")
    out: list[QubitRef] = []
    for a, b in zip(r1, r2):
        out.append(as_ref(a))
        out.append(as_ref(b))
    return out
