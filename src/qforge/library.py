"""Reference circuits: Cuccaro ripple-carry adders and increment kernels.

The adder is built from the classic MAJ / UNMAJ three-gate blocks tiled
along an interleaved qubit list ``[c, b0, a0, b1, a1, ...]``. The full
adder writes the carry-out to a separate qubit z; the modulo adder
drops the carry and computes b := (a + b) mod 2**width with a and the
carry-in qubit c restored.

Everything here is a pure constructor; the exhaustive addition oracle
in the test suite is the guard against transcription mistakes.
"""
from __future__ import annotations

from enum import Enum
from importlib import resources
from typing import Sequence

from .ir import (
    Circuit,
    CircuitError,
    Named,
    QubitRef,
    as_ref,
    chain,
    cnot,
    ctrl,
    interleave,
    ladder,
    mcx,
    nctrl,
    new_circuit,
    qubits,
    x,
)


class DuplicateOperand(CircuitError):
    """The same qubit was passed twice to a block that needs distinct ones."""


class KOutOfRange(CircuitError):
    """Increment constant does not fit the register width."""


class AdderLayout(Enum):
    """Qubit placement of the modulo adder.

    INTERLEAVED is the natural ladder order, carry at index 0 and the
    two inputs interleaved above it. A_REGISTER_FIRST places the whole
    a register before b (declaration order a, b, c), the re-arranged
    form that makes a and c contiguous for specialization.
    """

    INTERLEAVED = "interleaved"
    A_REGISTER_FIRST = "a_first"


def _distinct(*refs: QubitRef) -> None:
    if len(set(refs)) != len(refs):
        raise DuplicateOperand(f"operands must be distinct, got {refs}")


def maj(x_: int | QubitRef, y_: int | QubitRef, z_: int | QubitRef) -> Circuit:
    """Majority block: CX(z->y), CX(z->x), CCX(x, y -> z).

    On basis states (x=carry-in, y=sum bit, z=addend bit) it leaves the
    majority of the three inputs on z.
    """
    a, b, c = as_ref(x_), as_ref(y_), as_ref(z_)
    _distinct(a, b, c)
    return cnot(c, b) + cnot(c, a) + mcx([a, b], c)


def unmaj(x_: int | QubitRef, y_: int | QubitRef, z_: int | QubitRef) -> Circuit:
    """Inverse majority block: CCX(x, y -> z), CX(z->x), CX(x->y)."""
    a, b, c = as_ref(x_), as_ref(y_), as_ref(z_)
    _distinct(a, b, c)
    return mcx([a, b], c) + cnot(c, a) + cnot(a, b)


def full_add(
    in1: Sequence[int | QubitRef],
    in2: Sequence[int | QubitRef],
    c: int | QubitRef,
    z: int | QubitRef,
) -> Circuit:
    """Generic-width ripple-carry adder: in2 += in1, carry-out on z.

    c is the carry-in (normally |0>) and is restored; in1 is restored.
    Gate structure: a MAJ ladder up the interleaved register, one CNOT
    copying the carry to z, then the UNMAJ ladder back down.
    """
    combined = [as_ref(c)] + interleave(in2, in1)
    up = ladder(2, 3, lambda w: maj(*w), combined)
    down = ladder(2, 3, lambda w: unmaj(*w), combined, reverse=True)
    return up + cnot(in1[-1], z) + down


def cuccaro_full_add(width: int) -> Circuit:
    """Named-register instance over registers a, b, c(1), z(1); b += a."""
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    decl = new_circuit(("a", width), ("b", width), ("c", 1), ("z", 1))
    return decl + full_add(
        qubits("a", width), qubits("b", width), Named("c", 0), Named("z", 0)
    )


def _mod_add_refs(width: int, layout: AdderLayout):
    if layout is AdderLayout.A_REGISTER_FIRST:
        decl = new_circuit(("a", width), ("b", width), ("c", 1))
        return decl, qubits("a", width), qubits("b", width), Named("c", 0)
    # One single-qubit register per wire: the register table is the
    # interleaved order itself, so name resolution reproduces it.
    regs: list[tuple[str, int]] = [("c", 1)]
    for i in range(width):
        regs.append((f"b{i}", 1))
        regs.append((f"a{i}", 1))
    decl = new_circuit(*regs)
    a = [Named(f"a{i}", 0) for i in range(width)]
    b = [Named(f"b{i}", 0) for i in range(width)]
    return decl, a, b, Named("c", 0)


def mod_add(width: int, layout: AdderLayout = AdderLayout.A_REGISTER_FIRST) -> Circuit:
    """Modulo adder: b := (a + b) mod 2**width, a and c restored.

    The top bit needs no majority block: after the MAJ ladder has
    raised the carry into a[width-2], the sum bit is just
    b[w-1] ^= a[w-1] ^ carry, which is two CNOTs.
    """
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    decl, a, b, c = _mod_add_refs(width, layout)
    if width == 1:
        return decl + cnot(a[0], b[0]) + cnot(c, b[0])
    combined = [c] + interleave(b[:-1], a[:-1])
    up = ladder(2, 3, lambda w: maj(*w), combined)
    top = cnot(a[-1], b[-1]) + cnot(a[-2], b[-1])
    down = ladder(2, 3, lambda w: unmaj(*w), combined, reverse=True)
    return decl + up + top + down


def mod_add_layout_permutation(width: int) -> list[int]:
    """Index map from the interleaved layout to the a-first layout.

    perm[i] is where interleaved qubit i lives in the re-arranged
    circuit: both circuits compute the same function once inputs and
    outputs are routed through this permutation.
    """
    perm = [0] * (2 * width + 1)
    perm[0] = 2 * width  # carry
    for i in range(width):
        perm[1 + 2 * i] = width + i  # b_i
        perm[2 + 2 * i] = i  # a_i
    return perm


def _ripple_increment(b: list[Named], j: int, width: int) -> Circuit:
    """Add 2**j to the register: descending multi-controlled NOT chain."""
    out = Circuit()
    for i in range(width - 1, j, -1):
        out = out + mcx([ctrl(b[k]) for k in range(j, i)], b[i])
    return out + x(b[j])


def _inc4_plus2(b: list[Named]) -> Circuit:
    return (
        x(b[2])
        + x(b[1])
        + mcx([nctrl(b[2])], b[3])
        + mcx([nctrl(b[2]), ctrl(b[1])], b[3])
        + mcx([ctrl(b[1])], b[2])
    )


def _inc4_plus3(b: list[Named]) -> Circuit:
    return (
        x(b[2])
        + x(b[1])
        + mcx([nctrl(b[2])], b[3])
        + mcx([nctrl(b[2]), ctrl(b[1]), nctrl(b[0])], b[3])
        + mcx([ctrl(b[1]), nctrl(b[0])], b[2])
        + mcx([ctrl(b[0])], b[1])
        + x(b[0])
    )


def increment_kernel(width: int, k: int) -> Circuit:
    """Circuit over register b mapping |v> to |(v + k) mod 2**width>.

    The width-4 '+2' and '+3' instances use the hand-derived
    mixed-polarity forms that the reduction of the 4-bit modulo adder
    produces; other constants compose one ripple increment per set bit
    of k. All variants are functionally interchangeable.
    """
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    if not 0 <= k < (1 << width):
        raise KOutOfRange(f"k={k} does not fit in {width} bits")
    decl = new_circuit(("b", width))
    b = qubits("b", width)
    if k == 0:
        return decl
    if width == 4 and k == 2:
        return decl + _inc4_plus2(b)
    if width == 4 and k == 3:
        return decl + _inc4_plus3(b)
    out = decl
    for j in range(width):
        if (k >> j) & 1:
            out = out + _ripple_increment(b, j, width)
    return out


def load_fixture(name: str) -> str:
    """Text of a bundled golden circuit or suite file."""
    return (resources.files("qforge") / "fixtures" / name).read_text()


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled fixture (directory installs)."""
    return str(resources.files("qforge") / "fixtures" / name)
