"""Builder combinators: chaining, controls, looping, ladder tiling."""
import random

import pytest

from qforge.ir import (
    BadLadderGeometry,
    BasisOutOfRange,
    Circuit,
    ConflictingRegister,
    Control,
    ControlTargetsOverlap,
    DuplicateControlConflict,
    Gate,
    GateKind,
    Index,
    InputError,
    LengthMismatch,
    Named,
    as_ref,
    ccx,
    chain,
    cnot,
    check_basis,
    ctrl,
    decimal,
    encode_registers,
    h,
    interleave,
    ladder,
    mcx,
    nctrl,
    new_circuit,
    qubits,
    repeat,
    swap,
    with_controls,
    x,
)
from qforge.logic import BasisState, run_logic
from qforge.statevector import init_state

from helpers import random_named_circuit


def test_as_ref_coercion():
    assert as_ref(3) == Index(3)
    assert as_ref(Named("a", 1)) == Named("a", 1)
    with pytest.raises(ValueError):
        as_ref(-1)
    with pytest.raises(TypeError):
        as_ref("a")


def test_gate_arity():
    with pytest.raises(ValueError):
        Gate(GateKind.X, (Index(0), Index(1)))
    with pytest.raises(ValueError):
        Gate(GateKind.SWAP, (Index(0),))


def test_circuit_validation():
    with pytest.raises(ConflictingRegister):
        Circuit((("a", 2), ("a", 2)), 4, ())
    with pytest.raises(ValueError):
        Circuit((("a", 0),), 0, ())
    with pytest.raises(ValueError):
        Circuit((("a", 3),), 2, ())


class TestChain:
    def test_concatenation(self):
        c = chain(x(0), h(1))
        assert [g.kind for g in c.gates] == [GateKind.X, GateKind.H]
        assert c.n_qubits == 2

    def test_identity_element(self):
        c = new_circuit(("a", 2)) + x(Named("a", 0))
        assert chain(c, Circuit()) == c
        assert chain(Circuit(), c) == c

    def test_register_merge(self):
        c = new_circuit(("a", 2)) + new_circuit(("b", 3)) + new_circuit(("a", 2))
        assert c.registers == (("a", 2), ("b", 3))
        assert c.n_qubits == 5

    def test_conflicting_register(self):
        with pytest.raises(ConflictingRegister):
            chain(new_circuit(("a", 2)), new_circuit(("a", 3)))

    def test_associativity_random(self):
        rng = random.Random(7)
        for _ in range(50):
            a = random_named_circuit(rng, max_gates=8)
            b = random_named_circuit(rng, max_gates=8)
            c = random_named_circuit(rng, max_gates=8)
            try:
                left = chain(chain(a, b), c)
                right = chain(a, chain(b, c))
            except ConflictingRegister:
                continue
            assert left == right

    def test_order_preserved(self):
        gates = [x(0), h(1), x(2), ccx(0, 1, 2)]
        c = Circuit()
        for g in gates:
            c = c + g
        assert c.gates == tuple(g.gates[0] for g in gates)


class TestWithControls:
    def test_cnot_definition(self):
        c = with_controls(x(1), [ctrl(0)])
        assert c == cnot(0, 1)

    def test_controls_whole_group(self):
        c = with_controls(x(Named("a", 0)) + x(Named("a", 1)), [nctrl(Named("m", 0))])
        for g in c.gates:
            assert g.controls == (Control(Named("m", 0), False),)

    def test_accumulation(self):
        c = with_controls(with_controls(x(2), [ctrl(0)]), [ctrl(1)])
        (gate,) = c.gates
        assert gate.controls == (Control(Index(0)), Control(Index(1)))

    def test_same_polarity_dedupes(self):
        c = with_controls(cnot(0, 1), [ctrl(0)])
        (gate,) = c.gates
        assert gate.controls == (Control(Index(0)),)

    def test_opposite_polarity_is_error(self):
        with pytest.raises(DuplicateControlConflict):
            with_controls(cnot(0, 1), [nctrl(0)])

    def test_control_on_target_is_error(self):
        with pytest.raises(ControlTargetsOverlap):
            with_controls(x(0) + x(1), [ctrl(1)])

    def test_distributes_over_chain(self):
        rng = random.Random(11)
        for _ in range(40):
            a = random_named_circuit(rng, max_registers=2, max_gates=6)
            b = random_named_circuit(rng, max_registers=2, max_gates=6)
            extra = Named("extra", 0)
            try:
                whole = with_controls(chain(a, b), [ctrl(extra)])
                parts = chain(with_controls(a, [ctrl(extra)]), with_controls(b, [ctrl(extra)]))
            except (ControlTargetsOverlap, DuplicateControlConflict, ConflictingRegister):
                continue
            assert whole == parts


class TestRepeat:
    def test_repeat_twice(self):
        c = repeat(x(0), 2)
        assert len(c.gates) == 2
        assert c.gates[0] == c.gates[1]

    def test_repeat_zero_keeps_register(self):
        base = new_circuit(("a", 2)) + x(Named("a", 0))
        c = repeat(base, 0)
        assert c.gates == ()
        assert c.registers == (("a", 2),)

    def test_double_not_is_identity(self):
        import numpy as np

        from qforge.statevector import run

        c = Circuit((), 1, repeat(x(0), 2).gates)
        assert run_logic(c, BasisState(1, 0)).bits == 0
        np.testing.assert_allclose(run(c, 0).amplitudes, [1, 0], atol=1e-12)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            repeat(x(0), -1)


class TestLadder:
    def test_window_sequence(self):
        seen = []

        def spy(window):
            seen.append(window)
            return x(window[0])

        refs = [Index(i) for i in range(9)]
        ladder(2, 3, spy, refs)
        assert seen == [
            tuple(refs[0:3]),
            tuple(refs[2:5]),
            tuple(refs[4:7]),
            tuple(refs[6:9]),
        ]

    def test_single_window(self):
        refs = [Index(i) for i in range(4)]
        c = ladder(1, 4, lambda w: x(w[3]), refs)
        assert len(c.gates) == 1

    def test_reverse_reverses_window_order_only(self):
        refs = [Index(i) for i in range(5)]

        def block(w):
            return x(w[0]) + h(w[1])

        fwd = ladder(1, 2, block, refs)
        rev = ladder(1, 2, block, refs, reverse=True)
        # four windows of two gates each; window chunks reversed, insides kept
        chunks = [fwd.gates[i : i + 2] for i in range(0, len(fwd.gates), 2)]
        assert rev.gates == tuple(g for chunk in reversed(chunks) for g in chunk)

    def test_bad_geometry(self):
        refs = [Index(i) for i in range(4)]
        with pytest.raises(BadLadderGeometry):
            ladder(2, 3, lambda w: x(w[0]), refs)
        with pytest.raises(BadLadderGeometry):
            ladder(2, 3, lambda w: x(w[0]), refs[:2])
        with pytest.raises(BadLadderGeometry):
            ladder(0, 3, lambda w: x(w[0]), refs)


class TestInterleave:
    def test_basic(self):
        b = qubits("b", 2)
        a = qubits("a", 2)
        assert interleave(b, a) == [b[0], a[0], b[1], a[1]]

    def test_empty(self):
        assert interleave([], []) == []

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch, match="must be identical"):
            interleave(qubits("b", 1), qubits("a", 2))


def test_swap_and_mcx_builders():
    (g,) = swap(0, 1).gates
    assert g.kind is GateKind.SWAP and len(g.targets) == 2
    (g,) = mcx([ctrl(0), nctrl(1)], 2).gates
    assert g.targets == (Index(2),)
    assert g.controls == (Control(Index(0), True), Control(Index(1), False))


class TestBasisRange:
    """One rule decides whether a basis value fits its qubits."""

    def test_every_site_raises_the_one_input_error(self):
        assert issubclass(BasisOutOfRange, InputError)
        register = new_circuit(("a", 4))
        for bad in (
            lambda: BasisState(2, 4),
            lambda: BasisState(2, -1),
            lambda: init_state(3, 8),
            lambda: encode_registers(register, {"a": 10**30}),
            lambda: encode_registers(register, {"a": -1}),
        ):
            with pytest.raises(BasisOutOfRange):
                bad()

    def test_bounds(self):
        assert check_basis(0, 0) == 0
        assert check_basis(15, 4) == 15
        assert encode_registers(new_circuit(("a", 4), ("b", 2)), {"a": 15, "b": 3}) == 63
        with pytest.raises(BasisOutOfRange, match="basis value 16 does not fit 4 qubits"):
            check_basis(16, 4)

    def test_huge_values_and_widths_cost_nothing(self):
        # 2**width is never built, and a value too long for str() is
        # shown by its bit length
        assert check_basis(1, 10**18) == 1
        assert BasisState(10**18, 1).bits == 1
        with pytest.raises(BasisOutOfRange, match="value of 16610 bits does not fit 4"):
            encode_registers(new_circuit(("a", 4)), {"a": 10**5000})


def _read_decimal(digits: str) -> int:
    """The value of ASCII decimal digits, 1,000 at a time: int() refuses
    more than 4,300 at once."""
    value = 0
    for k in range(0, len(digits), 1000):
        chunk = digits[k:k + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


@pytest.mark.parametrize("bits", [0, 1, 64, 2048, 2049, 4096, 14285, 20000, 65536])
def test_decimal_writes_an_int_of_any_size(bits):
    rng = random.Random(bits)
    for value in ((1 << bits) - 1, 1 << bits, rng.getrandbits(bits + 1), 10 ** (bits // 3)):
        text = decimal(value)
        assert text.isascii() and text.isdigit() and (text == "0" or text[0] != "0")
        assert _read_decimal(text) == value
        if value.bit_length() <= 4096:
            assert text == str(value)
