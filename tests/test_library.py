"""Adder blocks and increment kernels against classical arithmetic."""
import itertools
from importlib import resources

import pytest

from qforge.ir import Circuit, Index, LengthMismatch, Named
from qforge.library import (
    AdderLayout,
    DuplicateOperand,
    KOutOfRange,
    cuccaro_full_add,
    full_add,
    increment_kernel,
    load_fixture,
    maj,
    mod_add,
    mod_add_layout_permutation,
    unmaj,
)
from qforge.logic import BasisState, logic_function, run_logic
from qforge.passes import resolve_names, verify
from qforge.source import parse_source, print_source


def fixture_names() -> set[str]:
    """Every bundled .fqt file, whether or not a builder produces it."""
    directory = resources.files("qforge") / "fixtures"
    return {f.name for f in directory.iterdir() if f.name.endswith(".fqt")}


def bits_of(value: int, base: int, size: int) -> int:
    return (value >> base) & ((1 << size) - 1)


class TestMajUnmaj:
    def test_gate_lists(self):
        c = maj(0, 1, 2)
        assert [g.targets[0].index for g in c.gates] == [1, 0, 2]
        u = unmaj(0, 1, 2)
        assert [g.targets[0].index for g in u.gates] == [2, 0, 1]

    def test_maj_then_unmaj_completes_the_sum(self):
        # the pair restores x and z and leaves y ^= x ^ z: that is the
        # sum bit the adder needs, and why the ripple structure works
        c = Circuit((), 3, (maj(0, 1, 2) + unmaj(0, 1, 2)).gates)
        for v in range(8):
            out = run_logic(c, BasisState(3, v)).bits
            b0, b1, b2 = v & 1, (v >> 1) & 1, (v >> 2) & 1
            assert out & 1 == b0
            assert (out >> 2) & 1 == b2
            assert (out >> 1) & 1 == b1 ^ b0 ^ b2

    def test_maj_leaves_majority_on_third_operand(self):
        c = Circuit((), 3, maj(0, 1, 2).gates)
        for v in range(8):
            out = run_logic(c, BasisState(3, v)).bits
            b0, b1, b2 = v & 1, (v >> 1) & 1, (v >> 2) & 1
            majority = (b0 & b1) | (b0 & b2) | (b1 & b2)
            assert (out >> 2) & 1 == majority

    def test_unmaj_fixes_zero(self):
        c = Circuit((), 3, unmaj(0, 1, 2).gates)
        assert run_logic(c, BasisState(3, 0)).bits == 0

    def test_duplicate_operand(self):
        with pytest.raises(DuplicateOperand):
            maj(0, 0, 1)


class TestFullAdd:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
    def test_exhaustive_addition(self, width):
        circuit, _ = resolve_names(cuccaro_full_add(width))
        step = logic_function(circuit)
        for a, b in itertools.product(range(1 << width), repeat=2):
            out = step(a | (b << width))
            assert bits_of(out, width, width) == (a + b) % (1 << width)
            assert bits_of(out, 2 * width + 1, 1) == (a + b) >> width  # carry on z
            assert bits_of(out, 0, width) == a  # a restored
            assert bits_of(out, 2 * width, 1) == 0  # c restored

    def test_structure_matches_ladder_plus_cnot_plus_reverse(self):
        from qforge.ir import chain, cnot, interleave, ladder, qubits

        a = qubits("a", 4)
        b = qubits("b", 4)
        c, z = Named("c", 0), Named("z", 0)
        combined = [c] + interleave(b, a)
        expected = chain(
            chain(ladder(2, 3, lambda w: maj(*w), combined), cnot(a[-1], z)),
            ladder(2, 3, lambda w: unmaj(*w), combined, reverse=True),
        )
        assert full_add(a, b, c, z).gates == expected.gates

    def test_length_mismatch_message(self):
        with pytest.raises(
            LengthMismatch, match="Input qubit register lengths must be identical."
        ):
            full_add([Index(0)], [Index(1), Index(2)], Index(3), Index(4))

    def test_verifies_cleanly(self):
        assert verify(cuccaro_full_add(4)) == []


class TestModAdd:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
    def test_exhaustive_modular_addition(self, width):
        circuit, _ = resolve_names(mod_add(width))
        step = logic_function(circuit)
        for a, b in itertools.product(range(1 << width), repeat=2):
            out = step(a | (b << width))
            assert bits_of(out, width, width) == (a + b) % (1 << width)
            assert bits_of(out, 0, width) == a
            assert bits_of(out, 2 * width, 1) == 0

    def test_add_zero_fixes_b(self):
        circuit, _ = resolve_names(mod_add(4))
        step = logic_function(circuit)
        for b in range(16):
            assert bits_of(step(b << 4), 4, 4) == b

    @pytest.mark.parametrize("width", [2, 4, 6])
    def test_matches_full_add_without_carry(self, width):
        modular = logic_function(resolve_names(mod_add(width))[0])
        full = logic_function(resolve_names(cuccaro_full_add(width))[0])
        for a, b in itertools.product(range(1 << width), repeat=2):
            v = a | (b << width)
            assert bits_of(modular(v), width, width) == bits_of(full(v), width, width)

    def test_interleaved_layout_registers(self):
        c = mod_add(4, AdderLayout.INTERLEAVED)
        assert c.registers[0] == ("c", 1)
        assert c.registers[1] == ("b0", 1)
        assert c.registers[2] == ("a0", 1)
        assert c.n_qubits == 9

    def test_layouts_agree_under_permutation(self):
        width = 4
        perm = mod_add_layout_permutation(width)
        interleaved = logic_function(
            resolve_names(mod_add(width, AdderLayout.INTERLEAVED))[0]
        )
        rearranged = logic_function(
            resolve_names(mod_add(width, AdderLayout.A_REGISTER_FIRST))[0]
        )

        def route(bits: int) -> int:
            out = 0
            for i, j in enumerate(perm):
                out |= ((bits >> i) & 1) << j
            return out

        for v in range(1 << (2 * width + 1)):
            assert route(interleaved(v)) == rearranged(route(v))

    def test_same_gate_count_across_layouts(self):
        assert len(mod_add(4, AdderLayout.INTERLEAVED).gates) == len(
            mod_add(4, AdderLayout.A_REGISTER_FIRST).gates
        )


class TestIncrementKernel:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_all_constants_exhaustive(self, width):
        for k in range(1 << width):
            circuit, _ = resolve_names(increment_kernel(width, k))
            step = logic_function(circuit)
            for v in range(1 << width):
                assert step(v) == (v + k) % (1 << width), (width, k, v)

    def test_zero_is_empty(self):
        c = increment_kernel(4, 0)
        assert c.gates == ()
        assert c.registers == (("b", 4),)

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRange):
            increment_kernel(4, 16)

    def test_width4_small_constants_use_mixed_polarity(self):
        for k in (2, 3):
            c = increment_kernel(4, k)
            assert any(not ctl.positive for g in c.gates for ctl in g.controls)

    def test_spot_values(self):
        inc1 = logic_function(resolve_names(increment_kernel(4, 1))[0])
        assert inc1(15) == 0
        inc2 = logic_function(resolve_names(increment_kernel(4, 2))[0])
        assert inc2(7) == 9

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_matches_reduced_adder_kernels(self, width):
        from qforge.reduction import generate_kernels

        adder, _ = resolve_names(mod_add(width))
        qubit_list = list(range(width)) + [2 * width]  # a register, then c
        for k in range(1 << width):
            value = [(k >> i) & 1 for i in range(width)] + [0]
            report = generate_kernels(adder, qubit_list, [value])
            assert report.ok
            reduced = logic_function(report.kernels[0].circuit)
            fixture = logic_function(resolve_names(increment_kernel(width, k))[0])
            for v in range(1 << width):
                assert reduced(v) == fixture(v) == (v + k) % (1 << width)


class TestGoldenFixtures:
    def test_files_match_builders(self):
        builders = {
            "cuccaro_fulladd4.fqt": cuccaro_full_add(4),
            "cuccaro_modadd4_original.fqt": mod_add(4, AdderLayout.INTERLEAVED),
            "cuccaro_modadd4_rearranged.fqt": mod_add(4, AdderLayout.A_REGISTER_FIRST),
            "inc4_k1.fqt": increment_kernel(4, 1),
            "inc4_k2.fqt": increment_kernel(4, 2),
            "inc4_k3.fqt": increment_kernel(4, 3),
        }
        assert set(builders) == set(fixture_names())
        for name, circuit in builders.items():
            assert load_fixture(name) == print_source(circuit), name

    def test_fixtures_parse_and_round_trip(self):
        for name in fixture_names():
            text = load_fixture(name)
            circuit = parse_source(text)
            assert verify(circuit) == []
            assert print_source(circuit) == text
