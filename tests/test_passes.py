"""Verification and lowering passes: structure, soundness, idempotence."""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge.ir import (
    MAX_QUBITS,
    Circuit,
    Control,
    Gate,
    GateKind,
    Index,
    InputError,
    Named,
    new_circuit,
    x,
)
from qforge.library import cuccaro_full_add, mod_add
from qforge.logic import BasisState, logic_function, run_logic
from qforge.passes import (
    CompileError,
    PassConfig,
    checked,
    compile_circuit,
    expand_multi_controls,
    lower,
    lower_negative_controls,
    lower_swaps,
    resolve_names,
    verify,
)
from qforge.qp import emit_qp, to_circuit
from qforge.statevector import run

from helpers import random_indexed_circuit


def mcx_gate(controls, target, polarities=None):
    polarities = polarities or [True] * len(controls)
    return Gate(
        GateKind.X,
        (Index(target),),
        tuple(Control(Index(q), p) for q, p in zip(controls, polarities)),
    )


class TestVerify:
    def test_out_of_range_index(self):
        c = Circuit((), 4, (Gate(GateKind.X, (Index(5),)),))
        (d,) = verify(c)
        assert "out of range" in d.message
        assert d.gate_index == 0

    def test_out_of_range_offset(self):
        c = new_circuit(("q", 2)) + x(Named("q", 2))
        (d,) = verify(c)
        assert "out of range" in d.message

    def test_undeclared_register(self):
        c = new_circuit(("q", 2)) + x(Named("r", 0))
        (d,) = verify(c)
        assert "undeclared" in d.message

    def test_target_used_as_control(self):
        c = Circuit((), 2, (mcx_gate([0], 0),))
        (d,) = verify(c)
        assert "used as a control" in d.message

    def test_duplicate_control(self):
        c = Circuit((), 3, (mcx_gate([1, 1], 0),))
        (d,) = verify(c)
        assert "duplicate control" in d.message

    def test_conflicting_polarities(self):
        c = Circuit((), 3, (mcx_gate([1, 1], 0, [True, False]),))
        (d,) = verify(c)
        assert "both a positive and a negative" in d.message

    def test_swap_identical_targets(self):
        c = Circuit((), 2, (Gate(GateKind.SWAP, (Index(1), Index(1))),))
        (d,) = verify(c)
        assert "identical" in d.message

    def test_full_adder_is_clean(self):
        assert verify(cuccaro_full_add(4)) == []

    def test_well_formed_corpus_is_clean(self):
        from helpers import random_named_circuit

        rng = random.Random(14)
        for _ in range(100):
            assert verify(random_named_circuit(rng)) == []


class TestResolveNames:
    def test_declaration_order_mapping(self):
        c = new_circuit(("a", 2), ("b", 1)) + x(Named("b", 0)) + x(Named("a", 1))
        resolved, table = resolve_names(c)
        assert table == {("a", 0): 0, ("a", 1): 1, ("b", 0): 2}
        assert [g.targets[0] for g in resolved.gates] == [Index(2), Index(1)]

    def test_idempotent_on_indexed(self):
        rng = random.Random(3)
        c = random_indexed_circuit(rng, 5, 10)
        resolved, _ = resolve_names(c)
        assert resolved == c

    def test_rearranged_adder_layout(self):
        # declaring a, b, c in that order puts a at 0..3, b at 4..7, c at 8
        _, table = resolve_names(mod_add(4))
        assert table[("a", 0)] == 0
        assert table[("a", 3)] == 3
        assert table[("b", 0)] == 4
        assert table[("c", 0)] == 8


class TestLowerSwaps:
    def test_plain_swap_becomes_three_cnots(self):
        c = Circuit((), 2, (Gate(GateKind.SWAP, (Index(0), Index(1))),))
        lowered = lower_swaps(c)
        assert [g.kind for g in lowered.gates] == [GateKind.X] * 3
        assert [g.targets[0].index for g in lowered.gates] == [1, 0, 1]
        assert [g.controls[0].qubit.index for g in lowered.gates] == [0, 1, 0]

    def test_controlled_swap_permutation(self):
        # brute force over all 3-qubit basis states against the bit-swap law
        g = Gate(GateKind.SWAP, (Index(0), Index(1)), (Control(Index(2)),))
        lowered = lower_swaps(Circuit((), 3, (g,)))
        assert all(gate.kind is GateKind.X for gate in lowered.gates)
        for v in range(8):
            got = run_logic(lowered, BasisState(3, v)).bits
            want = v
            if v >> 2 & 1 and (v ^ (v >> 1)) & 1:
                want = v ^ 0b011
            assert got == want

    def test_swap_free_circuit_unchanged(self):
        rng = random.Random(4)
        c = random_indexed_circuit(
            rng, 5, 15, kinds=[k for k in GateKind if k is not GateKind.SWAP]
        )
        assert lower_swaps(c) == c

    def test_idempotent(self):
        rng = random.Random(5)
        c = random_indexed_circuit(rng, 5, 15)
        once = lower_swaps(c)
        assert lower_swaps(once) == once


class TestLowerNegativeControls:
    def test_single_negative(self):
        c = Circuit((), 2, (mcx_gate([0], 1, [False]),))
        lowered = lower_negative_controls(c)
        kinds = [(g.kind, g.targets[0].index) for g in lowered.gates]
        assert kinds == [(GateKind.X, 0), (GateKind.X, 1), (GateKind.X, 0)]
        assert lowered.gates[1].controls == (Control(Index(0), True),)

    def test_mixed_controls(self):
        c = Circuit((), 3, (mcx_gate([1, 2], 0, [True, False]),))
        lowered = lower_negative_controls(c)
        assert len(lowered.gates) == 3
        mid = lowered.gates[1]
        assert all(k.positive for k in mid.controls)
        assert lowered.gates[0] == Gate(GateKind.X, (Index(2),))
        assert lowered.gates[2] == Gate(GateKind.X, (Index(2),))

    def test_no_negatives_left(self):
        rng = random.Random(6)
        for _ in range(20):
            c = random_indexed_circuit(rng, 6, 20)
            lowered = lower_negative_controls(c)
            assert all(k.positive for g in lowered.gates for k in g.controls)

    def test_all_positive_unchanged_and_idempotent(self):
        rng = random.Random(7)
        c = random_indexed_circuit(rng, 6, 20, p_negative=0.0)
        assert lower_negative_controls(c) == c
        d = random_indexed_circuit(rng, 6, 20)
        once = lower_negative_controls(d)
        assert lower_negative_controls(once) == once


class TestExpandMultiControls:
    def test_c3x_structure(self):
        c = Circuit((), 4, (mcx_gate([1, 2, 3], 0),))
        out = expand_multi_controls(c, PassConfig(max_controls=2))
        assert out.n_qubits == 5
        assert len(out.gates) == 3
        w = Index(4)
        assert out.gates[0] == Gate(GateKind.X, (w,), (Control(Index(1)), Control(Index(2))))
        assert out.gates[1] == Gate(GateKind.X, (Index(0),), (Control(w), Control(Index(3))))
        assert out.gates[2] == out.gates[0]

    def test_c3x_logic_exhaustive(self):
        # all 16 basis values of {controls, target} with the ancilla at 0:
        # target flips iff all three controls are set, ancilla ends at 0
        c = Circuit((), 4, (mcx_gate([1, 2, 3], 0),))
        out = expand_multi_controls(c, PassConfig(max_controls=2))
        for v in range(16):
            got = run_logic(out, BasisState(5, v)).bits
            controls_set = v & 0b1110 == 0b1110
            want = v ^ 1 if controls_set else v
            assert got == want, v

    def test_c5x_counts_and_truth_table(self):
        c = Circuit((), 6, (mcx_gate([1, 2, 3, 4, 5], 0),))
        out = expand_multi_controls(c, PassConfig(max_controls=2))
        assert out.n_qubits == 9  # 3 ancillas
        assert len(out.gates) == 7  # 2*3 + 1 toffolis
        assert max(len(g.controls) for g in out.gates) == 2
        for pattern in range(32):
            v = pattern << 1
            got = run_logic(out, BasisState(9, v)).bits
            want = v | 1 if pattern == 31 else v
            assert got == want

    def test_small_gates_unchanged(self):
        rng = random.Random(8)
        c = random_indexed_circuit(rng, 6, 20, max_controls=2, p_negative=0.0)
        assert expand_multi_controls(c, PassConfig(max_controls=2)) == c

    def test_ancilla_pool_reused(self):
        gates = (mcx_gate([1, 2, 3], 0), mcx_gate([0, 1, 2, 3], 4))
        c = Circuit((), 5, gates)
        out = expand_multi_controls(c, PassConfig(max_controls=2))
        assert out.n_qubits == 5 + 2  # sized by the worst gate, not the sum
        # both expansions restore their ancillas
        for v in range(32):
            got = run_logic(out, BasisState(7, v)).bits
            assert got >> 5 == 0

    def test_requires_positive_controls(self):
        c = Circuit((), 4, (mcx_gate([1, 2, 3], 0, [True, True, False]),))
        with pytest.raises(ValueError, match="negative controls"):
            expand_multi_controls(c, PassConfig(max_controls=2))

    def test_idempotent(self):
        rng = random.Random(9)
        c = random_indexed_circuit(rng, 7, 15, max_controls=5, p_negative=0.0)
        cfg = PassConfig(max_controls=2)
        once = expand_multi_controls(c, cfg)
        assert expand_multi_controls(once, cfg) == once

    def test_named_register_gets_ancilla_block(self):
        base = new_circuit(("q", 4))
        c = Circuit(base.registers, 4, (mcx_gate([1, 2, 3], 0),))
        out = expand_multi_controls(c, PassConfig(max_controls=2))
        assert out.registers == (("q", 4), ("anc", 1))


def _restricted(state, n_original):
    full = state.amplitudes
    head = full[: 1 << n_original]
    tail = full[1 << n_original :]
    return head, tail


class TestSemanticsPreservation:
    def test_each_pass_preserves_statevector(self):
        rng = random.Random(10)
        cfg = PassConfig(max_controls=2)
        passes = [
            lower_swaps,
            lower_negative_controls,
            lambda c: expand_multi_controls(c, cfg),
        ]
        for _ in range(40):
            n = rng.randint(2, 6)
            c = random_indexed_circuit(rng, n, rng.randint(1, 15), max_controls=4)
            staged = c
            for apply_pass in passes:
                lowered = apply_pass(staged)
                for _ in range(4):
                    prep = rng.randrange(1 << n)
                    want = run(staged, prep).amplitudes
                    got = run(lowered, prep)
                    head, tail = _restricted(got, staged.n_qubits)
                    np.testing.assert_allclose(head, want, atol=1e-12)
                    if len(tail):
                        assert np.max(np.abs(tail)) < 1e-12
                staged = lowered


class TestCompile:
    def test_full_adder_respects_control_budget(self):
        program = compile_circuit(cuccaro_full_add(4), PassConfig(max_controls=2))
        assert all(sum(v != -1 for v in g.controls) <= 2 for g in program.gates)

    def test_verify_failure_is_tagged(self):
        bad = Circuit((), 4, (Gate(GateKind.X, (Index(5),)),))
        with pytest.raises(CompileError) as info:
            compile_circuit(bad)
        assert info.value.pass_name == "verify"

    def test_mod_adder_program_equivalent_on_all_inputs(self):
        source, _ = resolve_names(mod_add(4))
        program = compile_circuit(mod_add(4), PassConfig(max_controls=2))
        compiled = to_circuit(program)
        mask = (1 << 9) - 1
        for v in range(512):
            want = run_logic(source, BasisState(9, v)).bits
            got = run_logic(compiled, BasisState(compiled.n_qubits, v)).bits
            assert got & mask == want
            assert got >> 9 == 0

    def test_random_circuits_compile_and_preserve_semantics(self):
        rng = random.Random(12)
        cfg = PassConfig(max_controls=2)
        for _ in range(15):
            n = rng.randint(2, 5)
            c = random_indexed_circuit(rng, n, rng.randint(1, 12), max_controls=4)
            program = compile_circuit(c, cfg)
            compiled = to_circuit(program)
            prep = rng.randrange(1 << n)
            want = run(c, prep).amplitudes
            got = run(compiled, prep)
            head, tail = _restricted(got, n)
            np.testing.assert_allclose(head, want, atol=1e-12)
            if len(tail):
                assert np.max(np.abs(tail)) < 1e-12


@st.composite
def _lowerable_circuits(draw, kinds):
    """Verified indexed circuits, n <= 6, of the given kinds, with up to
    4 mixed-polarity controls per gate."""
    n = draw(st.integers(1, 6))
    kinds = [k for k in kinds if n >= 2 or k is not GateKind.SWAP]
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        n_targets = 2 if kind is GateKind.SWAP else 1
        k = draw(st.integers(0, min(4, n - n_targets)))
        qubits = draw(st.permutations(range(n)))[: n_targets + k]
        polarities = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        controls = tuple(
            Control(Index(q), v) for q, v in zip(qubits[n_targets:], polarities)
        )
        gates.append(Gate(kind, tuple(map(Index, qubits[:n_targets])), controls))
    return Circuit((), n, tuple(gates))


@settings(max_examples=150, deadline=None)
@given(_lowerable_circuits([GateKind.X, GateKind.SWAP]), st.integers(2, 4))
def test_compiled_not_circuits_match_their_source_on_every_prep(c, m):
    compiled = to_circuit(compile_circuit(c, PassConfig(m)))
    want, got = logic_function(c), logic_function(compiled)
    for prep in range(1 << c.n_qubits):
        # ancillas start at 0, and want(prep) < 2**n says they end at 0
        assert got(prep) == want(prep)


@settings(max_examples=100, deadline=None)
@given(_lowerable_circuits(list(GateKind)), st.integers(2, 4), st.data())
def test_compiled_circuits_match_their_source_state_vector(c, m, data):
    compiled = to_circuit(compile_circuit(c, PassConfig(m)))
    prep = data.draw(st.integers(0, (1 << c.n_qubits) - 1), label="prep")
    head, tail = _restricted(run(compiled, prep), c.n_qubits)
    np.testing.assert_allclose(head, run(c, prep).amplitudes, rtol=0, atol=1e-12)
    assert not len(tail) or np.max(np.abs(tail)) < 1e-12


def test_pass_config_validation():
    with pytest.raises(ValueError):
        PassConfig(max_controls=1)


def test_pass_config_bound():
    assert PassConfig(max_controls=MAX_QUBITS - 1).max_controls == MAX_QUBITS - 1
    for bad in (MAX_QUBITS, 10**6):
        with pytest.raises(InputError, match="max_controls must be 2 to 65535"):
            PassConfig(max_controls=bad)


@st.composite
def _named_circuits(draw):
    """Named circuits with some unresolvable references, duplicate and
    contradictory controls, targets reused as controls and identical
    swap targets. Returns the circuit and, for the first unresolvable
    reference in gate order (targets, then controls), a fragment of its
    message, or None when every reference resolves."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    registers = tuple(zip("abc", sizes))
    n = sum(sizes) + draw(st.integers(0, 2))
    good = [Named(label, i) for label, size in registers for i in range(size)]
    good += [Index(i) for i in range(n)]
    bad = {Named("zz", 0): "'zz'", Index(n): f"index {n} "}
    for label, size in registers:
        bad[Named(label, size)] = f"{label}[{size}]"
    refs = st.sampled_from(good * 4 + list(bad))
    gates = []
    first_bad = None
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from([GateKind.X, GateKind.H, GateKind.SWAP]))
        targets = tuple(draw(refs) for _ in range(2 if kind is GateKind.SWAP else 1))
        controls = tuple(
            Control(q, draw(st.booleans()))
            for q in draw(st.lists(refs, max_size=3))
        )
        for q in targets + tuple(k.qubit for k in controls):
            if first_bad is None and q in bad:
                first_bad = bad[q]
        gates.append(Gate(kind, targets, controls))
    return Circuit(registers, n, tuple(gates)), first_bad


@settings(max_examples=300, deadline=None)
@given(_named_circuits())
def test_checked_verify_and_resolve_names_agree(case):
    c, first_bad = case
    diags = verify(c)
    if first_bad is None:
        resolved, _ = resolve_names(c)
    else:
        with pytest.raises(ValueError) as info:
            resolve_names(c)
        assert first_bad in str(info.value)
        assert diags
    if diags:
        with pytest.raises(CompileError) as info:
            checked(c)
        assert info.value.pass_name == "verify"
        first = f"{len(diags)} error(s); first: gate {diags[0].gate_index}: "
        assert first in str(info.value)
    else:
        assert checked(c) == resolved


def _fresh(c):
    """c with a new object for every gate and every reference in it."""

    def copy(ref):
        return Index(ref.index) if isinstance(ref, Index) else Named(ref.label, ref.offset)

    gates = tuple(
        Gate(
            g.kind,
            tuple(map(copy, g.targets)),
            tuple(Control(copy(k.qubit), k.positive) for k in g.controls),
        )
        for g in c.gates
    )
    return Circuit(c.registers, c.n_qubits, gates)


@st.composite
def _shared_circuits(draw):
    """Circuits whose gates are drawn, with repeats, from a pool of gate
    objects: broken named gates, or clean ones with SWAPs and up to 4
    mixed-polarity controls."""
    pool = draw(
        st.one_of(
            _named_circuits().map(lambda case: case[0]),
            _lowerable_circuits(list(GateKind)),
        )
    )
    if not pool.gates:
        return pool
    picks = draw(st.lists(st.integers(0, len(pool.gates) - 1), max_size=24))
    return Circuit(pool.registers, pool.n_qubits, tuple(pool.gates[i] for i in picks))


@settings(max_examples=200, deadline=None)
@given(_shared_circuits(), st.integers(2, 3))
def test_shared_gates_verify_and_compile_like_fresh_copies(c, m):
    fresh = _fresh(c)
    assert verify(c) == verify(fresh)

    def compiled(circuit):
        try:
            return emit_qp(compile_circuit(circuit, PassConfig(m)))
        except CompileError as e:
            return str(e)

    assert compiled(c) == compiled(fresh)


def test_lowering_builds_each_new_gate_once():
    def gate():
        return mcx_gate([0, 1, 2, 3], 4, [False, True, False, True])

    g = gate()
    lowered = lower(Circuit((), 5, (g, g, g, gate())), PassConfig(2)).gates
    # 2 X flips, 2 Toffolis, the gate, 2 Toffolis, 2 X flips
    first, *repeats, equal = (lowered[i : i + 9] for i in range(0, 36, 9))
    assert len(lowered) == 36
    for copy in repeats:
        assert all(a is b for a, b in zip(first, copy))
    # an equal gate of its own shares every new object but its own image
    assert equal == first
    assert [a is b for a, b in zip(first, equal)] == [True] * 4 + [False] + [True] * 4
