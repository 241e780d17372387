"""Qubit reduction: constant propagation, extraction, resynthesis."""
import json
import random
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge.ir import Circuit, Control, Gate, GateKind, Index, InputError
from qforge import logic
from qforge.library import AdderLayout, increment_kernel, mod_add
from qforge.logic import logic_function
from qforge.passes import resolve_names
from qforge.reduction import (
    EntangledSpecialization,
    NotAPermutation,
    NotReducible,
    Specialization,
    UnsupportedForSemanticReduction,
    extract_permutation,
    find_control_only_qubits,
    generate_kernels,
    output_names,
    specialize_syntactic,
    synthesize_from_permutation,
    write_kernels,
)
from qforge.source import parse_source, print_source
from qforge.statevector import init_state

from helpers import pair_swap_synthesis, random_x_circuit

SYNTH_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "synth_golden.json").read_text()
)["cases"]
SYNTACTIC_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "syntactic_golden.json").read_text()
)["cases"]


def cx(c, t):
    return Gate(GateKind.X, (Index(t),), (Control(Index(c)),))


def xg(t):
    return Gate(GateKind.X, (Index(t),))


def indexed_mod_add(width=4):
    circuit, _ = resolve_names(mod_add(width, AdderLayout.A_REGISTER_FIRST))
    return circuit


def embed(free_value, index_map, assignments):
    bits = 0
    for q, b in assignments.items():
        bits |= b << q
    for old, new in index_map.items():
        bits |= ((free_value >> new) & 1) << old
    return bits


class TestFindControlOnly:
    def test_fanout_control(self):
        c = Circuit((), 3, (cx(0, 1), cx(0, 2)))
        assert find_control_only_qubits(c) == {0}

    def test_mod_adder_top_bit_only(self):
        # with the cancelled top-bit form, a3 is never a target; every
        # other a qubit and the carry are targeted by MAJ/UNMAJ blocks
        assert find_control_only_qubits(indexed_mod_add()) == {3}

    def test_empty_circuit_all(self):
        assert find_control_only_qubits(Circuit((), 3)) == {0, 1, 2}


@pytest.mark.parametrize(
    "reduce",
    [
        find_control_only_qubits,
        lambda c: specialize_syntactic(c, Specialization({0: 1})),
        lambda c: extract_permutation(c, Specialization({0: 1})),
    ],
    ids=["find_control_only_qubits", "specialize_syntactic", "extract_permutation"],
)
def test_named_circuit_must_be_resolved_first(reduce):
    with pytest.raises(ValueError, match="run resolve_names first"):
        reduce(mod_add(4))


class TestSpecializeSyntactic:
    def test_control_becomes_constant(self):
        c = Circuit((), 2, (cx(0, 1),))
        k1 = specialize_syntactic(c, Specialization({0: 1}))
        assert k1.circuit.gates == (Gate(GateKind.X, (Index(0),)),)
        assert k1.circuit.n_qubits == 1
        assert k1.specialization.method == "syntactic"
        k0 = specialize_syntactic(c, Specialization({0: 0}))
        assert k0.circuit.gates == ()

    def test_tracked_flip(self):
        c = Circuit((), 2, (xg(0), cx(0, 1)))
        k = specialize_syntactic(c, Specialization({0: 0}))
        assert k.circuit.gates == (Gate(GateKind.X, (Index(0),)),)
        assert k.final_constants == {0: 1}

    def test_tracked_controlled_flip(self):
        # NOT on a tracked qubit controlled by another tracked qubit
        c = Circuit((), 3, (cx(0, 1), cx(1, 2)))
        k = specialize_syntactic(c, Specialization({0: 1, 1: 0}))
        assert k.final_constants == {0: 1, 1: 1}
        assert k.circuit.gates == (Gate(GateKind.X, (Index(0),)),)

    def test_mod_adder_not_reducible_at_first_toffoli(self):
        c = indexed_mod_add()
        spec = Specialization({3: 0, 2: 0, 1: 0, 0: 1, 8: 0})
        with pytest.raises(NotReducible) as info:
            specialize_syntactic(c, spec)
        # gates 0 and 1 are CNOTs controlled by a0; gate 2 is the first
        # toffoli targeting a tracked qubit with a free (b) control
        assert info.value.gate_index == 2

    def test_non_not_gate_on_tracked_qubit(self):
        c = Circuit((), 2, (Gate(GateKind.H, (Index(0),)),))
        with pytest.raises(NotReducible):
            specialize_syntactic(c, Specialization({0: 0}))

    def test_swap_on_tracked_qubit(self):
        c = Circuit((), 2, (Gate(GateKind.SWAP, (Index(0), Index(1))),))
        with pytest.raises(NotReducible):
            specialize_syntactic(c, Specialization({0: 0}))

    def test_free_gates_reindexed(self):
        c = Circuit((), 3, (cx(1, 2),))
        k = specialize_syntactic(c, Specialization({0: 1}))
        assert k.index_map == {1: 0, 2: 1}
        assert k.circuit.gates == (cx(0, 1),)

    def test_dropped_when_tracked_control_unsatisfied(self):
        c = Circuit((), 3, (Gate(GateKind.H, (Index(1),), (Control(Index(0)),)),))
        k = specialize_syntactic(c, Specialization({0: 0}))
        assert k.circuit.gates == ()

    def test_non_not_kinds_allowed_on_free_qubits(self):
        c = Circuit((), 2, (Gate(GateKind.H, (Index(1),), (Control(Index(0)),)),))
        k = specialize_syntactic(c, Specialization({0: 1}))
        assert k.circuit.gates == (Gate(GateKind.H, (Index(0),)),)

    def test_assignment_validation(self):
        c = Circuit((), 2, (cx(0, 1),))
        with pytest.raises(ValueError):
            specialize_syntactic(c, Specialization({5: 1}))
        with pytest.raises(ValueError):
            specialize_syntactic(c, Specialization({0: 2}))

    @pytest.mark.parametrize(
        "case", SYNTACTIC_GOLDEN, ids=[f"case{i}" for i in range(len(SYNTACTIC_GOLDEN))]
    )
    def test_matches_golden_corpus(self, case):
        # kernels and refusals recorded from the two-loop walk it replaced
        gates = tuple(
            Gate(
                GateKind(kind),
                tuple(Index(t) for t in targets),
                tuple(Control(Index(q), positive) for q, positive in controls),
            )
            for kind, targets, controls in case["gates"]
        )
        c = Circuit((), case["n"], gates)
        spec = Specialization({int(q): b for q, b in case["assignments"].items()})
        if "not_reducible" in case:
            with pytest.raises(NotReducible) as info:
                specialize_syntactic(c, spec)
            assert [info.value.gate_index, info.value.reason] == case["not_reducible"]
            return
        k = specialize_syntactic(c, spec)
        assert print_source(k.circuit) == case["kernel"]
        assert k.final_constants == {int(q): b for q, b in case["final_constants"].items()}
        assert k.index_map == {int(q): v for q, v in case["index_map"].items()}


class TestExtractPermutation:
    def test_mod_adder_plus_one(self):
        c = indexed_mod_add()
        spec = Specialization({0: 1, 1: 0, 2: 0, 3: 0, 8: 0})
        perm, constants = extract_permutation(c, spec)
        assert perm == [(v + 1) % 16 for v in range(16)]
        assert constants == {0: 1, 1: 0, 2: 0, 3: 0, 8: 0}

    def test_empty_circuit_identity(self):
        perm, _ = extract_permutation(Circuit((), 3), Specialization({2: 1}))
        assert perm == [0, 1, 2, 3]

    def test_entangled_specialization(self):
        c = Circuit((), 2, (cx(1, 0),))  # a (qubit 0) ends as b
        with pytest.raises(EntangledSpecialization):
            extract_permutation(c, Specialization({0: 0}))

    def test_non_basis_circuit_rejected(self):
        c = Circuit((), 2, (Gate(GateKind.H, (Index(1),)),))
        with pytest.raises(UnsupportedForSemanticReduction):
            extract_permutation(c, Specialization({0: 0}))

    def test_cap(self):
        c = Circuit((), 22, (xg(0),))
        with pytest.raises(UnsupportedForSemanticReduction, match="cap of 20"):
            extract_permutation(c, Specialization({21: 0}))

    def test_warns_when_constants_drift(self):
        # the drift is reported in final_constants alone, never as a warning
        c = Circuit((), 2, (xg(0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            perm, constants = extract_permutation(c, Specialization({0: 0}))
        assert constants == {0: 1}
        assert perm == [0, 1]

    def test_non_basis_gate_rejected_before_any_evaluation(self):
        # every free value would show qubit 0 entangled; the H must win
        gates = (cx(1, 0), Gate(GateKind.H, (Index(2),)))
        with pytest.raises(UnsupportedForSemanticReduction, match="gate 1: h"):
            extract_permutation(Circuit((), 3, gates), Specialization({0: 0}))

    def test_assigned_qubits_above_64(self):
        n = 70
        free = [0, 3, 64, 67, 69]
        assignments = {q: q % 2 for q in range(n) if q not in free}
        gates = (
            Gate(GateKind.X, (Index(64),), (Control(Index(65)), Control(Index(66), False))),
            Gate(GateKind.SWAP, (Index(0), Index(69)), (Control(Index(68), False),)),
            Gate(GateKind.X, (Index(3),), (Control(Index(0)), Control(Index(67)))),
            Gate(GateKind.X, (Index(68),), (Control(Index(65)),)),
            Gate(GateKind.X, (Index(67),), (Control(Index(68)), Control(Index(64), False))),
        )
        c = Circuit((), n, gates)
        want_perm, want_constants, first = per_value_sweep(c, assignments)
        assert first is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            perm, constants = extract_permutation(c, Specialization(assignments))
        assert (perm, constants) == (want_perm, want_constants)
        assert constants[68] == 1
        assert perm != list(range(32))


def per_value_sweep(c, assignments):
    """extract_permutation's result, one logic_function call per free value.

    Returns (perm, constants, first value whose assigned outputs differ
    from value 0's, or None).
    """
    step = logic_function(c)
    free = [q for q in range(c.n_qubits) if q not in assignments]
    fixed = sum(bit << q for q, bit in assignments.items())
    perm, constants, first = [], None, None
    for v in range(1 << len(free)):
        out = step(fixed | sum(((v >> new) & 1) << old for new, old in enumerate(free)))
        outs = {q: (out >> q) & 1 for q in sorted(assignments)}
        if constants is None:
            constants = outs
        elif outs != constants and first is None:
            first = v
        perm.append(sum(((out >> old) & 1) << new for new, old in enumerate(free)))
    return perm, constants, first


@st.composite
def _extraction_cases(draw, max_n=12, min_assigned=0):
    """X/SWAP circuits, mixed-polarity controls, n <= max_n, up to 3 assigned qubits."""
    n = draw(st.integers(1, max_n))
    kinds = [GateKind.X, GateKind.SWAP] if n >= 2 else [GateKind.X]
    gates = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        n_targets = 2 if kind is GateKind.SWAP else 1
        k = draw(st.integers(0, min(3, n - n_targets)))
        qubits = draw(st.permutations(range(n)))[: n_targets + k]
        polarities = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        targets = tuple(Index(q) for q in qubits[:n_targets])
        controls = tuple(
            Control(Index(q), v) for q, v in zip(qubits[n_targets:], polarities)
        )
        gates.append(Gate(kind, targets, controls))
    assigned = draw(st.permutations(range(n)))[
        : draw(st.integers(min(min_assigned, n), min(3, n)))
    ]
    assignments = {q: draw(st.integers(0, 1)) for q in assigned}
    return Circuit((), n, tuple(gates)), assignments


@settings(max_examples=150, deadline=None)
@given(_extraction_cases())
def test_extraction_matches_per_value_sweep(case):
    c, assignments = case
    perm, constants, first = per_value_sweep(c, assignments)
    spec = Specialization(assignments)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if first is not None:
            with pytest.raises(EntangledSpecialization) as info:
                extract_permutation(c, spec)
            assert str(info.value).endswith(f"(e.g. at value {first})")
            assert not caught
            return
        got = extract_permutation(c, spec)
    assert got == (perm, constants)
    assert all(type(v) is int for v in got[0] + list(got[1].values()))
    assert not caught


@settings(max_examples=100, deadline=None)
@given(_extraction_cases())
def test_extraction_in_blocks_of_a_few_values_matches_per_value_sweep(case):
    # one-byte planes: the table and the constancy check span many blocks
    c, assignments = case
    perm, constants, first = per_value_sweep(c, assignments)
    spec = Specialization(assignments)
    with mock.patch.object(logic, "PLANE_SCRATCH", 8):
        if first is not None:
            with pytest.raises(EntangledSpecialization, match=rf"at value {first}\)$"):
                extract_permutation(c, spec)
            return
        assert extract_permutation(c, spec) == (perm, constants)


def _scratch_triples(n, m, count, rng):
    """count Toffoli compute/use/uncompute triples: a qubit at or above m
    takes the AND of two of the free qubits 0..m-1, flips a third and is
    cleared again."""
    gates = []
    for _ in range(count):
        a, b, t = rng.sample(range(m), 3)
        s = rng.randrange(m, n)
        toffoli = Gate(GateKind.X, (Index(s),), (Control(Index(a)), Control(Index(b))))
        gates += [toffoli, cx(s, t), toffoli]
    return Circuit((), n, tuple(gates))


def test_extraction_planes_stay_bounded_at_2048_qubits():
    n, m = 2048, 14
    c = _scratch_triples(n, m, 200, random.Random(67))
    spec = Specialization({q: 0 for q in range(m, n)})
    tracemalloc.start()
    try:
        perm, constants = extract_permutation(c, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20  # unpacking every row took about 70 MiB
    assert sorted(perm) == list(range(1 << m))
    assert set(constants.values()) == {0}
    f = logic_function(c)
    for v in random.Random(71).sample(range(1 << m), 16):
        assert perm[v] == f(v)


@settings(max_examples=100, deadline=None)
@given(_extraction_cases(max_n=10, min_assigned=1))
def test_every_kernel_embeds_into_its_source(case):
    # every value of the assigned qubits, so both polarities of each
    # control on them are exercised; targeted constants come from gates
    # that target assigned qubits
    c, assignments = case
    qubits = sorted(assignments)
    values = [[(v >> j) & 1 for j in range(len(qubits))] for v in range(1 << len(qubits))]
    whole = logic_function(c)
    for outcome in generate_kernels(c, qubits, values).outcomes:
        fixed = dict(zip(qubits, outcome.value))
        _, constants, first = per_value_sweep(c, fixed)
        if outcome.kernel is None:
            assert isinstance(outcome.error, str) and first is not None
            continue
        assert outcome.error is None and first is None
        kernel = outcome.kernel
        assert kernel.final_constants == constants
        step = logic_function(kernel.circuit)
        for f in range(1 << kernel.circuit.n_qubits):
            out = whole(embed(f, kernel.index_map, fixed))
            assert {q: (out >> q) & 1 for q in qubits} == kernel.final_constants
            out_free = 0
            for old, new in kernel.index_map.items():
                out_free |= ((out >> old) & 1) << new
            assert step(f) == out_free


@st.composite
def _permutations(draw, max_m=9):
    """A permutation of range(2**m) that moves a drawn number of values,
    so that runs of fixed values, which synthesis jumps over, are common."""
    size = 1 << draw(st.integers(0, max_m))
    rng = draw(st.randoms(use_true_random=False))
    moved = rng.sample(range(size), draw(st.integers(0, size)))
    perm = list(range(size))
    for v, image in zip(moved, rng.sample(moved, len(moved))):
        perm[v] = image
    return perm


@settings(max_examples=200, deadline=None)
@given(_permutations())
def test_synthesis_equals_the_pair_swap_oracle(perm):
    # Gate equality: same targets and the same controls in the same order
    assert synthesize_from_permutation(perm) == pair_swap_synthesis(perm)


@pytest.mark.parametrize("m", [12, 13, 14])
@pytest.mark.parametrize(
    "image",
    [lambda b: b + 0x2D5, lambda b: b - 1, lambda b: b ^ 0x1A5A],
    ids=["plus-k", "minus-1", "xor-k"],
)
def test_structured_permutations_equal_the_pair_swap_oracle(m, image):
    size = 1 << m
    perm = [image(b) % size for b in range(size)]
    assert synthesize_from_permutation(perm) == pair_swap_synthesis(perm)


class TestSynthesize:
    def test_identity_gives_empty_circuit(self):
        assert synthesize_from_permutation(list(range(16))).gates == ()

    def test_single_qubit_flip(self):
        c = synthesize_from_permutation([1, 0])
        assert c.gates == (xg(0),)

    def test_rejects_non_permutations(self):
        with pytest.raises(NotAPermutation):
            synthesize_from_permutation([0, 0])
        with pytest.raises(NotAPermutation):
            synthesize_from_permutation([0, 1, 2])
        with pytest.raises(NotAPermutation):
            synthesize_from_permutation([])

    def test_all_two_qubit_permutations(self):
        import itertools

        for perm in itertools.permutations(range(4)):
            step = logic_function(synthesize_from_permutation(list(perm)))
            assert tuple(step(v) for v in range(4)) == perm

    def test_random_permutations_exact(self):
        rng = random.Random(100)
        for m in (2, 3, 4):
            size = 1 << m
            for _ in range(60):
                perm = list(range(size))
                rng.shuffle(perm)
                circuit = synthesize_from_permutation(perm)
                assert circuit.n_qubits == m
                assert len(circuit.gates) <= m * size
                step = logic_function(circuit)
                assert [step(v) for v in range(size)] == perm

    def test_plus_one_matches_increment_kernel(self):
        perm = [(v + 1) % 16 for v in range(16)]
        synth = logic_function(synthesize_from_permutation(perm))
        inc, _ = resolve_names(increment_kernel(4, 1))
        ref = logic_function(inc)
        for v in range(16):
            assert synth(v) == ref(v) == (v + 1) % 16

    @pytest.mark.parametrize(
        "case",
        SYNTH_GOLDEN,
        ids=[f"m{case['m']}-{case['name'].replace(' ', '')}" for case in SYNTH_GOLDEN],
    )
    def test_matches_golden_corpus(self, case):
        # gate lists recorded from the full-table-sweep implementation
        circuit = synthesize_from_permutation(case["perm"])
        assert circuit.n_qubits == case["m"]
        assert all(k.positive for g in circuit.gates for k in g.controls)
        got = [
            [g.targets[0].index, sum(1 << k.qubit.index for k in g.controls)]
            for g in circuit.gates
        ]
        assert got == case["gates"]
        realized, _ = extract_permutation(circuit, Specialization({}))
        assert realized == case["perm"]

    def test_inverse_composition_is_identity(self):
        rng = random.Random(101)
        for _ in range(20):
            m = rng.randint(2, 4)
            size = 1 << m
            perm = list(range(size))
            rng.shuffle(perm)
            inverse = [0] * size
            for i, p in enumerate(perm):
                inverse[p] = i
            c = synthesize_from_permutation(perm)
            c_inv = synthesize_from_permutation(inverse)
            both = Circuit((), m, c.gates + c_inv.gates)
            step = logic_function(both)
            for v in range(size):
                assert step(v) == v


class TestGenerateKernels:
    def test_mod_adder_family(self):
        c = indexed_mod_add()
        report = generate_kernels(
            c, [3, 2, 1, 0, 8], [[0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 0, 1, 1, 0]]
        )
        assert report.ok
        assert len(report.kernels) == 3
        for kernel, k in zip(report.kernels, (1, 2, 3)):
            assert kernel.specialization.method == "semantic"
            assert kernel.circuit.n_qubits == 4
            step = logic_function(kernel.circuit)
            for b in range(16):
                assert step(b) == (b + k) % 16

    def test_interleaved_layout_reduces_to_same_kernels(self):
        # the wire order differs but the free (b) qubits keep their
        # relative order, so both layouts reduce to the same +k maps
        circuit, table = resolve_names(mod_add(4, AdderLayout.INTERLEAVED))
        qubit_list = [table[(f"a{i}", 0)] for i in (3, 2, 1, 0)] + [table[("c", 0)]]
        report = generate_kernels(
            circuit, qubit_list, [[0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 0, 1, 1, 0]]
        )
        assert report.ok
        for kernel, k in zip(report.kernels, (1, 2, 3)):
            step = logic_function(kernel.circuit)
            for b in range(16):
                assert step(b) == (b + k) % 16

    def test_rejects_circuit_verify_rejects(self):
        reused = Gate(GateKind.X, (Index(1),), (Control(Index(1)),))
        bad = Circuit((), 3, (cx(0, 1), reused))  # qubit 1 is target and control
        with pytest.raises(ValueError, match="verify: gate 1: target qubit 1"):
            generate_kernels(bad, [0], [[0], [1]])

    def test_named_circuit_reduces_like_its_resolved_form(self):
        named = mod_add(4, AdderLayout.A_REGISTER_FIRST)
        resolved, _ = resolve_names(named)
        methods = []
        for qubit_list, values in (
            ([3, 2, 1, 0, 8], [[0, 0, 0, 1, 0], [1]]),  # semantic; bad width
            ([3], [[1]]),  # a3 is control-only: syntactic
            ([4], [[0]]),  # b0 is a target: entangled
            ([], [[]]),
        ):
            report = generate_kernels(named, qubit_list, values)
            assert report == generate_kernels(resolved, qubit_list, values)
            methods += [o.error or o.kernel.specialization.method for o in report.outcomes]
        assert methods[:3] == ["semantic", "value width 1 != qubit count 5", "syntactic"]
        assert "constant" in methods[3] and methods[4] == "syntactic"

    def test_memory_halves_per_specialized_qubit(self):
        c = indexed_mod_add()
        report = generate_kernels(c, [3, 2, 1, 0, 8], [[0, 0, 0, 1, 0]])
        original = init_state(c.n_qubits)
        kernel = init_state(report.kernels[0].circuit.n_qubits)
        assert len(original.amplitudes) == 512
        assert len(kernel.amplitudes) == 16
        assert len(original.amplitudes) == len(kernel.amplitudes) << 5

    def test_empty_qubit_list_returns_original(self):
        c = indexed_mod_add()
        report = generate_kernels(c, [], [[]])
        (kernel,) = report.kernels
        assert kernel.circuit == c

    def test_cnot_family(self):
        c = Circuit((), 2, (cx(0, 1),))
        report = generate_kernels(c, [0], [[0], [1]])
        empty, flip = report.kernels
        assert empty.circuit.gates == ()
        assert len(flip.circuit.gates) == 1
        assert all(k.specialization.method == "syntactic" for k in report.kernels)

    def test_partial_failure_reported(self):
        c = Circuit((), 2, (cx(1, 0),))  # entangles qubit 0 with qubit 1
        report = generate_kernels(c, [0], [[0]])
        assert not report.ok
        assert report.kernels == []
        assert "constant" in report.outcomes[0].error

    def test_value_width_mismatch_recorded(self):
        c = Circuit((), 2, (cx(0, 1),))
        report = generate_kernels(c, [0], [[0, 1]])
        assert not report.ok

    def test_soundness_exhaustive_on_adders(self):
        for width in (2, 3, 4):
            c = indexed_mod_add(width)
            qubit_list = list(range(width)) + [2 * width]  # a register and c
            rng = random.Random(width)
            for _ in range(4):
                value = [rng.randint(0, 1) for _ in qubit_list]
                report = generate_kernels(c, qubit_list, [value])
                if not report.ok:
                    continue
                (kernel,) = report.kernels
                assignments = dict(zip(qubit_list, value))
                step = logic_function(kernel.circuit)
                whole = logic_function(c)
                for f in range(1 << kernel.circuit.n_qubits):
                    out = whole(embed(f, kernel.index_map, assignments))
                    out_free = 0
                    for old, new in kernel.index_map.items():
                        out_free |= ((out >> old) & 1) << new
                    assert step(f) == out_free

    def test_syntactic_and_semantic_agree_when_both_apply(self):
        # control-only specialized qubits on NOT-family circuits: the
        # syntactic walk succeeds, and extraction must agree with it
        rng = random.Random(55)
        for _ in range(40):
            n = rng.randint(3, 8)
            gates = []
            special = set(rng.sample(range(n), rng.randint(1, 2)))
            free = [q for q in range(n) if q not in special]
            for _ in range(rng.randint(1, 15)):
                t = rng.choice(free)
                others = [q for q in range(n) if q != t]
                controls = tuple(
                    Control(Index(q), rng.random() < 0.7)
                    for q in rng.sample(others, rng.randint(0, min(3, len(others))))
                )
                gates.append(Gate(GateKind.X, (Index(t),), controls))
            c = Circuit((), n, tuple(gates))
            assignments = {q: rng.randint(0, 1) for q in sorted(special)}
            syn = specialize_syntactic(c, Specialization(assignments))
            perm, constants = extract_permutation(c, Specialization(assignments))
            sem = synthesize_from_permutation(perm)
            assert constants == syn.final_constants
            f_syn = logic_function(syn.circuit)
            f_sem = logic_function(sem)
            m = n - len(assignments)
            for v in range(1 << m):
                assert f_syn(v) == f_sem(v)

    def test_soundness_at_twelve_free_qubits(self):
        rng = random.Random(77)
        c = random_x_circuit(rng, 14, 25)
        targeted = {g.targets[0].index for g in c.gates}
        candidates = [q for q in range(14) if q not in targeted][:2]
        if len(candidates) < 2:
            candidates = [13, 12]
        value = [1, 0]
        report = generate_kernels(c, candidates, [value])
        if not report.ok:
            pytest.skip("random draw produced an entangled specialization")
        (kernel,) = report.kernels
        assert kernel.circuit.n_qubits == 12
        assignments = dict(zip(candidates, value))
        step = logic_function(kernel.circuit)
        whole = logic_function(c)
        for f in range(1 << 12):
            out = whole(embed(f, kernel.index_map, assignments))
            out_free = 0
            for old, new in kernel.index_map.items():
                out_free |= ((out >> old) & 1) << new
            assert step(f) == out_free


class TestWriteKernels:
    def test_files_and_manifest(self, tmp_path):
        c = indexed_mod_add()
        report = generate_kernels(
            c, [3, 2, 1, 0, 8], [[0, 0, 0, 1, 0], [0, 0, 1, 0, 0]]
        )
        manifest = write_kernels(report, "modadd4", tmp_path)
        data = json.loads((tmp_path / "modadd4.manifest.json").read_text())
        assert data == manifest
        assert [k["value"] for k in data["kernels"]] == ["00010", "00100"]
        for entry, inc in zip(data["kernels"], (1, 2)):
            assert entry["method"] == "semantic"
            circuit = parse_source((tmp_path / entry["file"]).read_text())
            resolved, _ = resolve_names(circuit)
            step = logic_function(resolved)
            for v in range(16):
                assert step(v) == (v + inc) % 16

    def test_failed_values_recorded_without_files(self, tmp_path):
        c = Circuit((), 2, (cx(1, 0),))
        report = generate_kernels(c, [0], [[0]])
        manifest = write_kernels(report, "bad", tmp_path)
        assert "error" in manifest["kernels"][0]
        assert list(tmp_path.glob("*.fqt")) == []

    def test_overlong_manifest_name_writes_no_file(self, tmp_path):
        report = generate_kernels(Circuit((), 2, (cx(1, 0),)), [1], [[0]])
        with pytest.raises(ValueError, match="manifest of 257 bytes"):  # an InputError
            write_kernels(report, "w" * 243, tmp_path / "k")
        assert not (tmp_path / "k").exists()

    def test_repeated_value_writes_no_file(self, tmp_path):
        report = generate_kernels(Circuit((), 2, (cx(1, 0),)), [1], [[0], [1], [0]])
        with pytest.raises(InputError, match="^value '0' given twice$"):
            write_kernels(report, "twice", tmp_path / "k")
        assert not (tmp_path / "k").exists()


def test_output_names_refuse_a_repeated_value():
    assert output_names("m", ["01", "10"]) == ("m.manifest.json", ["m.k01.fqt", "m.k10.fqt"])
    with pytest.raises(InputError, match="^value '01' given twice$"):
        output_names("m", ["01", "10", "01"])
    with pytest.raises(InputError, match="^value token of 300 characters given twice$"):
        output_names("m", ["0" * 300] * 2)
