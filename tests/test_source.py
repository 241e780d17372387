"""Source format: parsing, printing, round trips, fuzz totality."""
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge.ir import MAX_QUBITS, Circuit, Control, Gate, GateKind, Index, Named, new_circuit
from qforge.passes import resolve_names
from qforge.source import (
    ParseError,
    UndeclaredRegister,
    UnknownGate,
    lines,
    parse_source,
    print_source,
)

from helpers import random_named_circuit


def test_parse_basic():
    c = parse_source("qreg q 2\nh q[0]\nx q[1] q[0]")
    assert c.n_qubits == 2
    assert c.registers == (("q", 2),)
    assert c.gates == (
        Gate(GateKind.H, (Named("q", 0),)),
        Gate(GateKind.X, (Named("q", 1),), (Control(Named("q", 0)),)),
    )


def test_parse_negative_control():
    c = parse_source("qreg q 2\nx q[1] !q[0]")
    (g,) = c.gates
    assert g.controls == (Control(Named("q", 0), False),)


def test_parse_swap_two_targets():
    c = parse_source("qreg q 3\nswap q[0] q[1] q[2]")
    (g,) = c.gates
    assert g.kind is GateKind.SWAP
    assert g.targets == (Named("q", 0), Named("q", 1))
    assert g.controls == (Control(Named("q", 2)),)


def test_parse_case_insensitive_and_comments():
    c = parse_source("# header\nqreg q 1\n  X q[0]   # trailing\n\nSDG q[0]")
    assert [g.kind for g in c.gates] == [GateKind.X, GateKind.SDG]


def test_parse_whitespace_inside_operand():
    c = parse_source("qreg q 2\nx q [ 1 ] ! q [ 0 ]")
    (g,) = c.gates
    assert g.targets == (Named("q", 1),)
    assert g.controls == (Control(Named("q", 0), False),)


def test_undeclared_register():
    with pytest.raises(UndeclaredRegister) as info:
        parse_source("h r[0]")
    assert info.value.label == "r"
    assert info.value.line == 1


def test_unknown_gate():
    with pytest.raises(UnknownGate) as info:
        parse_source("qreg q 1\nfoo q[0]")
    assert info.value.name == "foo"
    assert info.value.line == 2


def test_error_positions():
    with pytest.raises(ParseError) as info:
        parse_source("qreg q 2\nx q[")
    assert info.value.line == 2
    assert info.value.col >= 4


def test_redeclaration_rejected():
    with pytest.raises(ParseError, match="already declared"):
        parse_source("qreg q 1\nqreg q 2")


def test_bad_register_size():
    with pytest.raises(ParseError):
        parse_source("qreg q 0")
    with pytest.raises(ParseError):
        parse_source("qreg q -1")


def test_target_cannot_be_negated():
    with pytest.raises(ParseError, match="negated"):
        parse_source("qreg q 2\nx !q[0]")


def test_swap_needs_two_targets():
    with pytest.raises(ParseError):
        parse_source("qreg q 2\nswap q[0]")


def test_error_positions_corpus():
    # (class, line, col) of each input as the token-cursor parser gave them
    path = Path(__file__).parent / "data" / "fqt_errors.json"
    for case in json.loads(path.read_text()):
        with pytest.raises(ParseError) as info:
            parse_source(case["source"])
        got = (type(info.value).__name__, info.value.line, info.value.col)
        assert got == (case["error"], case["line"], case["col"]), case["source"]


def test_size_limit():
    c = parse_source(f"qreg a {MAX_QUBITS - 1}\nqreg b 01\nx b[00] a[{MAX_QUBITS - 2}]")
    assert c.n_qubits == MAX_QUBITS
    assert c.gates[0].controls == (Control(Named("a", MAX_QUBITS - 2)),)


@pytest.mark.parametrize(
    "text, line, col, message",
    [
        ("qreg a 100000000000000000000", 1, 8, "size above 65536"),
        ("qreg a " + "9" * 5000, 1, 8, "size above 65536"),
        ("qreg a 65535\nqreg b 2", 2, 8, "size above 1 "),
        ("qreg a 2\nx a[65536]", 2, 5, "offset above 65535"),
        ("qreg a 2\nx a[0] !a[" + "1" * 5000 + "]", 2, 11, "offset above 65535"),
    ],
    ids=["huge-size", "size-of-5000-digits", "total", "offset", "offset-of-5000-digits"],
)
def test_sizes_and_offsets_over_the_limit(text, line, col, message):
    with pytest.raises(ParseError, match=message) as info:
        parse_source(text)
    assert (type(info.value), info.value.line, info.value.col) == (ParseError, line, col)


# the characters besides \n and \r that str.splitlines ends a line at
_NOT_NEWLINES = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("qreg q \u00b2", 1, 8),  # superscript 2
        ("qreg q \uff12", 1, 8),  # fullwidth 2
        ("qreg q 2\nx q[\u00b2]", 2, 5),
        ("qreg q 2\nx q[1] q[\u0663]", 2, 10),  # Arabic-Indic 3
        ("qreg \u00e9 1", 1, 6),
        # only a newline ends a line: a comment keeps these characters,
        # and the error after it names the next line
        *((f"# page{ch}break\nqreg q 0", 2, 8) for ch in _NOT_NEWLINES),
    ],
)
def test_non_ascii_tokens_are_positioned_errors(text, line, col):
    with pytest.raises(ParseError) as info:
        parse_source(text)
    assert (info.value.line, info.value.col) == (line, col)


def test_lines_end_at_newlines_only():
    text = f"qreg a 2\r\nx a[0]{_NOT_NEWLINES}z # c\rh a[1] # {_NOT_NEWLINES}\n\n \t\nx a[1]  "
    assert list(lines(text)) == [
        (1, "qreg a 2"), (2, f"x a[0]{_NOT_NEWLINES}z"), (3, "h a[1]"), (6, "x a[1]")
    ]


# statements with a well-formed head and shuffled operand fragments,
# some of them non-ASCII digits and letters
_SOURCE_LINES = st.lists(
    st.tuples(
        st.sampled_from(["qreg q", "qreg", "x", "swap", "h q[0]"]),
        st.lists(
            st.sampled_from(
                ["q", "r", "[", "]", "!", "0", "1", "#", "\u00b2", "\u0663", "\u00e9"]
            ),
            max_size=6,
        ),
    ).map(lambda line: " ".join((line[0], *line[1]))),
    max_size=4,
).map("\n".join)


@settings(max_examples=500, deadline=None)
@given(st.text() | _SOURCE_LINES)
def test_parser_is_total(text):
    try:
        assert isinstance(parse_source(text), Circuit)
    except ParseError:
        pass


def test_print_canonical():
    c = new_circuit(("q", 1)) + Circuit((), 0, (Gate(GateKind.X, (Named("q", 0),)),))
    assert print_source(c) == "qreg q 1\nx q[0]\n"


def test_print_declarations_only():
    assert print_source(new_circuit(("a", 2), ("b", 1))) == "qreg a 2\nqreg b 1\n"


def test_print_resolves_indices_through_registers():
    from qforge.ir import Index

    c = Circuit((("a", 2), ("b", 1)), 3, (Gate(GateKind.H, (Index(2),)),))
    assert print_source(c) == "qreg a 2\nqreg b 1\nh b[0]\n"


def test_print_rejects_uncovered_qubits():
    from qforge.ir import Index

    c = Circuit((("a", 1),), 2, (Gate(GateKind.X, (Index(1),)),))
    with pytest.raises(ValueError, match="not covered"):
        print_source(c)


@pytest.mark.parametrize("index", [-1, -3])
def test_print_rejects_negative_indices(index):
    # a negative index must not wrap around to the last registers' qubits
    c = Circuit((("a", 2), ("b", 1)), 3, (Gate(GateKind.X, (Index(index),)),))
    with pytest.raises(ValueError, match=f"qubit {index} is not covered"):
        print_source(c)


@st.composite
def _printable_circuits(draw):
    """The same gates twice: over Named references, and with each
    reference drawn as Named or as its Index inside the register span."""
    labels = st.sampled_from(["a", "b", "r", "work"])
    labels = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    registers = tuple((label, draw(st.integers(1, 4))) for label in labels)
    names = [Named(label, i) for label, size in registers for i in range(size)]
    qubit = st.integers(0, len(names) - 1)
    named, mixed = [], []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(GateKind))
        n_targets = 2 if kind is GateKind.SWAP else 1
        qs = draw(st.lists(qubit, min_size=n_targets, max_size=n_targets + 3))
        signs = draw(st.lists(st.booleans(), min_size=len(qs), max_size=len(qs)))
        refs = [names[q] for q in qs]
        mixed_refs = [draw(st.sampled_from([names[q], Index(q)])) for q in qs]
        for out, rs in ((named, refs), (mixed, mixed_refs)):
            controls = tuple(map(Control, rs[n_targets:], signs[n_targets:]))
            out.append(Gate(kind, tuple(rs[:n_targets]), controls))
    return (
        Circuit(registers, len(names), tuple(named)),
        Circuit(registers, len(names), tuple(mixed)),
    )


@settings(max_examples=300, deadline=None)
@given(_printable_circuits())
def test_print_parse_round_trip_property(pair):
    named, mixed = pair
    assert parse_source(print_source(named)) == named
    reparsed = parse_source(print_source(mixed))
    assert resolve_names(reparsed)[0] == resolve_names(mixed)[0]


def test_round_trip_corpus():
    rng = random.Random(2024)
    for _ in range(1000):
        c = random_named_circuit(rng, max_registers=3, max_size=4, max_gates=50)
        assert parse_source(print_source(c)) == c


def test_parser_total_on_junk():
    rng = random.Random(99)
    alphabet = "qregxhswapt[]!#0123456789 \t\n_ab\\%$é"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        try:
            result = parse_source(text)
            assert isinstance(result, Circuit)
        except ParseError:
            pass


def test_repeated_gate_lines_share_one_gate():
    c = parse_source("qreg a 2\nx a[0] !a[1]\nh a[1]\nx a[0] !a[1]  # again\nx  a[0] !a[1]")
    assert c.gates[0] is c.gates[2]
    assert c.gates[0] == c.gates[3]
    assert c.gates[1] is not c.gates[0]


def test_repeated_bad_line_fails_at_its_first_line():
    with pytest.raises(UndeclaredRegister) as info:
        parse_source("qreg a 1\nx a[0]\nx b[0]\nx a[0]\nqreg b 1\nx b[0]\n")
    assert (info.value.line, info.value.col) == (3, 3)
