"""No message repeats a long token from a flag or an input file.

``ir.shown`` is the one rule: text of up to 64 characters is quoted,
longer text is named by its length. Each CLI case feeds one
5,000-character token down one command path; the properties replace
one word of a valid ``.fqt``, ``.qp`` or ``.qtest`` text by a long one.
"""
import re
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qforge.cli import main
from qforge.harness import SuiteError, parse_suite, run_suite
from qforge.ir import shown
from qforge.library import fixture_path
from qforge.passes import verify
from qforge.qp import QPFormatError, parse_qp
from qforge.source import ParseError, parse_source

N = 5000
W = "w" * N  # a register label or gate name
Z = "z" * N  # neither an integer nor a bit string
FULLADD = fixture_path("cuccaro_fulladd4.fqt")
MODADD = fixture_path("cuccaro_modadd4_rearranged.fqt")
LOGIC = ["sim", FULLADD, "--backend", "logic", "--prep"]
SUITE = {"c.fqt": "qreg q 2\nx q[0]\n"}
HEAD = "circuit c.fqt\nbackend logic\n"

# id: (files to write, arguments); "{d}/" in an argument is their directory
CASES = {
    "prep-integer": ({}, [*LOGIC, Z]),
    "prep-entry": ({}, [*LOGIC, "a=1," + Z]),
    "prep-register-twice": ({}, [*LOGIC, f"{W}=1,{W}=2"]),
    "prep-integer-in-entry": ({}, [*LOGIC, "a=" + Z[2:]]),
    "prep-unknown-register": ({}, [*LOGIC, f"{W}=1"]),
    "prep-register-value": (
        {"r.fqt": f"qreg {W} 1\nx {W}[0]\n"},
        ["sim", "{d}/r.fqt", "--backend", "logic", "--prep", f"{W}=5"],
    ),
    "top": ({}, ["sim", FULLADD, "--top", Z]),
    "max-controls": ({}, ["compile", FULLADD, "-o", "{d}/c.qp", "--max-controls", Z]),
    "values": ({}, ["reduce", MODADD, "--qubits", "c", "--values", "2" * N, "-o", "{d}/k"]),
    "fqt-unknown-gate": ({"g.fqt": f"qreg q 1\n{W} q[0]\n"}, ["check", "{d}/g.fqt"]),
    "fqt-undeclared-register": ({"u.fqt": f"qreg q 1\nx {W}[0]\n"}, ["check", "{d}/u.fqt"]),
    "fqt-register-declared-twice": (
        {"t.fqt": f"qreg {W} 1\nqreg {W} 1\n"}, ["check", "{d}/t.fqt"]
    ),
    # the name W[3:][5] is 5,000 characters
    "fqt-qubit-out-of-range": (
        {"o.fqt": f"qreg {W[3:]} 1\nx {W[3:]}[5]\n"}, ["check", "{d}/o.fqt"]
    ),
    "qp-token": ({"t.qp": "2 1 2 " + Z}, ["sim", "{d}/t.qp"]),
    "qp-dashes": ({"t.qp": "2 1 2 " + "-" * N}, ["sim", "{d}/t.qp"]),
    "qtest-unexpected-token": (
        {**SUITE, "s.qtest": HEAD + f"case t {W} x\n"}, ["test", "{d}/s.qtest"]
    ),
    "qtest-unknown-keyword": ({**SUITE, "s.qtest": HEAD + f"{W} x\n"}, ["test", "{d}/s.qtest"]),
    "qtest-expect-unknown-register": (
        {**SUITE, "s.qtest": HEAD + f"case t expect {W}=1\n"}, ["test", "{d}/s.qtest"]
    ),
    "qtest-prep-unknown-register": (
        {**SUITE, "s.qtest": HEAD + f"case t prep {W}=1\n"}, ["test", "{d}/s.qtest"]
    ),
}


@pytest.mark.parametrize("files, args", CASES.values(), ids=CASES.keys())
def test_long_token_is_named_by_its_length(tmp_path, capsys, files, args):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main([arg.replace("{d}/", f"{tmp_path}/") for arg in args]) == 1
    out = capsys.readouterr()
    message = out.out + out.err  # a .qtest case's error is a result line
    assert "token of 5000 characters" in message
    assert re.search(r"(.)\1{64}", message) is None  # every token is one letter repeated
    assert len(message.encode()) < 300


def test_shown():
    assert shown("q") == "'q'" and shown("q[5]", str) == "q[5]"
    assert shown("a" * 64) == repr("a" * 64)
    assert shown("a" * 65) == shown("a" * 65, str) == "token of 65 characters"


# one word of a valid text is replaced; file paths are out of scope
FQT = "qreg a 2\nqreg b 1\nx a[0] b[0]\nswap a[0] a[1] !b[0]\nh b[0]\n"
QP = "3 2 2  1 0 1 2  4 2 -1 -1"
QTEST = (
    "circuit c.fqt\nbackend logic\ncase t prep q=1 expect q=0\n"
    "backend sv\ncase u prep q=0\nexpect amp 1 1 0 tol 1e-9\n"
)
_LONG = st.one_of(
    st.text(string.digits, min_size=65, max_size=N),
    st.text(string.ascii_letters + string.digits + "_", min_size=65, max_size=N),
    st.text(st.characters(blacklist_categories=("Z", "C")), min_size=65, max_size=N),
)
_LONG_WORD = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _replace(text: str, k: int, word: str, skip: tuple[str, ...] = ()) -> str:
    """text with its k-th replaceable word (mod their count) set to word."""
    spans = [m.span() for m in re.finditer(r"\S+", text) if m[0] not in skip]
    start, stop = spans[k % len(spans)]
    return text[:start] + word + text[stop:]


@_LONG_WORD
@given(st.integers(0, 100), _LONG)
def test_fqt_errors_never_contain_a_long_word(k, word):
    try:
        messages = [d.message for d in verify(parse_source(_replace(FQT, k, word)))]
    except ParseError as e:
        messages = [str(e)]
    assert not any(word in m for m in messages)


@_LONG_WORD
@given(st.integers(0, 100), _LONG)
def test_qp_errors_never_contain_a_long_word(k, word):
    try:
        parse_qp(_replace(QP, k, word))
    except QPFormatError as e:
        assert word not in str(e)


@_LONG_WORD
@given(st.integers(0, 100), _LONG)
def test_qtest_errors_never_contain_a_long_word(tmp_path, k, word):
    (tmp_path / "c.fqt").write_text("qreg q 2\nx q[0]\n")
    text = _replace(QTEST, k, word, skip=("c.fqt",))
    (tmp_path / "s.qtest").write_text(text, encoding="utf-8")
    try:
        messages = [r.message for r in run_suite(parse_suite(tmp_path / "s.qtest")).results]
    except SuiteError as e:
        messages = [str(e)]
    assert not any(word in m for m in messages)
