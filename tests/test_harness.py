"""Test harness: preparations, expectations, suite files."""
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qforge import harness
from qforge.harness import (
    AmplitudeExpectation,
    Backend,
    CaseResult,
    SuiteError,
    TestCase,
    parse_assignments,
    parse_suite,
    run_suite,
)
from qforge.ir import (
    Circuit,
    Gate,
    GateKind,
    Index,
    Named,
    cnot,
    encode_registers,
    h,
    mcx,
    new_circuit,
    x,
)
from qforge.library import fixture_path, mod_add
from qforge.statevector import run

from helpers import random_indexed_circuit

SQ2 = 1 / math.sqrt(2)


def adder_case(name, a, b, expect):
    return TestCase(
        name=name,
        circuit=mod_add(4),
        backend=Backend.LOGIC,
        prep={"a": a, "b": b},
        expect_registers=expect,
    )


def bell_circuit():
    q = new_circuit(("q", 2))
    return q + h(Named("q", 0)) + cnot(Named("q", 0), Named("q", 1))


class TestRunSuite:
    def test_pass(self):
        report = run_suite([adder_case("ok", 1, 2, {"b": 3})])
        assert report.results[0].status == "pass"
        assert report.all_passed

    def test_fail_with_expected_and_actual(self):
        report = run_suite([adder_case("bad", 1, 2, {"b": 4})])
        (res,) = report.results
        assert res.status == "fail"
        assert "expected b=4" in res.message
        assert "actual b=3" in res.message

    def test_backend_mismatch_is_error_not_fail(self):
        case = TestCase(
            name="h_under_logic",
            circuit=new_circuit(("q", 1)) + h(Named("q", 0)),
            backend=Backend.LOGIC,
        )
        (res,) = run_suite([case]).results
        assert res.status == "error"
        assert "state-vector" in res.message

    def test_verify_failure_is_error(self):
        case = TestCase(
            name="broken",
            circuit=new_circuit(("q", 1)) + x(Named("q", 3)),
            backend=Backend.LOGIC,
        )
        (res,) = run_suite([case]).results
        assert res.status == "error"

    def test_expect_of_undeclared_register_is_error(self):
        (res,) = run_suite([adder_case("typo", 1, 2, {"bb": 1})]).results
        assert res.status == "error"
        assert "unknown register 'bb'" in res.message

    def test_bad_prep_is_error(self):
        (res,) = run_suite(
            [
                TestCase(
                    name="overflow",
                    circuit=mod_add(4),
                    backend=Backend.LOGIC,
                    prep={"a": 16},
                )
            ]
        ).results
        assert res.status == "error"

    def test_exhaustive_adder_suite(self):
        cases = [
            adder_case(f"add_{a}_{b}", a, b, {"b": (a + b) % 16, "a": a, "c": 0})
            for a in range(16)
            for b in range(16)
        ]
        report = run_suite(cases)
        assert report.passed == 256
        assert report.failed == 0 and report.errors == 0

    def test_determinism(self):
        cases = [adder_case("r", 3, 9, {"b": 12}), adder_case("w", 1, 1, {"b": 3})]
        assert run_suite(cases) == run_suite(cases)

    def test_sv_state_too_large_is_error_and_suite_goes_on(self):
        wide = TestCase(
            name="wide",
            circuit=new_circuit(("q", 40)) + h(Named("q", 0)),
            backend=Backend.SV,
        )
        ok = adder_case("ok", 1, 2, {"b": 3})
        wide_result, ok_result = run_suite([wide, ok]).results
        assert wide_result.status == "error"
        assert "40 qubits need" in wide_result.message
        assert ok_result.status == "pass"

    def test_sv_case_on_empty_circuit_is_error(self):
        empty = TestCase(name="empty", circuit=new_circuit(), backend=Backend.SV)
        (result,) = run_suite([empty]).results
        assert result.status == "error"
        assert "n_qubits must be positive" in result.message

    def test_sv_amplitudes_pass(self):
        case = TestCase(
            name="bell",
            circuit=bell_circuit(),
            backend=Backend.SV,
            expect_amplitudes=[
                AmplitudeExpectation(0, complex(SQ2, 0), 1e-9),
                AmplitudeExpectation(3, complex(SQ2, 0), 1e-9),
            ],
        )
        (res,) = run_suite([case]).results
        assert res.status == "pass", res.message

    def test_sv_unlisted_leakage_fails(self):
        case = TestCase(
            name="bell_missing_entry",
            circuit=bell_circuit(),
            backend=Backend.SV,
            expect_amplitudes=[AmplitudeExpectation(0, complex(SQ2, 0), 1e-9)],
        )
        (res,) = run_suite([case]).results
        assert res.status == "fail"
        assert "unlisted" in res.message

    def test_sv_first_of_several_unlisted_amplitudes_is_named(self):
        q = Named("q", 0), Named("q", 1), Named("q", 2)
        circuit = new_circuit(("q", 3)) + h(q[0]) + h(q[1]) + h(q[2])
        amp = complex(1 / math.sqrt(8), 0)
        case = TestCase(
            name="uniform",
            circuit=circuit,
            backend=Backend.SV,
            expect_amplitudes=[
                AmplitudeExpectation(0, amp, 1e-9),
                AmplitudeExpectation(1, amp, 1e-6),
                AmplitudeExpectation(3, amp, 1e-6),
            ],
        )
        (res,) = run_suite([case]).results
        assert res.status == "fail"
        assert res.message == "unlisted amplitude[2] = 0.353553391+0j exceeds 1e-09"

    def test_sv_wrong_amplitude_fails(self):
        case = TestCase(
            name="bell_wrong",
            circuit=bell_circuit(),
            backend=Backend.SV,
            expect_amplitudes=[
                AmplitudeExpectation(0, complex(1.0, 0), 1e-3),
                AmplitudeExpectation(3, complex(SQ2, 0), 1e-3),
            ],
        )
        (res,) = run_suite([case]).results
        assert res.status == "fail"

    def test_sv_amplitude_index_out_of_range_is_error(self):
        case = TestCase(
            name="bell_wide",
            circuit=bell_circuit(),
            backend=Backend.SV,
            expect_amplitudes=[AmplitudeExpectation(4, complex(SQ2, 0), 1e-9)],
        )
        (res,) = run_suite([case]).results
        assert (res.status, res.message) == (
            "error", "expected amplitude index 4 does not fit 2 qubits"
        )

    def test_lower_flag_keeps_semantics(self):
        circuit = new_circuit(("q", 4)) + mcx(
            [Named("q", 1), Named("q", 2), Named("q", 3)], Named("q", 0)
        )
        case = TestCase(
            name="c3x",
            circuit=circuit,
            backend=Backend.LOGIC,
            prep={"q": 0b1110},
            expect_registers={"q": 0b1111},
        )
        for lower in (False, True):
            (res,) = run_suite([case], lower=lower).results
            assert res.status == "pass", res.message


class TestParseSuite:
    def test_bundled_suite(self):
        cases = parse_suite(fixture_path("modadd4.qtest"))
        assert [c.name for c in cases] == [
            "add_1_2",
            "add_7_9",
            "wraparound",
            "add_zero",
            "sv_add_2_3",
        ]
        assert cases[0].backend is Backend.LOGIC
        assert cases[-1].backend is Backend.SV
        assert cases[-1].expect_amplitudes[0].index == 82
        report = run_suite(cases)
        assert report.all_passed

    def test_circuit_paths_resolve_relative(self, tmp_path):
        (tmp_path / "c.fqt").write_text("qreg q 1\nx q[0]\n")
        (tmp_path / "s.qtest").write_text(
            "circuit c.fqt\nbackend logic\ncase flip prep q=0 expect q=1\n"
        )
        cases = parse_suite(tmp_path / "s.qtest")
        assert run_suite(cases).all_passed

    @pytest.mark.parametrize(
        "text, match",
        [
            ("case x prep a=1\n", "before any circuit"),
            ("backend quantum\n", "backend"),
            ("circuit a.fqt b.fqt\n", "one path"),
            ("expect amp 0 1 0 tol 1e-9\n", "before any case"),
            ("bogus line\n", "unknown keyword"),
        ],
    )
    def test_malformed_suites(self, tmp_path, text, match):
        (tmp_path / "s.qtest").write_text(text)
        with pytest.raises(SuiteError, match=match):
            parse_suite(tmp_path / "s.qtest")

    def test_amp_line_requires_sv(self, tmp_path):
        (tmp_path / "c.fqt").write_text("qreg q 1\nx q[0]\n")
        (tmp_path / "s.qtest").write_text(
            "circuit c.fqt\nbackend logic\ncase a prep q=0\n"
            "expect amp 0 1 0 tol 1e-9\n"
        )
        with pytest.raises(SuiteError, match="sv backend"):
            parse_suite(tmp_path / "s.qtest")

    @pytest.mark.parametrize("words", ["prep q=0,q=1", "expect q=1,q=1"])
    def test_register_assigned_twice(self, tmp_path, words):
        (tmp_path / "c.fqt").write_text("qreg q 1\nx q[0]\n")
        (tmp_path / "s.qtest").write_text(
            f"circuit c.fqt\nbackend logic\ncase dup {words}\n"
        )
        with pytest.raises(SuiteError, match="line 3: .*twice") as info:
            parse_suite(tmp_path / "s.qtest")
        assert info.value.line == 3

    @pytest.mark.parametrize(
        "words",
        ["prep q=1 prep q=0", "expect q=1 expect q=0", "prep q=0 expect q=1 prep q=1"],
    )
    def test_keyword_given_twice(self, tmp_path, words):
        (tmp_path / "c.fqt").write_text("qreg q 1\nx q[0]\n")
        (tmp_path / "s.qtest").write_text(
            f"circuit c.fqt\nbackend logic\ncase dup {words}\n"
        )
        with pytest.raises(SuiteError, match="line 3: .*given twice") as info:
            parse_suite(tmp_path / "s.qtest")
        assert info.value.line == 3

    def test_register_expectation_requires_logic(self, tmp_path):
        (tmp_path / "c.fqt").write_text("qreg q 1\nx q[0]\n")
        (tmp_path / "s.qtest").write_text(
            "circuit c.fqt\nbackend sv\ncase a prep q=0 expect q=1\n"
        )
        with pytest.raises(
            SuiteError, match="line 3: register expectations need the logic backend"
        ):
            parse_suite(tmp_path / "s.qtest")

    def test_circuit_with_non_ascii_digit(self, tmp_path):
        (tmp_path / "c.fqt").write_text("qreg q \u00b2\n", encoding="utf-8")
        (tmp_path / "s.qtest").write_text("circuit c.fqt\n")
        with pytest.raises(SuiteError, match="line 1: bad circuit c.fqt: line 1, col 8"):
            parse_suite(tmp_path / "s.qtest")

    def test_missing_circuit_file(self, tmp_path):
        (tmp_path / "s.qtest").write_text("circuit nope.fqt\n")
        with pytest.raises(SuiteError, match="cannot read"):
            parse_suite(tmp_path / "s.qtest")

    def test_non_utf8_circuit_file(self, tmp_path):
        (tmp_path / "bad.fqt").write_bytes(b"qreg q 1\nx q[0] \xff\n")
        (tmp_path / "s.qtest").write_text("# header\n\ncircuit bad.fqt\n")
        with pytest.raises(SuiteError, match="cannot read circuit bad.fqt: not UTF-8") as info:
            parse_suite(tmp_path / "s.qtest")
        assert info.value.line == 3

    @pytest.mark.parametrize("ch", list("\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_a_comment_keeps_its_line(self, tmp_path, ch):
        # only a newline ends a line; str.splitlines would also end one at ch
        (tmp_path / "c.fqt").write_text(f"qreg q 1 # one{ch}qubit\n", encoding="utf-8")
        suite = f"circuit c.fqt # adder{ch}(4 bits)\nbogus\n"
        (tmp_path / "s.qtest").write_text(suite, encoding="utf-8")
        with pytest.raises(SuiteError, match="^line 2: unknown keyword 'bogus'$"):
            parse_suite(tmp_path / "s.qtest")

    def test_non_utf8_suite_file(self, tmp_path):
        path = tmp_path / "s.qtest"
        path.write_bytes(b"# \xff\n")
        with pytest.raises(SuiteError, match=r"cannot read suite .*s\.qtest: not UTF-8 \("):
            parse_suite(path)

    @pytest.mark.parametrize(
        "line, match",
        [
            ("expect amp \u0660 1 0 tol 1e-9", "index must be ASCII decimal"),
            ("expect amp 1_0 1 0 tol 1e-9", "index must be ASCII decimal"),
            ("expect amp 0 nan 0 tol 1e-9", "parts must be finite"),
            ("expect amp 0 1 -inf tol 1e-9", "parts must be finite"),
            ("expect amp 1 5 0 tol nan", "tolerance must be finite"),
            ("expect amp 1 5 0 tol inf", "tolerance must be finite"),
            ("expect amp 0 1 0 tol -1", "tolerance must be finite and at least 0"),
            pytest.param(
                f"expect amp {'1' * 5000} 1 0 tol 0", "bad number", id="index-of-5000-digits"
            ),
            # float() alone reads these as 0.70710678 and 1e-05
            pytest.param(
                "expect amp 0 \u0660.7_0710678 0 tol 1e-6",
                "bad number in amplitude expectation",
                id="non-ascii-part",
            ),
            pytest.param(
                "expect amp 0 1 0 tol 1_0e-6",
                "bad number in amplitude expectation",
                id="underscored-tolerance",
            ),
        ],
    )
    def test_amplitude_numbers_are_checked(self, tmp_path, line, match):
        (tmp_path / "c.fqt").write_text("qreg q 3\n")
        (tmp_path / "s.qtest").write_text(f"circuit c.fqt\nbackend sv\ncase z\n{line}\n")
        with pytest.raises(SuiteError, match=match) as info:
            parse_suite(tmp_path / "s.qtest")
        assert info.value.line == 4

    def test_exact_amplitude_with_zero_tolerance(self, tmp_path):
        (tmp_path / "c.fqt").write_text("qreg q 3\n")
        (tmp_path / "s.qtest").write_text(
            "circuit c.fqt\nbackend sv\ncase z\nexpect amp 000 1 0 tol 0\n"
        )
        (case,) = parse_suite(tmp_path / "s.qtest")
        assert case.expect_amplitudes == [AmplitudeExpectation(0, 1, 0.0)]
        assert run_suite([case]).all_passed

    def test_circuit_path_with_nul_byte(self, tmp_path):
        (tmp_path / "s.qtest").write_text("# header\ncircuit c\0.fqt\n")
        with pytest.raises(SuiteError, match="NUL byte") as info:
            parse_suite(tmp_path / "s.qtest")
        assert info.value.line == 2

    @pytest.mark.parametrize("words", ["prep q=\u0663", "expect q=1_0"])
    def test_non_ascii_or_underscored_value(self, tmp_path, words):
        (tmp_path / "c.fqt").write_text("qreg q 4\nx q[0]\n")
        (tmp_path / "s.qtest").write_text(f"circuit c.fqt\ncase one {words}\n")
        with pytest.raises(SuiteError, match="bad integer in entry") as info:
            parse_suite(tmp_path / "s.qtest")
        assert info.value.line == 2


class TestParseAssignments:
    def test_values_and_empty_entries(self):
        assert parse_assignments("a=3,,b=0x10,") == {"a": 3, "b": 16}
        assert parse_assignments("a=0,b=0b101,c=0o17,d=0XfF") == {
            "a": 0, "b": 5, "c": 15, "d": 255,
        }
        assert parse_assignments("") == {}

    @pytest.mark.parametrize(
        "text",
        [
            "a", "=3", "a=x", "a=1,a=2", "a=\u0663", "a=1_0", "a= 3", "a=-3", "a=007",
            pytest.param("a=" + "1" * 5000, id="a=<5000 digits>"),
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_assignments(text)


# Suite text: lines of each statement's shape with good and bad
# arguments, so that parsing gets past the first line, plus raw text.
_ARG = st.sampled_from(["0", "3", "-1", "1e-9", "nan", "inf", "\u0663", "1_0", "9" * 5000])
_ASSIGNMENTS = st.sampled_from(["q=1", "q=0x3,r=1", "q=", "=1", "q=1,q=2", "z=1", "q=9"])
_SUITE_LINE = st.one_of(
    st.sampled_from(["good.fqt", "bad.fqt", "raw.fqt", "none.fqt", ".", "a\0b"]).map(
        "circuit {}".format
    ),
    st.sampled_from(["logic", "sv", "gpu", "sv sv"]).map("backend {}".format),
    st.lists(st.tuples(st.sampled_from(["prep", "expect", "tol"]), _ASSIGNMENTS)).map(
        lambda pairs: " ".join(["case c", *(f"{key} {value}" for key, value in pairs)])
    ),
    st.builds("expect amp {} {} {} tol {}".format, _ARG, _ARG, _ARG, _ARG),
    st.lists(st.text(max_size=3), max_size=6).map(" ".join),
)
_SUITE = st.lists(_SUITE_LINE, max_size=8).map("\n".join) | st.text()


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_SUITE)
def test_parse_suite_is_total(tmp_path, text):
    (tmp_path / "good.fqt").write_text("qreg q 2\nqreg r 1\nx q[0] q[1]\n")
    (tmp_path / "bad.fqt").write_text("qreg q 2\nx q[5\n")
    (tmp_path / "raw.fqt").write_bytes(b"qreg q 1\nx q[0] \xff\n")
    (tmp_path / "s.qtest").write_text(text, encoding="utf-8")
    try:
        cases = parse_suite(tmp_path / "s.qtest")
    except SuiteError:
        return
    assert all(isinstance(case, TestCase) for case in cases)


@pytest.mark.parametrize("lower", [False, True])
def test_each_circuit_is_prepared_once(monkeypatch, lower):
    calls = []
    for name in ("checked", "lower"):
        original = getattr(harness, name)
        monkeypatch.setattr(
            harness, name, lambda c, *a, f=original: calls.append(c) or f(c, *a)
        )
    adder = mod_add(4)
    other = mod_add(4)  # equal, but its own object
    cases = [
        TestCase("a", adder, Backend.LOGIC, {"a": 1, "b": 2}, {"b": 3}),
        TestCase("b", other, Backend.LOGIC, {"a": 2, "b": 2}, {"b": 4}),
        TestCase("c", adder, Backend.LOGIC, {"a": 3, "b": 2}, {"b": 6}),
        TestCase("d", adder, Backend.SV, {"a": 3, "b": 2}),
    ]
    report = run_suite(cases, lower=lower)
    assert [r.name for r in report.results] == ["a", "b", "c", "d"]
    assert [r.status for r in report.results] == ["pass", "pass", "fail", "fail"]
    assert [id(c) for c in calls] == [id(adder), id(other)]


def test_a_circuit_that_fails_to_prepare_fails_each_of_its_cases():
    broken = new_circuit(("q", 1)) + x(Named("q", 3))
    cases = [
        TestCase("a", broken, Backend.LOGIC),
        adder_case("ok", 1, 2, {"b": 3}),
        TestCase("b", broken, Backend.SV),
    ]
    results = run_suite(cases).results
    assert [r.status for r in results] == ["error", "pass", "error"]
    assert results[0].message == results[2].message
    assert results[0].message.startswith("verify: 1 error(s); first: gate 0:")


# ---- register expectations checked against their register's width


def _wide_suite(tmp_path, case_words: str):
    (tmp_path / "q.fqt").write_text("qreg q 400\nx q[0]\n")
    (tmp_path / "s.qtest").write_text(f"circuit q.fqt\nbackend logic\ncase t {case_words}\n")
    return run_suite(parse_suite(tmp_path / "s.qtest")).results[0]


def test_expectation_wider_than_its_register_is_an_error(tmp_path):
    result = _wide_suite(tmp_path, "prep q=0 expect q=0x" + "f" * 5000)
    assert result.status == "error"
    assert result.message == "register 'q' expectation of 20000 bits does not fit 400 qubits"


@pytest.mark.parametrize(
    "literal, shown",
    [
        ("2", "2"),
        ("0x10", "16"),
        ("0x" + "f" * 62, str((1 << 248) - 1)),  # 64 characters: shown whole
        ("1" * 100, "token of 100 characters"),
        ("0b" + "1" * 63, "token of 65 characters"),
    ],
)
def test_mismatch_names_a_long_expectation_by_its_literal(tmp_path, literal, shown):
    result = _wide_suite(tmp_path, f"prep q=0 expect q={literal}")
    assert (result.status, result.message) == ("fail", f"expected q={shown}, actual q=1")


def test_mismatch_names_a_long_actual_value_by_its_length(tmp_path):
    result = _wide_suite(tmp_path, f"prep q={(1 << 399) - 2} expect q=0")
    assert result.status == "fail"
    assert result.message == "expected q=0, actual q=token of 121 characters"


def _sv_by_dense_read(case):
    # the sv check as it read before it went through entries: run's whole array
    state = run(case.circuit, encode_registers(case.circuit, case.prep))
    floor = min(
        (e.tolerance for e in case.expect_amplitudes), default=harness.DEFAULT_AMPLITUDE_TOL
    )
    for e in case.expect_amplitudes:
        actual = state.amplitudes[e.index]
        if abs(actual - e.amplitude) > e.tolerance:
            return CaseResult(case.name, "fail", f"amplitude[{e.index}] = {actual:.9g}, expected "
                              f"{e.amplitude:.9g} within {e.tolerance:g}")
    large = np.abs(state.amplitudes) > floor
    large[[e.index for e in case.expect_amplitudes]] = False
    if large.any():
        i = int(large.argmax())
        message = f"unlisted amplitude[{i}] = {state.amplitudes[i]:.9g} exceeds {floor:g}"
        return CaseResult(case.name, "fail", message)
    return CaseResult(case.name, "pass")


@st.composite
def _sparse_sv_cases(draw):
    # 12-14 qubits, so the run keeps its support; a few H first, then
    # gates of every kind
    n = draw(st.integers(12, 14))
    rng = random.Random(draw(st.integers(0, 2**32)))
    gates = [Gate(GateKind.H, (Index(q),)) for q in rng.sample(range(n), rng.randint(0, 3))]
    gates += random_indexed_circuit(rng, n, rng.randint(0, 30), p_negative=0.5).gates
    circuit = Circuit((("q", n),), n, tuple(gates))
    prep = rng.getrandbits(n)
    # listed indices: some of the support (so others go unlisted) and a
    # few outside it, each expected exactly, nearly or far from its value
    amps = run(circuit, prep).amplitudes
    support = np.flatnonzero(amps).tolist()
    listed = rng.sample(support, rng.randint(0, len(support)))
    listed += rng.sample(range(1 << n), rng.randint(0, 2))
    expectations = [
        AmplitudeExpectation(i, complex(amps[i]) + rng.choice([0, 1e-7, 0.3j]),
                             rng.choice([1e-9, 1e-6, 0.5]))
        for i in dict.fromkeys(listed)
    ]
    return TestCase("s", circuit, Backend.SV, {"q": prep}, expect_amplitudes=expectations)


@settings(max_examples=100, deadline=None)
@given(_sparse_sv_cases())
def test_sv_cases_on_a_support_match_a_dense_read_property(case):
    assert run_suite([case]).results == (_sv_by_dense_read(case),)
