"""Test harness: preparations, expectations, suite files."""
import math

import pytest

from qforge.harness import (
    AmplitudeExpectation,
    Backend,
    SuiteError,
    TestCase,
    parse_assignments,
    parse_suite,
    run_suite,
)
from qforge.ir import Named, new_circuit, cnot, h, mcx, x
from qforge.library import fixture_path, mod_add

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

    def test_non_utf8_suite_file(self, tmp_path):
        path = tmp_path / "s.qtest"
        path.write_bytes(b"# \xff\n")
        with pytest.raises(SuiteError, match=r"cannot read suite .*s\.qtest: not UTF-8 \("):
            parse_suite(path)

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
        ["a", "=3", "a=x", "a=1,a=2", "a=\u0663", "a=1_0", "a= 3", "a=-3", "a=007"],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_assignments(text)
