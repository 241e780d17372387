"""End-to-end CLI behaviour: outputs, exit codes, atomic writes."""
import json
import random
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qforge import cli
from qforge.cli import main
from qforge.harness import SuiteError
from qforge.ir import Circuit, CircuitError, Gate, GateKind, Index, InputError, QforgeError, decimal
from qforge.library import cuccaro_full_add, fixture_path
from qforge.logic import NonLogicGate, logic_function
from qforge.passes import CompileError, checked, resolve_names
from qforge.qp import QPFormatError, parse_qp, to_circuit
from qforge.reduction import ReductionError
from qforge.source import ParseError, parse_source, print_source
from qforge.statevector import (
    BasisOutOfRange,
    StateTooLarge,
    StateVector,
    apply_gate,
    init_state,
    probabilities,
    run,
)

from helpers import random_indexed_circuit

FULLADD = "cuccaro_fulladd4.fqt"
MODADD = "cuccaro_modadd4_rearranged.fqt"
# stdout, exit codes and reduce outputs on the bundled fixtures, recorded
# before the lowering pipeline and register codec were merged
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def write_circuit(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCheck:
    def test_clean_circuit(self, capsys):
        assert main(["check", fixture_path(FULLADD)]) == 0
        out = capsys.readouterr()
        assert "ok: 10 qubits, 25 gates" in out.out
        assert out.err == ""

    def test_bad_circuit(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "bad.fqt", "qreg q 2\nx q[5]\n")
        assert main(["check", path]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "bad.fqt", "frobnicate q[0]\n")
        assert main(["check", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/x.fqt"]) == 1


class TestCompile:
    def test_writes_program_and_reports_gate_count(self, tmp_path, capsys):
        out = tmp_path / "modadd4.qp"
        assert main(["compile", fixture_path(MODADD), "-o", str(out)]) == 0
        assert "20 gates, 9 qubits" in capsys.readouterr().out
        text = out.read_text()
        assert text.startswith("9 20 2")

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.qp"
        b = tmp_path / "b.qp"
        main(["compile", fixture_path(MODADD), "-o", str(a)])
        main(["compile", fixture_path(MODADD), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_matches_committed_golden(self, tmp_path):
        out = tmp_path / "modadd4.qp"
        main(["compile", fixture_path(MODADD), "-o", str(out)])
        from pathlib import Path

        golden = Path(__file__).parent / "data" / "cuccaro_modadd4_rearranged.qp"
        assert out.read_text() == golden.read_text()

    def test_no_partial_output_on_error(self, tmp_path, capsys):
        bad = write_circuit(tmp_path, "bad.fqt", "qreg q 2\nx q[5]\n")
        out = tmp_path / "never.qp"
        assert main(["compile", bad, "-o", str(out)]) == 1
        assert not out.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_max_controls_flag(self, tmp_path):
        circuit = write_circuit(
            tmp_path, "c3x.fqt", "qreg q 4\nx q[0] q[1] q[2] q[3]\n"
        )
        out = tmp_path / "c3x.qp"
        assert main(["compile", circuit, "-o", str(out), "--max-controls", "3"]) == 0
        assert out.read_text() == "4 1 3  1 0 1 2 3"


    @pytest.mark.parametrize("value", ["\u0663", "1_0", "-3", "1"])
    def test_max_controls_needs_an_ascii_integer_of_at_least_two(
        self, tmp_path, value, capsys
    ):
        out = tmp_path / "x.qp"
        args = ["compile", fixture_path(MODADD), "-o", str(out), f"--max-controls={value}"]
        assert main(args) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


class TestSim:
    def test_logic_backend_register_report(self, capsys):
        code = main(
            ["sim", fixture_path(FULLADD), "--backend", "logic", "--prep", "a=3,b=5"]
        )
        assert code == 0
        assert capsys.readouterr().out == "a=3 b=8 c=0 z=0\n"

    def test_logic_backend_rejects_hadamard(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "h.fqt", "qreg q 1\nh q[0]\n")
        assert main(["sim", path, "--backend", "logic"]) == 1
        assert "state-vector" in capsys.readouterr().err

    def test_sv_backend_top_amplitudes(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "bell.fqt", "qreg q 2\nh q[0]\nx q[1] q[0]\n")
        assert main(["sim", path, "--backend", "sv", "--top", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2  # only two basis states carry weight
        assert lines[0].startswith("0 00 0.7071067812")
        assert lines[1].startswith("3 11 0.7071067812")

    def test_sv_top_breaks_probability_ties_by_index(self, tmp_path, capsys):
        # a[0]=0 leaves 4 states at 1/8; a[0]=1 splits into 8 states at 1/16
        text = "qreg a 4\nh a[0]\nh a[2]\nh a[3]\nh a[1] a[0]\n"
        path = write_circuit(tmp_path, "ties.fqt", text)
        assert main(["sim", path, "--top", "7"]) == 0
        shown = [int(line.split()[0]) for line in capsys.readouterr().out.splitlines()]
        assert shown == [0, 4, 8, 12, 1, 3, 5]

    def test_sv_state_too_large_is_user_error(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "wide.fqt", "qreg a 40\nh a[0]\n")
        assert main(["sim", path, "--backend", "sv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 40 qubits need ") and "Traceback" not in err

    def test_sim_compiled_qp_file(self, tmp_path, capsys):
        qp = tmp_path / "modadd4.qp"
        main(["compile", fixture_path(MODADD), "-o", str(qp)])
        capsys.readouterr()  # flush the compile report
        prep = 5 | (9 << 4)  # a=5, b=9
        assert main(["sim", str(qp), "--backend", "logic", "--prep", str(prep)]) == 0
        out = capsys.readouterr().out.strip()
        want = 5 | (14 << 4)
        assert out == format(want, "09b")

    def test_bare_prep_out_of_range_is_user_error(self, capsys):
        for prep in ("-1", str(1 << 10)):
            assert main(["sim", fixture_path(FULLADD), f"--prep={prep}"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("prep", ["\u0663", "1_0", "a=\u0663", "a=1_0"])
    def test_prep_accepts_only_ascii_literals(self, prep, capsys):
        args = ["sim", fixture_path(FULLADD), "--backend", "logic", "--prep", prep]
        assert main(args) == 1
        assert "bad integer" in capsys.readouterr().err

    def test_register_assigned_twice_is_rejected(self, capsys):
        args = ["sim", fixture_path(FULLADD), "--backend", "logic"]
        assert main(args + ["--prep", "b=1,b=2"]) == 1
        assert "twice" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["\u0663", "1_0", "0", "-3"])
    def test_top_needs_a_positive_ascii_integer(self, value, capsys):
        assert main(["sim", fixture_path(FULLADD), f"--top={value}"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(("usage:", "error: --top"))

    def test_empty_circuit_is_user_error(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "empty.fqt", "# nothing\n")
        assert main(["sim", path]) == 1
        assert "n_qubits must be positive" in capsys.readouterr().err

    def test_verify_failure_is_one_line(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "bad.fqt", "qreg q 2\nx q[5]\nx q[6]\n")
        assert main(["sim", path]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: verify: 2 error(s); first: gate 0: "
            "qubit q[5] out of range (register has 2 qubits)\n"
        )


class TestReduce:
    def test_kernel_family(self, tmp_path, capsys):
        outdir = tmp_path / "kernels"
        code = main(
            [
                "reduce",
                fixture_path(MODADD),
                "--qubits",
                "a3,a2,a1,a0,c",
                "--values",
                "00010,00100,00110",
                "-o",
                str(outdir),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "00010" in stdout and "semantic" in stdout
        manifest = json.loads(
            (outdir / "cuccaro_modadd4_rearranged.manifest.json").read_text()
        )
        assert len(manifest["kernels"]) == 3
        for entry, inc in zip(manifest["kernels"], (1, 2, 3)):
            kernel = parse_source((outdir / entry["file"]).read_text())
            resolved, _ = resolve_names(kernel)
            step = logic_function(resolved)
            assert all(step(v) == (v + inc) % 16 for v in range(16))

    def test_bracket_and_index_qubit_spellings(self, tmp_path):
        outdir = tmp_path / "k"
        code = main(
            [
                "reduce",
                fixture_path(MODADD),
                "--qubits",
                "a[3],a[2],a[1],0,c",
                "--values",
                "00010",
                "-o",
                str(outdir),
            ]
        )
        assert code == 0

    def test_entangled_value_fails_with_partial_results(self, tmp_path, capsys):
        circuit = write_circuit(
            tmp_path, "ent.fqt", "qreg a 1\nqreg b 1\nx a[0] b[0]\n"
        )
        outdir = tmp_path / "k"
        code = main(
            ["reduce", circuit, "--qubits", "a", "--values", "0", "-o", str(outdir)]
        )
        assert code == 1
        assert "constant" in capsys.readouterr().err
        manifest = json.loads((outdir / "ent.manifest.json").read_text())
        assert "error" in manifest["kernels"][0]

    def test_byte_identical_across_runs(self, tmp_path):
        args = [
            "reduce",
            fixture_path(MODADD),
            "--qubits",
            "a3,a2,a1,a0,c",
            "--values",
            "00010,00100",
        ]
        first, second = tmp_path / "one", tmp_path / "two"
        assert main(args + ["-o", str(first)]) == 0
        assert main(args + ["-o", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_drifting_constant_shows_in_the_manifest_only(self, tmp_path, capsys):
        # the CNOT pair sends a to the semantic path; the X leaves it flipped
        circuit = write_circuit(
            tmp_path, "drift.fqt", "qreg a 1\nqreg b 2\nx a[0] b[0]\nx a[0] b[0]\nx a[0]\n"
        )
        args = ["reduce", circuit, "--qubits", "a", "--values", "0", "-o", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 0
        assert capsys.readouterr().err == ""
        (entry,) = json.loads((tmp_path / "drift.manifest.json").read_text())["kernels"]
        assert entry["method"] == "semantic"
        assert entry["final_constants"] == {"0": 1}

    @pytest.mark.parametrize("token", ["a[\u0663]", "\u0663", "a[1_0]", "a[+3]"])
    def test_qubit_token_needs_ascii_digits(self, tmp_path, token, capsys):
        args = ["reduce", fixture_path(MODADD), "--qubits", token, "--values", "0"]
        assert main(args + ["-o", str(tmp_path / "k")]) == 1
        assert f"cannot resolve qubit {token!r}" in capsys.readouterr().err

    def test_bad_qubit_token(self, tmp_path, capsys):
        code = main(
            [
                "reduce",
                fixture_path(MODADD),
                "--qubits",
                "zz9",
                "--values",
                "0",
                "-o",
                str(tmp_path / "k"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "token",
        ["a[x" + "1" * 5000 + "]", "zz" + "1" * 5000, "zz" * 2500 + "[1]"],
        ids=["bad-offset", "unknown-name", "undeclared-register"],
    )
    def test_long_unresolvable_token_is_named_by_its_length(self, tmp_path, token, capsys):
        args = ["reduce", fixture_path(MODADD), "--qubits", token, "--values", "0"]
        assert main(args + ["-o", str(tmp_path / "k")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot resolve qubit token of {len(token)} characters\n"

    def test_long_register_token_is_named_by_its_length(self, tmp_path, capsys):
        label = "r" * 5000
        circuit = write_circuit(tmp_path, "long.fqt", f"qreg {label} 2\nx {label}[0]\n")
        args = ["reduce", circuit, "--qubits", label, "--values", "0"]
        assert main(args + ["-o", str(tmp_path / "k")]) == 1
        err = capsys.readouterr().err
        assert err == "error: token of 5000 characters is a register, not a single qubit\n"


class TestTestSubcommand:
    def test_bundled_suite_passes(self, capsys):
        assert main(["test", fixture_path("modadd4.qtest")]) == 0
        out = capsys.readouterr().out
        assert "5 passed, 0 failed, 0 errors" in out
        assert out.count("PASS") == 5

    def test_failing_suite_exit_code(self, tmp_path, capsys):
        (tmp_path / "c.fqt").write_text("qreg q 1\nx q[0]\n")
        (tmp_path / "s.qtest").write_text(
            "circuit c.fqt\nbackend logic\ncase wrong prep q=0 expect q=0\n"
        )
        assert main(["test", str(tmp_path / "s.qtest")]) == 1
        out = capsys.readouterr().out
        assert "FAIL wrong" in out

    def test_lower_flag(self, tmp_path):
        (tmp_path / "c.fqt").write_text("qreg q 4\nx q[0] q[1] q[2] q[3]\n")
        (tmp_path / "s.qtest").write_text(
            "circuit c.fqt\nbackend logic\n"
            "case fire prep q=14 expect q=15\n"
            "case hold prep q=6 expect q=6\n"
        )
        assert main(["test", str(tmp_path / "s.qtest"), "--lower"]) == 0


class TestGolden:
    @pytest.mark.parametrize(
        "key, args",
        [
            ("sim_logic", ["sim", FULLADD, "--backend", "logic", "--prep", "a=3,b=5"]),
            ("sim_sv", ["sim", FULLADD, "--backend", "sv", "--prep", "a=3,b=5"]),
            ("test", ["test", "modadd4.qtest"]),
            ("test_lower", ["test", "modadd4.qtest", "--lower"]),
        ],
    )
    def test_stdout_and_exit_code(self, key, args, capsys):
        code = main([args[0], fixture_path(args[1]), *args[2:]])
        assert [code, capsys.readouterr().out] == [
            GOLDEN["runs"][key]["exit"],
            GOLDEN["runs"][key]["stdout"],
        ]

    def test_reduce_outputs(self, tmp_path, capsys):
        code = main(
            [
                "reduce",
                fixture_path(MODADD),
                "--qubits",
                "a3,a2,a1,a0,c",
                "--values",
                "00010,00100,00110",
                "-o",
                str(tmp_path),
            ]
        )
        assert [code, capsys.readouterr().out] == [
            GOLDEN["runs"]["reduce"]["exit"],
            GOLDEN["runs"]["reduce"]["stdout"],
        ]
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert written == {
            name: text.encode() for name, text in GOLDEN["reduce_files"].items()
        }


@pytest.mark.parametrize(
    "command",
    [
        ["check"],
        ["compile", "-o", "x.qp"],
        ["sim"],
        ["reduce", "--qubits", "a0", "--values", "0", "-o", "k"],
    ],
)
def test_non_utf8_file_is_user_error(tmp_path, command, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.fqt").write_bytes(b"qreg a 1\nx a[0] # \xff\n")
    assert main([command[0], "bad.fqt", *command[1:]]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read bad.fqt: not UTF-8 (")


class TestSizeLimits:
    """Absurd declared sizes are refused before any work starts."""

    @pytest.mark.parametrize("backend", ["logic", "sv"])
    def test_huge_qp_header(self, tmp_path, backend, capsys):
        (tmp_path / "huge.qp").write_text("100000000000000000000 0 2")
        assert main(["sim", str(tmp_path / "huge.qp"), "--backend", backend]) == 1
        assert "n_qubits must be 1 to 65536" in capsys.readouterr().err

    def test_huge_register_sim(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "huge.fqt", "qreg a 100000000000000000000\nx a[0]\n")
        assert main(["sim", path, "--backend", "logic", "--prep", "a=1"]) == 1
        assert "line 1, col 8: size above 65536" in capsys.readouterr().err

    def test_huge_register_reduce(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "huge.fqt", "qreg a 100000000000000000000\nx a[0]\n")
        args = ["reduce", path, "--qubits", "a0", "--values", "1", "-o", str(tmp_path / "k")]
        assert main(args) == 1
        assert "line 1, col 8: size above 65536" in capsys.readouterr().err

    @staticmethod
    def _reduce_wide(tmp_path, bits):
        path = write_circuit(tmp_path, "wide.fqt", "qreg c 300\nqreg t 1\nx t[0] c[0]\n")
        qubits = ",".join(f"c{i}" for i in range(bits))
        out = str(tmp_path / "k")
        return main(["reduce", path, "--qubits", qubits, "--values", "0" * bits, "-o", out])

    def test_kernel_name_of_255_bytes_is_written(self, tmp_path, capsys):
        # wide.k<245 bits>.fqt is 255 bytes, the longest name a file takes
        assert self._reduce_wide(tmp_path, 245) == 0
        assert capsys.readouterr().err == ""
        kernels = [p.name for p in (tmp_path / "k").glob("*.fqt")]
        assert kernels == [f"wide.k{'0' * 245}.fqt"] and len(kernels[0]) == 255

    def test_longer_kernel_name_is_refused_before_any_work(
        self, tmp_path, monkeypatch, capsys
    ):
        def never(*args):
            raise AssertionError("generate_kernels ran")

        monkeypatch.setattr(cli, "generate_kernels", never)
        assert self._reduce_wide(tmp_path, 246) == 1
        err = capsys.readouterr().err
        assert err == "error: a value of 246 bits names a kernel file of 256 bytes; at most 255 fit\n"
        assert not (tmp_path / "k").exists()

    def test_repeated_value_is_refused_before_any_work(self, tmp_path, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("generate_kernels ran")

        monkeypatch.setattr(cli, "generate_kernels", never)
        args = ["reduce", fixture_path(MODADD), "--qubits", "a3,a2,a1,a0,c",
                "--values", "00010,00100,00010", "-o", str(tmp_path / "k")]
        assert main(args) == 1
        assert capsys.readouterr() == ("", "error: value '00010' given twice\n")
        assert not (tmp_path / "k").exists()

    @pytest.mark.parametrize(
        "values, shown",
        [("00010,0001", "'0001'"), ("00010,", "''"), ("000101,00010", "'000101'")],
        ids=["narrow", "empty", "wide"],
    )
    def test_value_of_another_width_is_refused_before_any_work(
        self, tmp_path, monkeypatch, capsys, values, shown
    ):
        def never(*args):
            raise AssertionError("generate_kernels ran")

        monkeypatch.setattr(cli, "generate_kernels", never)
        args = ["reduce", fixture_path(MODADD), "--qubits", "a3,a2,a1,a0,c",
                "--values", values, "-o", str(tmp_path / "k")]
        assert main(args) == 1
        width = len(shown) - 2
        err = f"error: value {shown}: value width {width} != qubit count 5\n"
        assert capsys.readouterr() == ("", err)
        assert not (tmp_path / "k").exists()

    def test_max_controls_bound(self, tmp_path, capsys):
        out = tmp_path / "c.qp"
        args = ["compile", fixture_path(FULLADD), "-o", str(out)]
        assert main(args + ["--max-controls", "1000000"]) == 1
        assert "max_controls must be 2 to 65535" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "prep",
        ["1" * 5000, "a=" + "1" * 5000, "0x" + "f" * 5000, "a=0x" + "f" * 5000],
        ids=["decimal", "register-decimal", "hex", "register-hex"],
    )
    def test_prep_of_thousands_of_digits(self, prep, capsys):
        args = ["sim", fixture_path(FULLADD), "--backend", "logic", f"--prep={prep}"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "token",
        ["a[" + "1" * 5000 + "]", "a" + "1" * 5000, "1" * 5000],
        ids=["bracket", "suffix", "index"],
    )
    def test_qubit_number_of_thousands_of_digits(self, tmp_path, token, capsys):
        args = ["reduce", fixture_path(MODADD), "--qubits", token, "--values", "0"]
        assert main(args + ["-o", str(tmp_path / "k")]) == 1
        err = capsys.readouterr().err
        assert err == "error: qubit number of 5000 digits is above 65536\n"


def test_user_errors_share_one_root():
    for error in (
        CircuitError, ParseError, CompileError, QPFormatError, ReductionError,
        NonLogicGate, SuiteError, StateTooLarge, BasisOutOfRange, InputError,
    ):
        assert issubclass(error, QforgeError)
    assert issubclass(InputError, ValueError)


def test_internal_error_exits_two(monkeypatch, capsys):
    def broken(circuit):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr("qforge.cli.verify", broken)
    assert main(["check", fixture_path(FULLADD)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: a bug, not bad input" in err


# Inputs for the totality property. Each is mostly well formed, so that
# the later stages of a command run too, and otherwise damaged or raw
# bytes. Registers of at most 3 qubits keep every circuit at most 9
# qubits wide, so no state vector or reduction sweep gets large.
def _mostly(good, bad):
    """good five draws in six; st.one_of would draw each side evenly."""
    return st.integers(0, 5).flatmap(lambda i: bad if i == 5 else good)


_GOOD_INT = st.sampled_from(["0", "1", "2", "3", "5", "007", "0x2", "0b11"])
_BAD_INT = st.sampled_from(["", "-1", "99", "\u0663", "1_0", " 3", "nan", "inf", "1e-9"])
_INT = _mostly(_GOOD_INT, _BAD_INT | st.text(max_size=3))
_ASSIGNMENTS = st.lists(
    st.builds("{}={}".format, _mostly(st.sampled_from("ab"), st.sampled_from("cz")), _INT),
    max_size=2,
).map(",".join)
_DECLS = st.lists(
    st.builds("qreg {} {}".format, st.sampled_from("abc"), st.integers(1, 3)),
    unique_by=lambda line: line[5],
    max_size=3,
)
_TARGET = st.builds("{}[{}]".format, st.sampled_from("ab"), st.integers(0, 2))
_CONTROLS = st.lists(
    st.builds("{}{}".format, st.sampled_from(["", "", "!"]), _TARGET), max_size=3
)
_GATE = st.builds(
    lambda gate, targets, controls: " ".join([gate, *targets, *controls]),
    st.sampled_from(["x", "x", "X", "h", "z", "t", "swap"]),
    st.lists(_TARGET, min_size=1, max_size=2),
    _CONTROLS,
)
_FQT = _mostly(
    st.builds(
        lambda decls, body, junk: "\n".join(decls + body + junk).encode(),
        _mostly(st.just(["qreg a 3", "qreg b 3"]), _DECLS),
        st.lists(_GATE, max_size=6),
        _mostly(st.just([]), st.lists(st.text(max_size=8), max_size=1)),
    ),
    st.binary(max_size=30),
)


@st.composite
def _qp_programs(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(2, 3))
    qubit = st.integers(0, n - 1)
    record = st.tuples(
        _mostly(st.integers(1, 8), st.integers(-1, 9)),
        _mostly(qubit, st.integers(-1, n)),
        *[_mostly(st.just(-1), st.integers(-1, n))] * m,
    )
    records = draw(st.lists(record, max_size=5))
    values = [n, len(records), m] + [v for r in records for v in r]
    if draw(st.integers(0, 3)) == 0:
        values = values[: draw(st.integers(0, len(values)))]
    return " ".join(map(str, values)).encode()


_QP = _mostly(_qp_programs(), st.binary(max_size=30))
_AMP = _mostly(st.sampled_from(["0", "1", "0.5", "1e-9"]), _BAD_INT)
_QTEST_LINE = st.one_of(
    st.sampled_from(["backend logic", "backend sv", "backend qpu", "case", "# note"]),
    st.builds("case {} prep {}".format, st.sampled_from("pq"), _ASSIGNMENTS),
    st.builds(
        "case {} prep {} expect {}".format, st.sampled_from("pq"), _ASSIGNMENTS,
        _ASSIGNMENTS,
    ),
    st.builds("expect amp {} {} {} tol {}".format, _INT, _AMP, _AMP, _AMP),
    st.text(max_size=10),
)
_QTEST = _mostly(
    st.builds(
        lambda head, body: "\n".join([head, *body]).encode(),
        _mostly(st.just("circuit c.fqt"), st.sampled_from(["circuit no.fqt", "circuit"])),
        st.lists(_QTEST_LINE, max_size=6),
    ),
    st.binary(max_size=30),
)
_PREP = _mostly(_GOOD_INT | _ASSIGNMENTS, _BAD_INT | st.text(max_size=4))
_COUNT = _mostly(st.sampled_from(["2", "3", "8", "0x3"]), _BAD_INT | st.just("0"))
_QUBITS = _mostly(
    st.lists(st.sampled_from(["a0", "a[1]", "b", "c", "0", "4"]), max_size=3),
    st.lists(st.sampled_from(["a [2]", "zz9", "a[\u0663]", "9", ""]), max_size=2),
).map(",".join)
_VALUES = st.lists(
    _mostly(st.text("01", min_size=1, max_size=3), st.text(max_size=2)), max_size=3
).map(",".join)


def _width(data: bytes, qp: bool) -> int:
    """Qubits of the circuit in data, 0 when it does not load."""
    try:
        text = data.decode()
        return (to_circuit(parse_qp(text)) if qp else parse_source(text)).n_qubits
    except (UnicodeDecodeError, QforgeError):
        return 0


@pytest.mark.parametrize(
    "command", ["check", "compile", "sim-logic", "sim-sv", "sim-qp", "test", "reduce"]
)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    fqt=_FQT, qp=_QP, qtest=_QTEST, prep=_PREP, count=_COUNT, qubits=_QUBITS,
    values=_VALUES, lower=st.booleans(), backend=st.sampled_from(["logic", "sv"]),
)
def test_cli_is_total(
    command, fqt, qp, qtest, prep, count, qubits, values, lower, backend, tmp_path, capsys
):
    assume(_width(fqt, qp=False) <= 10 and _width(qp, qp=True) <= 10)
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "c.fqt").write_bytes(fqt)
    (work / "c.qp").write_bytes(qp)
    (work / "s.qtest").write_bytes(qtest)
    circuit = str(work / "c.fqt")
    argv = {
        "check": ["check", circuit],
        "compile": ["compile", circuit, "-o", str(work / "out.qp"), f"--max-controls={count}"],
        "sim-logic": ["sim", circuit, "--backend", "logic", f"--prep={prep}"],
        "sim-sv": ["sim", circuit, "--backend", "sv", f"--prep={prep}", f"--top={count}"],
        "sim-qp": ["sim", str(work / "c.qp"), "--backend", backend, f"--prep={prep}"],
        "test": ["test", str(work / "s.qtest")] + ["--lower"] * lower,
        "reduce": ["reduce", circuit, f"--qubits={qubits}", f"--values={values}",
                   "-o", str(work / "k")],
    }[command]
    assert main(argv) in (0, 1), capsys.readouterr().err



def test_usage_errors_exit_one(capsys):
    assert main(["compile"]) == 1
    assert main(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


class TestManifestName:
    """reduce checks the manifest's name with the kernels', before any work."""

    @staticmethod
    def _reduce(tmp_path, stem):
        path = write_circuit(tmp_path, f"{stem}.fqt", "qreg c 1\nqreg t 1\nx t[0] c[0]\n")
        return main(["reduce", path, "--qubits", "c", "--values", "0", "-o", str(tmp_path / "k")])

    def test_manifest_name_of_255_bytes_is_written(self, tmp_path, capsys):
        assert self._reduce(tmp_path, "w" * 241) == 0
        names = sorted(p.name for p in (tmp_path / "k").iterdir())
        assert names == ["w" * 241 + ".k0.fqt", "w" * 241 + ".manifest.json"]

    def test_longer_manifest_name_is_refused_before_any_work(
        self, tmp_path, monkeypatch, capsys
    ):
        def never(*args):
            raise AssertionError("generate_kernels ran")

        monkeypatch.setattr(cli, "generate_kernels", never)
        assert self._reduce(tmp_path, "w" * 243) == 1
        err = capsys.readouterr().err
        assert err == "error: a file stem of 243 bytes names a manifest of 257 bytes; at most 255 fit\n"
        assert not (tmp_path / "k").exists()


# ---- sim on wide registers and sparse states


def _dense_gate_loop(circuit, prep):
    state = init_state(circuit.n_qubits, prep)
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state


@pytest.mark.parametrize("hs", [0, 3])
def test_sv_sim_of_a_twenty_qubit_adder_prints_what_the_gate_loop_gives(
    tmp_path, monkeypatch, capsys, hs
):
    text = print_source(cuccaro_full_add(9))  # 20 qubits, registers declared first
    head, body = text.split("\nx ", 1)
    layer = "".join(f"h a[{k}]\n" for k in range(hs))
    path = write_circuit(tmp_path, "add.fqt", f"{head}\n{layer}x {body}")
    args = ["sim", path, "--prep", "a=300,b=100", "--top", "10"]
    assert main(args) == 0
    got = capsys.readouterr().out
    monkeypatch.setattr(cli, "run", _dense_gate_loop)
    assert main(args) == 0
    assert got == capsys.readouterr().out and len(got.splitlines()) == 1 << hs


def test_sv_sim_prints_an_exact_zero_as_0_whichever_path_ran(tmp_path, monkeypatch, capsys):
    # at 12 qubits these gates run sparse; the gate loop leaves a real
    # part of -0.0 where the sparse phase leaves 0.0
    text = "qreg q 12\nsdg q[2] q[1]\ny q[1] q[2]\nh q[1] q[2]\n"
    args = ["sim", write_circuit(tmp_path, "z.fqt", text), "--prep", "5"]
    assert main(args) == 0
    got = capsys.readouterr().out
    monkeypatch.setattr(cli, "run", _dense_gate_loop)
    assert main(args) == 0
    assert got == capsys.readouterr().out
    assert got.splitlines()[1] == "7 000000000111 0 -0.7071067812 0.5"


def _top_by_full_sort(state, top):
    # the rule sim printed by before: every probability sorted
    probs = probabilities(state)
    order = np.argsort(-probs, kind="stable")
    lines = []
    for rank, i in enumerate(map(int, order[:top])):
        if probs[i] < 1e-12 and rank > 0:
            break
        amp = state.amplitudes[i]
        lines.append(f"{i} {format(i, f'0{state.n_qubits}b')} "
                     f"{amp.real:.10g} {amp.imag:.10g} {probs[i]:.10g}\n")
    return "".join(lines)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from([0, 1e-7, -1e-6, 0.5, 0.5j, -0.5, 0.25 + 0.25j, 1e-3]),
                min_size=8, max_size=8),
       st.integers(1, 10))
def test_sv_top_amplitudes_match_a_full_sort(tmp_path, monkeypatch, capsys, amps, top):
    # ties, probabilities under 1e-12 and states with none above it
    state = StateVector(3, np.array(amps, dtype=complex))
    monkeypatch.setattr(cli, "run", lambda circuit, prep: state)
    path = write_circuit(tmp_path, "q.fqt", "qreg q 3\nx q[0]\n")
    assert main(["sim", path, "--top", str(top)]) == 0
    assert capsys.readouterr().out == _top_by_full_sort(state, top)


def _sim_by_dense_read(circuit, prep, top):
    # sim's printing as it was before it read entries: run's whole array
    state = run(circuit, prep)
    probs = state.amplitudes.real**2 + state.amplitudes.imag**2
    order = np.flatnonzero(probs >= 1e-12)
    order = order[np.argsort(-probs[order], kind="stable")] if order.size else [probs.argmax()]
    lines = []
    for i in map(int, order[:top]):
        amp = state.amplitudes[i] + 0.0
        lines.append(f"{i} {format(i, f'0{state.n_qubits}b')} "
                     f"{amp.real:.10g} {amp.imag:.10g} {probs[i]:.10g}\n")
    return "".join(lines)


def _sim_matches_a_dense_read(path, preps, capsys):
    circuit = checked(parse_source(Path(path).read_text()))
    for prep in preps:
        for top in (1, 8, 1000):
            assert main(["sim", path, "--prep", str(prep), "--top", str(top)]) == 0
            assert capsys.readouterr().out == _sim_by_dense_read(circuit, prep, top), (prep, top)


def test_sv_sim_prints_what_a_dense_read_gives_on_fixtures_and_adders(tmp_path, capsys):
    paths = sorted(map(str, Path(fixture_path(FULLADD)).parent.glob("*.fqt")))
    for w in (6, 9, 10):  # 14, 20 and 22 qubits, each run sparse to the end
        paths.append(write_circuit(tmp_path, f"add{w}.fqt", print_source(cuccaro_full_add(w))))
    # a 14-qubit adder on a superposition of a and b: the run turns dense
    head, body = print_source(cuccaro_full_add(6)).split("\nx ", 1)
    layer = "".join(f"h {r}[{k}]\n" for r in "ab" for k in range(6))
    paths.append(write_circuit(tmp_path, "sup14.fqt", f"{head}\n{layer}x {body}"))
    rng = random.Random(67)
    for path in paths:
        n = checked(parse_source(Path(path).read_text())).n_qubits
        _sim_matches_a_dense_read(path, [0, (1 << n) - 1, rng.getrandbits(n)], capsys)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(12, 15), st.integers(0, 8), st.integers(0, 40), st.integers(0, 2**32))
def test_sv_sim_of_random_circuits_prints_what_a_dense_read_gives_property(
    tmp_path, capsys, n, hs, size, seed
):
    # an H layer of 0-8 qubits, then gates of every kind: some runs stay
    # sparse to the end, some turn dense
    rng = random.Random(seed)
    gates = [Gate(GateKind.H, (Index(q),)) for q in rng.sample(range(n), hs)]
    gates += random_indexed_circuit(rng, n, size, p_negative=0.5).gates
    text = print_source(Circuit((("q", n),), n, tuple(gates)))
    _sim_matches_a_dense_read(write_circuit(tmp_path, "r.fqt", text), [rng.getrandbits(n)], capsys)


def test_logic_sim_prints_a_register_of_thousands_of_digits_whole(tmp_path, capsys):
    path = write_circuit(tmp_path, "w.fqt", "qreg a 20000\nx a[19999]\n")
    limit = sys.get_int_max_str_digits()
    assert main(["sim", path, "--backend", "logic"]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out
    assert out.startswith("a=") and out.endswith("\n") and len(out) == 6024
    assert decimal(1 << 19999) == out[2:-1]


def test_expectation_of_thousands_of_digits_exits_one(tmp_path, capsys):
    write_circuit(tmp_path, "q.fqt", "qreg q 400\nx q[0]\n")
    suite = f"circuit q.fqt\nbackend logic\ncase t prep q=0 expect q=0x{'f' * 5000}\n"
    path = write_circuit(tmp_path, "w.qtest", suite)
    assert main(["test", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("ERROR t: register 'q' expectation of 20000 bits") and len(out) < 300


def _bases(registers):
    bases, base = [], 0
    for _, size in registers:
        bases.append(base)
        base += size
    return bases


@st.composite
def _wide_not_circuits(draw):
    # verified X/SWAP circuits with mixed-polarity controls; the first
    # register is wide enough that its value passes 4,300 decimal digits
    sizes = [draw(st.integers(14_400, 16_000))]
    sizes += draw(st.lists(st.integers(1, 80), max_size=2))
    registers = [(f"r{i}", size) for i, size in enumerate(sizes)]
    operands = [f"{label}[{k}]" for label, size in registers for k in range(size)]
    rng = random.Random(draw(st.integers(0, 2**32)))
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        swap = rng.random() < 0.3
        picked = rng.sample(range(len(operands)), (2 if swap else 1) + rng.randrange(4))
        gates.append((swap, picked, [rng.random() < 0.5 for _ in picked]))
    prep = {label: rng.getrandbits(size) for label, size in registers}
    return registers, operands, gates, prep


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_wide_not_circuits())
def test_logic_sim_of_wide_registers_prints_every_value_property(tmp_path, capsys, case):
    registers, operands, gates, prep = case
    lines = [f"qreg {label} {size}" for label, size in registers]
    bits = sum(value << base for value, base in zip(prep.values(), _bases(registers)))
    for swap, picked, positive in gates:
        n_targets = 2 if swap else 1
        controls = list(zip(picked[n_targets:], positive[n_targets:]))
        lines.append(" ".join(
            ["swap" if swap else "x"] + [operands[q] for q in picked[:n_targets]]
            + [("" if v else "!") + operands[q] for q, v in controls]
        ))
        if not all((bits >> q & 1) == v for q, v in controls):
            continue
        if swap:
            p, q = picked[:2]
            if (bits >> p ^ bits >> q) & 1:
                bits ^= 1 << p | 1 << q
        else:
            bits ^= 1 << picked[0]
    path = write_circuit(tmp_path, "w.fqt", "\n".join(lines) + "\n")
    assignments = ",".join(f"{label}={hex(value)}" for label, value in prep.items())
    assert main(["sim", path, "--backend", "logic", "--prep", assignments]) == 0
    out = capsys.readouterr().out
    values = {
        label: bits >> base & ((1 << size) - 1)
        for (label, size), base in zip(registers, _bases(registers))
    }
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = " ".join(f"{label}={value}" for label, value in values.items()) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == want and values["r0"] >= 10**4_300
