"""End-to-end CLI behaviour: outputs, exit codes, atomic writes."""
import json
from pathlib import Path

import pytest

from qforge.cli import main
from qforge.library import fixture_path
from qforge.logic import logic_function
from qforge.passes import resolve_names
from qforge.source import parse_source

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


def test_usage_errors_exit_one(capsys):
    assert main(["compile"]) == 1
    assert main(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
