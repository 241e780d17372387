"""The console command end to end: ``python -m qforge.cli`` in a child
process, as a user runs it: adders both simulators must agree on, and
``reduce`` refusing bad or oversized input with exit code 1 and a short
message before it writes anything."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qforge
from qforge.library import cuccaro_full_add, fixture_path
from qforge.source import print_source

# the directory holding the qforge package, put first on the child's path
SRC = str(Path(qforge.__file__).resolve().parent.parent)


def qforge_run(*args) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -m qforge.cli args``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "qforge.cli", *map(str, args)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    return done.returncode, done.stdout, done.stderr


def qforge_cli(*args) -> str:
    """Stdout of ``python -m qforge.cli args``, without its last newline;
    the command must exit 0."""
    code, out, err = qforge_run(*args)
    assert code == 0, err
    return out.rstrip("\n")


@pytest.mark.parametrize(
    "source, prep, want",
    [
        (Path(fixture_path("cuccaro_modadd4_rearranged.fqt")).read_text(), 131, "010110011"),
        # 22 qubits, which the sv backend runs sparse
        (print_source(cuccaro_full_add(10)), 1234567, None),
    ],
    ids=["modadd4", "add22"],
)
def test_both_backends_print_the_same_bits_for_a_compiled_adder(tmp_path, source, prep, want):
    (tmp_path / "adder.fqt").write_text(source)
    qforge_cli("compile", tmp_path / "adder.fqt", "-o", tmp_path / "adder.qp")
    logic = qforge_cli("sim", tmp_path / "adder.qp", "--backend", "logic", "--prep", prep)
    assert want is None or logic == want
    top = qforge_cli("sim", tmp_path / "adder.qp", "--backend", "sv", "--prep", prep, "--top", 1)
    assert top.split(" ")[1] == logic


def test_a_superposed_adder_prints_its_first_most_likely_entry(tmp_path):
    # H on every a and b qubit of a 14-qubit adder: the run leaves the
    # sparse phase, and its X/SWAP runs reach the dense fused step
    head, body = print_source(cuccaro_full_add(6)).split("\nx ", 1)
    layer = "".join(f"h {r}[{k}]\n" for r in "ab" for k in range(6))
    (tmp_path / "sup14.fqt").write_text(f"{head}\n{layer}x {body}")
    top = qforge_cli("sim", tmp_path / "sup14.fqt", "--top", 1)
    assert top == "0 00000000000000 0.015625 0 0.000244140625"


MODADD4 = fixture_path("cuccaro_modadd4_rearranged.fqt")
DIGITS = "1" * 5000


def test_reduce_refuses_a_value_given_twice_before_writing_a_kernel(tmp_path):
    code, _, _ = qforge_run("reduce", MODADD4, "--qubits", "a3,a2,a1,a0,c",
                            "--values", "00010,00010", "-o", tmp_path / "twice")
    assert code == 1
    assert not (tmp_path / "twice").exists()


@pytest.mark.parametrize(
    "qubits, values",
    [(DIGITS, "0"), ("zz" + DIGITS, "0"), ("c", "z" * 5000)],
    ids=["qubit-digits", "qubit-token", "value-letters"],
)
def test_reduce_names_a_5000_character_token_by_its_length(tmp_path, qubits, values):
    code, _, err = qforge_run("reduce", MODADD4, "--qubits", qubits, "--values", values,
                              "-o", tmp_path / "k")
    assert code == 1
    assert len(err.encode()) < 300


def test_reduce_refuses_a_manifest_name_over_255_bytes_before_any_work(tmp_path):
    # <243-byte stem>.manifest.json is 257 bytes
    source = tmp_path / ("w" * 243 + ".fqt")
    source.write_text("qreg c 1\nqreg t 1\nx t[0] c[0]\n")
    code, _, err = qforge_run("reduce", source, "--qubits", "c", "--values", "0",
                              "-o", tmp_path / "m")
    assert code == 1
    assert len(err.encode()) < 300
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("bits, code", [(232, 0), (300, 1)])
def test_reduce_writes_a_kernel_name_of_up_to_255_bytes_only(tmp_path, bits, code):
    # wide.k<232 bits>.fqt is 242 bytes; wide.k<300 bits>.fqt would be 310
    (tmp_path / "wide.fqt").write_text("qreg c 300\nqreg t 1\nx t[0] c[0]\n")
    got, _, err = qforge_run("reduce", tmp_path / "wide.fqt",
                             "--qubits", ",".join(f"c{k}" for k in range(bits)),
                             "--values", "0" * bits, "-o", tmp_path / "w")
    assert got == code
    kernels = [p.name for p in tmp_path.glob("w/*.fqt")]
    assert kernels == ([f"wide.k{'0' * bits}.fqt"] if code == 0 else [])
    assert len(err.encode()) < 300
