"""The console command end to end: ``python -m qforge.cli`` in a child
process, as a user runs it, on adders both simulators must agree on."""
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


def qforge_cli(*args) -> str:
    """Stdout of ``python -m qforge.cli args``, without its last newline;
    the command must exit 0."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "qforge.cli", *map(str, args)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.rstrip("\n")


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
