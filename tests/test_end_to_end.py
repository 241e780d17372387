"""The command line as a user runs it: ``python -m qforge.cli`` in a
fresh interpreter, checked by its output and by what the process cost."""
import os
import subprocess
import sys
from pathlib import Path

import qforge
from qforge.library import cuccaro_full_add
from qforge.source import print_source

SRC = str(Path(qforge.__file__).resolve().parent.parent)
# Linux counts the memory of the process that started a child in the
# child's peak RSS, and pytest's is large: a small launcher in between
# starts the CLI and writes its peak RSS (KiB on Linux) to a file
_LAUNCHER = """
import resource, subprocess, sys
code = subprocess.call(sys.argv[2:])
with open(sys.argv[1], "w") as f:
    f.write(str(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
sys.exit(code)
"""


def _cli(tmp_path, *args):
    """Run the CLI in a fresh interpreter; return its exit code, stdout,
    stderr and peak resident set size in bytes."""
    rss = tmp_path / "maxrss"
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, str(rss), sys.executable, "-m", "qforge.cli", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    unit = 1 if sys.platform == "darwin" else 1024
    return done.returncode, done.stdout, done.stderr, int(rss.read_text()) * unit


def test_sim_of_a_24_qubit_adder_holds_only_its_support(tmp_path):
    # the state's 2**24 amplitudes alone would take 256 MiB
    path = tmp_path / "add24.fqt"
    path.write_text(print_source(cuccaro_full_add(11)))
    code, out, err, peak = _cli(tmp_path, "sim", str(path), "--prep", "a=3,b=5", "--top", "1")
    assert (code, out, err) == (0, "16387 000000000100000000000011 1 0 1\n", "")
    assert peak < 100 << 20
