#!/usr/bin/env python3
"""qforge benchmark: compile, simulate, test and reduce workloads.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload sv_wide --seed 1 --seconds 35 --trace 0

Run every workload of BENCHMARK.json, each in its own process, and print one table
(add ``--trace 1`` for the per-layer tables and tracing overhead)::

    python3 perfbench/run.py --seed 1 --trace 1

Each workload is a closed loop with one client: the next op starts when
the previous one has finished and been checked. Inputs come from the
seed alone. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced cycles over the workload's inputs with cycles in
which every layer function is wrapped, and reports per-layer self times
and counts per cycle.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from spans import Tracer, ratio

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# traced counts that must repeat every cycle -> the output count they equal
TRACED_EXACT = {
    "passes.gates_out": None,
    "qp.gates": "qp_gates_out",
    "qp.bytes": "qp.bytes",
    "reduction.kernel_gates": "kernel_gates",
}


class Abort(Exception):
    """The benchmark cannot run here; no result is printed."""


_TIME_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import qforge; print(time.perf_counter() - t)"
)


def _import_qforge() -> list[float]:
    """Import qforge from this checkout's src/; returns import times.

    The first time is this process's own import; the others come from
    fresh interpreters, so set-up time is a median, not one sample.
    """
    src = ROOT / "src"
    if not (src / "qforge" / "__init__.py").is_file():
        raise Abort(f"no qforge sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import qforge  # noqa: F401  (timed import)
    times = [time.perf_counter() - start]
    if Path(qforge.__file__).resolve().parent != (src / "qforge").resolve():
        raise Abort(f"imported qforge from {qforge.__file__}, not from {src}")
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", _TIME_IMPORT, str(src)],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return times


def _seconds(times: list[float]) -> str:
    return "[" + ", ".join(f"{t:.4f}" for t in times) + "] s"


def _tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


class Loop:
    """Closed loop over a workload's ops, checking every output."""

    def __init__(self, ops: list) -> None:
        self.ops = ops
        self.times: list[float] = []
        self.op_times: dict[int, list[float]] = {}  # op index -> its times
        self.op_units: dict[int, int] = {}  # op index -> work units of one run
        self.work: Counter = Counter()
        self.unit_time = 0.0  # time of the ops that count work units
        self.attempted = 0
        self.failures: list[str] = []
        self.exact: dict[int, dict] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def step(self, i: int, tracer=None) -> None:
        op = self.ops[i]
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
        gc.collect()  # no op pays for collecting the previous op's garbage
        start = time.perf_counter()
        try:
            out, work = op.run()
        except Exception:
            self.failures.append(f"{op.kind}#{i}: {traceback.format_exc()}")
            return
        finally:
            if tracer is not None:
                tracer.finish_op()
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        self.op_times.setdefault(i, []).append(elapsed)
        self.work.update(work)
        if "units" in work:
            self.unit_time += elapsed
            self.op_units[i] = work["units"]
        try:
            error = op.check(out)
            exact = op.exact(out)
        except Exception:
            error, exact = traceback.format_exc(), None
        if i in self.exact and exact != self.exact[i]:
            error = error or f"exact counts {exact} differ from {self.exact[i]}"
        self.exact.setdefault(i, exact)
        if error:
            self.failures.append(f"{op.kind}#{i}: {error}")

    def cycle(self, tracer=None) -> float:
        """One pass over every op; returns its wall time."""
        start = time.perf_counter()
        for i in range(len(self.ops)):
            self.step(i, tracer)
        return time.perf_counter() - start

    def timed(self, deadline: float) -> None:
        """Ops until the deadline passes, but at least one whole cycle."""
        i = 0
        while i < len(self.ops) or time.perf_counter() < deadline:
            self.step(i % len(self.ops))
            i += 1

    # Both take each op's median time, so every input of the cycle counts
    # once however many ops the run's last, partial cycle held, and a slow
    # stretch of the machine moves them only as far as it moves the medians.
    def median_op(self) -> float:
        """Median over the cycle's ops of each op's median time."""
        return statistics.median(statistics.median(t) for t in self.op_times.values())

    def work_rate(self) -> float:
        """Work units of one cycle over the sum of its ops' median times."""
        cycle_time = sum(statistics.median(self.op_times[i]) for i in self.op_units)
        return ratio(sum(self.op_units.values()), cycle_time)

    def totals(self) -> dict:
        out: Counter = Counter()
        for counts in self.exact.values():
            out.update(counts or {})
        return dict(sorted(out.items()))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    imports = _import_qforge()
    import workloads

    if name not in workloads.WORKLOADS:
        raise Abort(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_tmp"))
    try:
        setups, warmup_error = [], None
        for r in range(SETUP_REPEATS):
            scratch = tmp / f"setup{r}"
            scratch.mkdir()
            start = time.perf_counter()
            workload = workloads.WORKLOADS[name](seed, scratch)
            try:
                workload.warmup()
            except Exception:
                warmup_error = traceback.format_exc()
            setups.append(time.perf_counter() - start)
        setup_s = statistics.median(imports) + statistics.median(setups)
        # The inputs made in set-up live until exit; keep them out of the
        # collector, as a user running one command has no such heap.
        gc.collect()
        gc.freeze()
        loop = Loop(workload.ops)
        if warmup_error:
            loop.attempted += 1
            loop.failures.append(f"warm-up: {warmup_error}")
        lines, metrics = [], {}
        if not trace:
            loop.timed(time.perf_counter() + seconds)
            metrics = _end_to_end(loop, workload, setup_s, lines)
            lines.append(f"  setup_s = median import of {_seconds(imports)}"
                         f" + median set-up of {_seconds(setups)}")
        else:
            metrics = _per_layer(loop, seconds, name, seed, lines)
        exact = loop.totals()
        lines.append(f"exact {json.dumps(exact)}")
        for failure in loop.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        failed = loop.failed
        if trace and metrics.pop("consistent") is not True:
            failed += 1
        print(f"workload {name} seed {seed} trace {int(trace)}")
        for line in lines:
            print(line)
        result = {
            "correct": failed == 0,
            "attempted": loop.attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in SPEC["per_layer" if trace else "end_to_end"]
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _end_to_end(loop: Loop, workload, setup_s: float, lines: list) -> dict:
    times = loop.times or [0.0]  # every op failed: report zeros, correct is false
    tail, pct = _tail(times)
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": loop.median_op() * 1e3 if loop.op_times else 0.0,
        "op_tail_ms": tail * 1e3,
        "work_per_s": loop.work_rate(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for key, value in metrics.items():
        note = f"  (p{pct:.1f} of {len(times)} ops)" if key == "op_tail_ms" else ""
        lines.append(f"  {key:<22} {value:14.6g} {units[key]}{note}")
    lines.append(f"  {'fail_ratio':<22} {loop.failed / loop.attempted:14.6g} ratio"
                 f"  ({loop.failed} of {loop.attempted} ops)")
    lines.append(f"  work_per_s counts {workload.unit}")
    for key, (value, unit) in workload.extra(loop.work, loop.unit_time).items():
        lines.append(f"  {key:<22} {value:14.6g} {unit}")
    return metrics


def _per_layer(loop: Loop, seconds: float, name: str, seed: int, lines: list) -> dict:
    """Alternate untraced and traced cycles, so drift hits both alike."""
    tracer = Tracer()
    untraced = traced = 0.0
    cycles = 0
    per_cycle: list[dict] = []  # traced exact counts of each cycle
    windows: list[tuple[float, float]] = []  # start and end of each traced cycle
    deadline = time.perf_counter() + seconds
    while cycles == 0 or time.perf_counter() < deadline:
        untraced += loop.cycle()
        before = {key: tracer.counts[key] for key in TRACED_EXACT}
        tracer.install()
        try:
            start = time.perf_counter()
            traced += loop.cycle(tracer)
            windows.append((start, time.perf_counter()))
        finally:
            tracer.uninstall()
        per_cycle.append({key: tracer.counts[key] - before[key] for key in TRACED_EXACT})
        cycles += 1
    metrics = tracer.layer_metrics(cycles)
    exact = loop.totals()
    metrics["qp_gates_out"] = exact.get("qp_gates_out", 0)
    metrics["kernel_gates"] = exact.get("kernel_gates", 0)
    metrics["trace.overhead_s"] = (traced - untraced) / cycles
    self_total = tracer.total_self_time()
    problems = tracer.nesting_problems(windows)
    if any(counts != per_cycle[0] for counts in per_cycle):
        problems.append(f"traced exact counts differ between cycles: {per_cycle}")
    for trace_key, key in TRACED_EXACT.items():
        if key and per_cycle[0][trace_key] != exact.get(key, 0):
            problems.append(f"traced {trace_key} {per_cycle[0][trace_key]} != {key} {exact.get(key, 0)}")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    lines.append(f"  cycles {cycles}: untraced {untraced:.4f} s, traced {traced:.4f} s, "
                 f"tracing overhead {traced - untraced:.4f} s "
                 f"({(traced - untraced) / untraced:.1%})")
    lines.append(f"  per-layer self times sum to {self_total:.4f} s of {traced:.4f} s traced")
    for key in units:
        lines.append(f"  {key:<36} {metrics[key]:14.6g} {units[key]}")
    for problem in problems[:10]:
        lines.append(f"  INCONSISTENT {problem}")
    if len(problems) > 10:
        lines.append(f"  INCONSISTENT and {len(problems) - 10} more")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{name}-{seed}.json")
    metrics["consistent"] = not problems
    return metrics


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; traced runs must repeat the counts."""
    ok = True
    for workload in SPEC["workloads"]:
        name = workload["name"]
        print(f"== {name}: {workload['why']}")
        exacts = []
        for traced in ([False, True] if trace else [False]):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            out = proc.stdout.strip().splitlines()
            sys.stdout.write("".join(line + "\n" for line in out[1:-1] if not line.startswith("exact ")))
            if proc.returncode != 0 or not out:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            result = json.loads(out[-1])
            ok &= result["correct"]
            exacts.extend(json.loads(line[6:]) for line in out if line.startswith("exact "))
            if not result["correct"]:
                print(proc.stderr, file=sys.stderr)
        print(f"  exact counts {exacts[0] if exacts else None}")
        if len(exacts) == 2 and exacts[0] != exacts[1]:
            print(f"  FAILED: exact counts differ between runs: {exacts}")
            ok = False
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json; all of them when omitted")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; confirm a claimed "
                             f"gain on the held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload is None:
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Abort as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
