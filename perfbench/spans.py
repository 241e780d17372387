"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps qforge's public layer functions at module
level. Callers look those names up through module globals, so every
qforge module (and the package itself) that holds a reference to an
original function gets the wrapper. Each call records a span
``(name, start, end, parent, op)`` in memory; counts of the work done
are taken from arguments and results at the same boundaries. Per-gate
internals (``apply_gate``, ``_masks``) are not wrapped: their cost shows
up as the derived per-gate and per-amplitude rates.
"""
from __future__ import annotations

import bisect
import json
import sys
import time
from collections import defaultdict

# (module, function) -> span name; the span's self time is reported as <name>_s
WRAPPED = {
    ("qforge.source", "parse_source"): "source.parse",
    ("qforge.source", "print_source"): "source.print",
    ("qforge.passes", "verify"): "passes.verify",
    ("qforge.passes", "resolve_names"): "passes.resolve_names",
    ("qforge.passes", "lower_swaps"): "passes.lower_swaps",
    ("qforge.passes", "lower_negative_controls"): "passes.lower_negative_controls",
    ("qforge.passes", "expand_multi_controls"): "passes.expand_multi_controls",
    ("qforge.passes", "compile_circuit"): "passes.encode",
    ("qforge.qp", "emit_qp"): "qp.emit",
    ("qforge.qp", "parse_qp"): "qp.parse",
    ("qforge.qp", "to_circuit"): "qp.to_circuit",
    ("qforge.fileio", "atomic_write_text"): "fileio.write",
    ("qforge.logic", "run_logic"): "logic.run",
    ("qforge.logic", "logic_function"): "logic.function_build",
    ("qforge.statevector", "init_state"): "statevector.init",
    ("qforge.statevector", "run"): "statevector.run",
    ("qforge.reduction", "generate_kernels"): "reduction.generate_self",
    ("qforge.reduction", "specialize_syntactic"): "reduction.syntactic",
    ("qforge.reduction", "extract_permutation"): "reduction.extract",
    ("qforge.reduction", "synthesize_from_permutation"): "reduction.synthesize",
    ("qforge.reduction", "write_kernels"): "reduction.write",
    ("qforge.harness", "parse_suite"): "harness.parse_suite",
    ("qforge.harness", "run_suite"): "harness.run_suite_self",
    ("qforge.cli", "main"): "cli.main_self",
}

# counts reported per cycle as they were recorded
COUNTS = ("source.gates", "passes.gates_in", "passes.gates_out", "passes.ancillas",
          "qp.bytes", "logic.gates", "logic.function_calls", "harness.cases")


class Tracer:
    """Spans and counts of one traced run, kept in memory until dumped."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._lowered_sources: dict[int, set[int]] = defaultdict(set)
        self._resolved_from: dict[int, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qforge" or name.startswith("qforge."))]
        for (modname, fname), span in WRAPPED.items():
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self.stack, self._count
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, start, clock(), parent, self.op)
                stack.pop()
                count(name, args, None)
                raise
            spans[sid] = (name, start, clock(), parent, self.op)
            stack.pop()
            return count(name, args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts at layer boundaries ------------------------------------
    def _count(self, name: str, args: tuple, result):
        """Record the work a call did; returns the result to hand back."""
        c = self.counts
        c[name + ".calls"] += 1
        if result is None:
            return result
        if name == "source.parse":
            c["source.gates"] += len(result.gates)
        elif name == "passes.resolve_names":
            self._resolved_from[id(result[0])] = id(args[0])
        elif name == "passes.lower_swaps":
            c["passes.gates_in"] += len(args[0].gates)
            source = self._resolved_from.get(id(args[0]), id(args[0]))
            self._lowered_sources[self.op].add(source)
        elif name == "passes.expand_multi_controls":
            c["passes.gates_out"] += len(result.gates)
            c["passes.ancillas"] += result.n_qubits - args[0].n_qubits
        elif name == "qp.emit":
            c["qp.gates"] += len(args[0].gates)
            c["qp.bytes"] += len(result)
        elif name == "logic.run":
            c["logic.gates"] += len(args[0].gates)
        elif name == "logic.function_build":
            return self._count_calls(result)
        elif name == "statevector.run":
            circuit = args[0]
            c["statevector.gates"] += len(circuit.gates)
            c["statevector.amp_updates"] += len(circuit.gates) << circuit.n_qubits
        elif name == "reduction.syntactic":
            c["reduction.syntactic_hits"] += 1
        elif name == "reduction.generate_self":
            kernels = result.kernels
            c["reduction.kernel_gates"] += sum(len(k.circuit.gates) for k in kernels)
            c["reduction.source_gates"] += len(args[0].gates) * len(kernels)
        elif name == "harness.run_suite_self":
            c["harness.cases"] += len(args[0])
        return result

    def _count_calls(self, step):
        """The bits -> bits function is called per input: count, do not span."""
        counts = self.counts

        def counted(bits):
            counts["logic.function_calls"] += 1
            return step(bits)

        return counted

    def finish_op(self) -> None:
        self._resolved_from.clear()

    # -- aggregation ---------------------------------------------------
    def nesting_problems(self, windows: list[tuple[float, float]]) -> list[str]:
        """Spans that end before they start, lie outside their parent's
        interval or were recorded before it, or, for a root span, lie
        outside every traced cycle in ``windows`` (sorted (start, end)
        pairs). When there are none, each span's self time is at least 0
        and the self times sum to at most the traced wall time.
        """
        problems = []
        starts = [start for start, _ in windows]
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {sid} ({name}) ends before it starts")
            if parent >= 0:
                outer = self.spans[parent] if parent < sid else None
                if outer is None or not outer[1] <= start <= end <= outer[2]:
                    problems.append(f"span {sid} ({name}) lies outside its parent {parent}")
            else:
                w = bisect.bisect_right(starts, start) - 1
                if w < 0 or end > windows[w][1]:
                    problems.append(f"root span {sid} ({name}) lies outside every traced cycle")
        return problems

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for span in self.spans:
            _, start, end, parent, _ = span
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[sid]
        return out

    def layer_metrics(self, cycles: int) -> dict[str, float]:
        """Per-layer metrics per cycle of the workload's inputs."""
        selfs = self.self_times()
        c = self.counts
        m = {f"{span}_s": selfs.get(span, 0.0) / cycles for span in WRAPPED.values()}
        for name in COUNTS:
            m[name] = c[name] / cycles
        m["statevector.calls"] = c["statevector.run.calls"] / cycles
        lowered = sum(len(s) for s in self._lowered_sources.values())
        m["passes.lowerings_per_circuit"] = ratio(c["passes.lower_swaps.calls"], lowered)
        m["logic.ns_per_gate"] = ratio(selfs["logic.run"] * 1e9, c["logic.gates"])
        sv_time = selfs["statevector.run"] + selfs["statevector.init"]
        m["statevector.ns_per_amp"] = ratio(sv_time * 1e9, c["statevector.amp_updates"])
        m["statevector.us_per_gate"] = ratio(sv_time * 1e6, c["statevector.gates"])
        m["reduction.syntactic_hit_ratio"] = ratio(
            c["reduction.syntactic_hits"], c["reduction.syntactic.calls"]
        )
        m["reduction.kernel_to_source_gates"] = ratio(
            c["reduction.kernel_gates"], c["reduction.source_gates"]
        )
        return m

    def total_self_time(self) -> float:
        return sum(self.self_times().values())

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent, op]."""
        with open(path, "w") as handle:
            json.dump([list(s) for s in self.spans], handle)


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was counted."""
    return num / den if den else 0.0
