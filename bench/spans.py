"""Spans around the program's public functions, for the traced run only.

Tracer.install replaces each function named in WRAPPED, wherever a qkdplan
module holds it in its namespace (the defining module and every module that
imported it by name), with a wrapper from this file.  A wrapper records one
span per call: name, start, end, parent span and the workload operation id.
Spans stay in memory until the run ends; per-layer metrics are derived from
them, and they are written out as JSON lines.  Untraced runs never call
install, so the program runs unwrapped.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# Defining module -> public functions the per-layer metrics read.  mix64 is
# left out on purpose: it runs once per cipher round, so a wrapper on it
# would dwarf the work it measures.
WRAPPED = {
    "exactmath": ("max_q_quadratic", "log2_rational"),
    "advmodel": ("bound_at",),
    "planner": ("compute_q_star", "improvement_bits", "benefit", "sweep_k"),
    "empirics": ("estimate_collision_probability", "ctr_encrypt", "cbc_encrypt", "ecbc_mac", "draw64"),
    "rotation": ("simulate_pool", "open_session", "encrypt_file", "export_events", "persist_state", "load_state"),
    "cli": ("main",),
}

CLI_SUBCOMMANDS = ("plan", "improve", "benefit", "sweep", "validate", "simulate", "rotate")

# Every per-layer metric, in the order BENCHMARK.json lists them.  calls and
# busy/self times are per workload operation; a layer the workload never
# calls reads 0.
LAYER_METRICS = (
    [
        ("cli.python_start_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.import_numpy_ms", "ms"),
    ]
    + [(f"cli.main_ms.{sub}", "ms") for sub in CLI_SUBCOMMANDS]
    + [
        ("exactmath.max_q_quadratic.calls", "calls/op"),
        ("exactmath.max_q_quadratic.busy_ms", "ms/op"),
        ("exactmath.log2_rational.calls", "calls/op"),
        ("exactmath.log2_rational.busy_ms", "ms/op"),
        ("advmodel.bound_at.calls", "calls/op"),
        ("advmodel.bound_at.busy_ms", "ms/op"),
        ("planner.compute_q_star.busy_ms", "ms/op"),
        ("planner.compute_q_star.self_ms", "ms/op"),
        ("planner.improvement_bits.calls", "calls/op"),
        ("planner.improvement_bits.busy_ms", "ms/op"),
        ("planner.improvement_bits.self_ms", "ms/op"),
        ("planner.sweep_k.busy_ms", "ms/op"),
        ("planner.improvement_per_sweep_row", "ratio"),
        ("planner.log2_per_improvement", "ratio"),
        ("empirics.estimate_cbc.busy_ms", "ms/op"),
        ("empirics.cbc_blocks_per_s", "1/s"),
        ("empirics.estimate_ctr.busy_ms", "ms/op"),
        ("empirics.ctr_trials_per_s", "1/s"),
        ("empirics.toy_cipher_check_ms", "ms"),
        ("empirics.ctr_encrypt.busy_ms", "ms/op"),
        ("empirics.cbc_encrypt.busy_ms", "ms/op"),
        ("empirics.ecbc_mac.busy_ms", "ms/op"),
        ("empirics.draw64.calls", "calls/op"),
        ("rotation.encrypt_file.calls", "calls/op"),
        ("rotation.encrypt_file.busy_ms", "ms/op"),
        ("rotation.encrypt_file.self_ms", "ms/op"),
        ("rotation.simulate_pool.busy_ms", "ms/op"),
        ("rotation.open_session.busy_ms", "ms/op"),
        ("rotation.persist_state.busy_ms", "ms/op"),
        ("rotation.load_state.busy_ms", "ms/op"),
        ("rotation.export_events.busy_ms", "ms/op"),
        ("rotation.rotations", "count/op"),
        ("rotation.keys_consumed", "count/op"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def _estimate_name(args: tuple, kwargs: dict) -> str:
    config = args[0] if args else kwargs["config"]
    return f"empirics.estimate_{config.mode.value}"


# The one function whose span name depends on its argument: the CBC and CTR
# estimators share an entry point but are separate layers for the metrics.
_NAMERS = {"empirics.estimate_collision_probability": _estimate_name}


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1, operation id)
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def _wrapper(self, name: str, fn):
        namer = _NAMERS.get(name)

        def traced(*args, **kwargs):
            return self.call(namer(args, kwargs) if namer else name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"qkdplan.{m}") for m in WRAPPED]
        wrappers = {}
        for defining, names in WRAPPED.items():
            source = importlib.import_module(f"qkdplan.{defining}")
            for fname in names:
                fn = getattr(source, fname)
                wrappers[id(fn)] = (fn, self._wrapper(f"{defining}.{fname}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def write(self, path, max_ops: int) -> None:
        """Write the spans of the first max_ops operations as JSON lines."""
        ops: set[int] = set()
        with open(path, "w", encoding="ascii") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                if op not in ops:
                    if len(ops) == max_ops:
                        break
                    ops.add(op)
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, ops: int, counts: dict, measured: dict) -> dict[str, float]:
    """Per-layer metrics from the spans, harness counts and harness timings.

    counts holds what the harness counted over the traced operations
    (sweep_rows, cbc_blocks, ctr_trials, rotations, keys_consumed); measured
    holds the metrics timed outside the spans (probes, main_ms, overhead).
    """
    spans = tracer.spans
    children: dict[int, list[int]] = defaultdict(list)
    busy: dict[str, int] = defaultdict(int)
    child_time: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for index, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        if parent >= 0:
            children[parent].append(index)
            child_time[spans[parent][0]] += end - start

    def ancestors(index: int):
        parent = spans[index][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    improvement = "planner.improvement_bits"
    log2 = "exactmath.log2_rational"
    in_sweep = sum(1 for i, s in enumerate(spans) if s[0] == improvement and "planner.sweep_k" in ancestors(i))
    log2_children = [
        sum(1 for c in children[i] if spans[c][0] == log2) for i, s in enumerate(spans) if s[0] == improvement
    ]
    working = [n for n in log2_children if n]

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def rate(units: int, name: str) -> float:
        return units / (busy[name] / 1e9) if busy[name] else 0.0

    values = dict(measured)
    for name, _ in LAYER_METRICS:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = per_op(calls[base])
        elif kind == "busy_ms":
            values[name] = per_op(busy[base] / 1e6)
        elif kind == "self_ms":
            values[name] = per_op((busy[base] - child_time[base]) / 1e6)
    values["planner.improvement_per_sweep_row"] = in_sweep / counts["sweep_rows"] if counts.get("sweep_rows") else 0.0
    values["planner.log2_per_improvement"] = sum(working) / len(working) if working else 0.0
    values["empirics.cbc_blocks_per_s"] = rate(counts.get("cbc_blocks", 0), "empirics.estimate_cbc")
    values["empirics.ctr_trials_per_s"] = rate(counts.get("ctr_trials", 0), "empirics.estimate_ctr")
    values["rotation.rotations"] = per_op(counts.get("rotations", 0))
    values["rotation.keys_consumed"] = per_op(counts.get("keys_consumed", 0))
    missing = [name for name, _ in LAYER_METRICS if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics not derived: {missing}")
    return values
