"""Benchmark harness for qkdplan: one workload per fresh process.

Run from the repository root:

    python3 bench/run.py --workload plan-exact --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

An untraced run (--trace 0) prints the end-to-end metrics; a traced run
(--trace 1) installs span wrappers halfway through and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Operations run one after another in
this single process (cli-cold starts one CLI child at a time); nothing runs
in parallel.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("cli-cold", "plan-exact", "mc-collide", "rotate-files")

SETUP_PROBES = 5  # set-ups timed per run; setup_s is their median
STARTUP_PROBES = 5  # fresh interpreters per start-up metric in a traced run
SPAN_FILE_OPS = 10  # a traced run writes the spans of this many operations
CHILD_TIMEOUT_S = 120


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Put the checkout's src/ first on the path and import qkdplan from it."""
    if not (SRC / "qkdplan" / "__init__.py").is_file():
        fail(f"no qkdplan sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import qkdplan

    if not Path(qkdplan.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported qkdplan from {qkdplan.__file__}, not from {SRC}")


def run_child(argv: list[str], env: dict | None = None) -> tuple[float, str]:
    """Run a child to completion; (wall seconds, stdout).  Fails on nonzero exit."""
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        fail(f"{' '.join(argv[1:3])} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return elapsed, proc.stdout


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import qkdplan and build the
    inputs of the workload's first operation, then exit."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    return statistics.median(run_child(argv)[0] for _ in range(SETUP_PROBES))


class Measurement:
    """What one timed phase produced."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.labels: list[str] = []
        self.units = 0
        self.attempted = 0
        self.failures: list[str] = []  # operations the program failed
        self.wrong: list[str] = []  # outputs a check rejected
        self.counts: dict[str, int] = {}

    @property
    def work_per_s(self) -> float:
        return self.units / (sum(self.latencies_ms) / 1000)


def run_round(workload, index: int, result: Measurement, tracer=None) -> int:
    """Attempt one round of operations from `index`; returns the next index."""
    for index in range(index, index + workload.round_size):
        op = workload.op(index)
        result.attempted += 1
        try:
            t0 = time.perf_counter_ns()
            if tracer is None:
                out = op.run()
            else:
                tracer.op = index
                out = tracer.call(f"op.{workload.name}", op.run)
            t1 = time.perf_counter_ns()
        except Exception as exc:  # a failed operation is counted, not fatal
            result.failures.append(f"op {index} ({op.label}) failed: {exc!r}")
            continue
        result.latencies_ms.append((t1 - t0) / 1e6)
        result.labels.append(op.label)
        result.units += op.units
        try:
            for key, value in op.check(out).items():
                result.counts[key] = result.counts.get(key, 0) + value
        except Exception as exc:  # CheckFailed, or output too malformed to check
            result.wrong.append(f"op {index} ({op.label}): {exc!r}")
    return index + 1


def measure(workload, seconds: float) -> Measurement:
    """Attempt whole rounds of operations until `seconds` of wall time pass."""
    result = Measurement()
    index = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        index = run_round(workload, index, result)
    return result


def tail_ms(latencies: list[float], percentile: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]


def end_to_end(workload, phase: Measurement, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(phase.latencies_ms), "ms"),
        "op_tail_ms": (tail_ms(phase.latencies_ms, workload.tail_percentile), "ms"),
        "work_per_s": (phase.work_per_s, "1/s"),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024, "MB"),
    }


def startup_probes() -> dict:
    """Interpreter start and import times, each the median of fresh processes."""
    env = dict(os.environ, PYTHONPATH="src")
    timed = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"

    def inner(module: str) -> float:
        argv = [sys.executable, "-c", timed.format(module)]
        return statistics.median(float(run_child(argv, env)[1]) for _ in range(STARTUP_PROBES)) * 1e3

    bare = statistics.median(run_child([sys.executable, "-c", "pass"])[0] for _ in range(STARTUP_PROBES))
    return {
        "cli.python_start_ms": bare * 1e3,
        "cli.import_ms": inner("qkdplan.cli"),
        "cli.import_numpy_ms": inner("numpy"),
    }


def toy_cipher_check_ms() -> float:
    """Constructing a 16-bit ToyCipherParams, which permutes the whole domain."""
    from qkdplan.empirics import ToyCipherParams

    times = []
    for key in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        ToyCipherParams(16, key)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def traced_run(workload, seconds: float, seed: int) -> tuple[dict, list[Measurement]]:
    """Rounds alternate untraced (the base for the overhead) and traced, so
    drift over the run weighs on both sides alike."""
    from spans import CLI_SUBCOMMANDS, LAYER_METRICS, Tracer, layer_metrics

    plain, traced = Measurement(), Measurement()
    tracer = Tracer()
    index = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        index = run_round(workload, index, plain)
        tracer.install()
        try:
            index = run_round(workload, index, traced, tracer)
        finally:
            tracer.uninstall()
    measured = {**startup_probes(), "empirics.toy_cipher_check_ms": toy_cipher_check_ms()}
    for sub in CLI_SUBCOMMANDS:
        times = [t for t, label in zip(plain.latencies_ms, plain.labels) if label == sub]
        measured[f"cli.main_ms.{sub}"] = statistics.median(times) if times else 0.0
    measured["trace.overhead_ratio"] = traced.work_per_s / plain.work_per_s
    values = layer_metrics(tracer, len(traced.latencies_ms), traced.counts, measured)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl", SPAN_FILE_OPS)
    units = dict(LAYER_METRICS)
    return {name: (values[name], units[name]) for name, _ in LAYER_METRICS}, [plain, traced]


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:.6g} {entry['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_program()
    if args.workload == "all":
        return run_all(args)

    from checks import CheckFailed
    from workloads import WORKLOADS

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, in_process=bool(args.trace))
        workload.op(0)
        if args.setup_only:
            return 0
        if args.trace:
            metrics, phases = traced_run(workload, args.seconds, args.seed)
        else:
            setup_s = setup_seconds(args.workload, args.seed)
            phases = [measure(workload, args.seconds)]
            metrics = end_to_end(workload, phases[0], setup_s)
        wrong = [e for phase in phases for e in phase.wrong]
        try:
            workload.finish()
        except CheckFailed as exc:
            wrong.append(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [e for phase in phases for e in phase.failures]
    for message in (failures + wrong)[:20]:
        print(f"bench: {message}", file=sys.stderr)
    correct = not wrong
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(phase.attempted for phase in phases),
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
