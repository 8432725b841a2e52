"""Self-test of the benchmark: every output check must reject a corrupted output.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
from checks import CheckFailed, Problem  # noqa: E402

REFERENCE = Problem("ctr", "two-n", 128, 121, 96, 80)
PROBLEMS = [
    REFERENCE,
    Problem("cbc", "two-n", 128, 121, 96, 80),
    Problem("ecbc-mac", "paper-compat-n", 128, 121, 96, 80),
    Problem("ecbc-mac", "two-n", 64, 60, 1, 40),
    Problem("cbc", "two-n", 256, 250, 4096, 128),
]


def program_row(p: Problem, k: int):
    from workloads import MODE, params_of

    from qkdplan.planner import compute_q_star, improvement_bits

    params = params_of(p)
    q = compute_q_star(MODE[p.mode], params).q_star
    return q, improvement_bits(MODE[p.mode], params, q, k)


def test_reference_solve_matches_published_figures() -> None:
    assert checks.q_star(REFERENCE) == 1210759
    assert checks.q_star(PROBLEMS[1]) == 123575


@pytest.mark.parametrize("p", [Problem(m, "two-n", lam, lam - 2, l, t) for m in ("ctr", "cbc", "ecbc-mac") for lam, l, t in ((16, 2, 6), (20, 3, 9), (24, 1, 12))])
def test_reference_solve_matches_unit_scan(p: Problem) -> None:
    q = 0
    while checks.bound(p, q + 1) <= p.eps:
        q += 1
    assert checks.q_star(p) == q


@pytest.mark.parametrize("p", PROBLEMS)
def test_q_star_check_rejects_q_star_plus_one(p: Problem) -> None:
    q, _ = program_row(p, 2)
    assert checks.check_q_star(p, q) == q
    with pytest.raises(CheckFailed):
        checks.check_q_star(p, q + 1)


@pytest.mark.parametrize("p", PROBLEMS)
def test_gain_check_rejects_gain_outside_bracket(p: Problem) -> None:
    for k in (1, 2, 64, 1024):
        q, row = program_row(p, k)
        delta, lower, upper = str(row.delta_bits), str(row.lower_bound_bits), str(row.upper_bound_bits)
        checks.check_gain(p, q, k, delta, lower, upper)
        if k == 1:
            continue
        for outside in (Fraction(upper) + Fraction(1, 1000), Fraction(lower) - Fraction(1, 1000)):
            with pytest.raises(CheckFailed):
                checks.check_gain(p, q, k, f"{float(outside):.12f}", lower, upper)
        # one unit too many in the last reported place is still a wrong gain
        off = Fraction(delta) + Fraction(3, 10**12)
        with pytest.raises(CheckFailed):
            checks.check_gain(p, q, k, f"{float(off):.12f}", lower, upper)


def test_benefit_and_level_checks_reject_corruption() -> None:
    from workloads import MODE, params_of

    from qkdplan.planner import benefit, compute_q_star

    p = PROBLEMS[2]
    plan = compute_q_star(MODE[p.mode], params_of(p))
    report = benefit(MODE[p.mode], params_of(p), plan.q_star, 8, Fraction(3, 2))
    checks.check_benefit(p, plan.q_star, 8, Fraction(3, 2), str(report.benefit))
    checks.check_level(p, plan.q_star, str(plan.worst_case_bits))
    with pytest.raises(CheckFailed):
        checks.check_benefit(p, plan.q_star, 8, Fraction(3, 2), str(report.benefit.as_fraction() * Fraction(1001, 1000)))
    with pytest.raises(CheckFailed):
        checks.check_level(p, plan.q_star, f"{float(plan.worst_case_bits) + 1e-6:.9f}")


def _brute_ctr(n: int, q: int, l: int) -> Fraction:
    hits = 0
    for ivs in itertools.product(range(n), repeat=q):
        covered = [(iv + j) % n for iv in ivs for j in range(l)]
        hits += len(set(covered)) < len(covered)
    return Fraction(hits, n**q)


def _brute_cbc(n: int, inputs: int) -> Fraction:
    hits = sum(len(set(xs)) < inputs for xs in itertools.product(range(n), repeat=inputs))
    return Fraction(hits, n**inputs)


@pytest.mark.parametrize("bits,q,l", [(3, 2, 2), (3, 3, 2), (4, 3, 3), (4, 2, 5), (3, 4, 1)])
def test_exact_probabilities_match_enumeration(bits: int, q: int, l: int) -> None:
    assert checks.ctr_collision_probability(bits, q, l) == _brute_ctr(1 << bits, q, l)
    if q * l <= 6:
        assert checks.cbc_collision_probability(bits, q, l) == _brute_cbc(1 << bits, q * l)


def test_collision_check_rejects_count_shifted_by_six_sigma() -> None:
    trials = 1 << 20
    p = checks.cbc_collision_probability(16, 8, 4)
    expected = round(trials * float(p))
    sigma = math.sqrt(trials * float(p) * (1 - float(p)))
    checks.check_collisions("cbc", expected, trials, p)
    for shifted in (expected + round(6 * sigma), expected - round(6 * sigma)):
        with pytest.raises(CheckFailed):
            checks.check_collisions("cbc", shifted, trials, p)


def _session(files: int):
    from workloads import MODE, SESSION_BLOCK_BITS, SESSION_FILE_BYTES, params_of, session_problem

    from qkdplan.rotation import encrypt_file, open_session, simulate_pool

    session = open_session(
        simulate_pool(10, 128, 5), MODE["ctr"], params_of(session_problem("ctr", 16)), SESSION_FILE_BYTES,
        block_bits=SESSION_BLOCK_BITS,
    )  # fmt: skip
    ciphertexts = [encrypt_file(session, bytes(1 + i % 64))[0] for i in range(files)]
    events = [(e.event_index, e.old_key_id, e.new_key_id, e.at_file_count) for e in session.events]
    return session, events, ciphertexts


def test_schedule_check_rejects_skipped_rotation() -> None:
    session, events, _ = _session(100)
    cap = session.per_key_cap
    assert cap == checks.q_star(Problem("ctr", "two-n", 32, 30, 32, 16)) == 31
    checks.check_schedule(events, 100, cap, session.keys_consumed)
    with pytest.raises(CheckFailed):
        checks.check_schedule(events[:1] + events[2:], 100, cap, session.keys_consumed)
    with pytest.raises(CheckFailed):
        checks.check_schedule(events[:-1], 100, cap, session.keys_consumed - 1)
    late = [events[0], (1, events[1][1], events[1][2], events[1][3] + 1), *events[2:]]
    with pytest.raises(CheckFailed):
        checks.check_schedule(late, 100, cap, session.keys_consumed)


def test_ciphertext_check_rejects_bad_length_and_repeated_keystream() -> None:
    _, _, ciphertexts = _session(3)
    for i, ciphertext in enumerate(ciphertexts):
        checks.check_ciphertext("ctr", 2, bytes(1 + i), ciphertext)
    with pytest.raises(CheckFailed):
        checks.check_ciphertext("ctr", 2, bytes(3), ciphertexts[2][:-2])
    with pytest.raises(CheckFailed):
        checks.check_ciphertext("ctr", 2, bytes(4), ciphertexts[2][:2] + b"\x12\x34\x12\x34")
    with pytest.raises(CheckFailed):
        checks.check_ciphertext("ecbc-mac", 2, bytes(4), b"\x00\x01\x02")


def test_benchmark_json_matches_harness() -> None:
    from run import WORKLOAD_NAMES
    from spans import LAYER_METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "op_p50_ms", "op_tail_ms", "work_per_s", "peak_rss_mb"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["cli-cold", "plan-exact", "mc-collide", "rotate-files"])
def test_short_run_is_correct(workload: str, trace: str) -> None:
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values()) or trace == "1"


def test_run_without_program_sources_fails() -> None:
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, "--workload", "plan-exact", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
