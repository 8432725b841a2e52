"""The four workloads: the inputs each builds from its seed, its operation,
and the checks on that operation's outputs.

A workload hands out operations one at a time.  Each operation's inputs are
drawn from (workload, seed, operation index), so a run is reproducible and
never repeats a planning problem or a Monte Carlo seed.  Every operation of a
workload does the same amount of work; `round_size` operations form one
round, and a run always attempts whole rounds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from checks import CheckFailed, Problem
from spans import CLI_SUBCOMMANDS

# Program functions are called through their modules (planner.sweep_k, not
# a name imported from it), so that the traced run's wrappers, which replace
# module attributes, see the benchmark's own calls too.
from qkdplan import cli, empirics, planner, rotation
from qkdplan.advmodel import EcbcDenominator, Mode, SecurityParams
from qkdplan.empirics import TrialConfig

MODE = {"ctr": Mode.CTR, "cbc": Mode.CBC, "ecbc-mac": Mode.ECBC_MAC}
DENOMINATOR = {"two-n": EcbcDenominator.TWO_N, "paper-compat-n": EcbcDenominator.PAPER_COMPAT_N}

# The CLI's default sweep: powers of two up to 1024.
K_LIST = [1 << i for i in range(11)]

CLI_TIMEOUT_S = 60


class OperationFailed(Exception):
    """The program failed an operation (exception or nonzero exit)."""


@dataclass
class Op:
    """One timed operation: run() is timed, check(output) is not.

    check raises CheckFailed on a wrong output and returns a dict of counts
    the traced run sums (sweep rows, CBC blocks, rotations, ...).
    """

    label: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], dict]


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def params_of(p: Problem) -> SecurityParams:
    return SecurityParams.from_bits(
        p.lam, p.s_bits, p.l, target_bits=p.target_bits, ecbc_denominator=DENOMINATOR[p.denominator]
    )


# ------------------------------------------------------------------ problems

# (mode, ECBC denominator) pairs: all three modes and both denominators.
VARIANTS = (("ctr", "two-n"), ("cbc", "two-n"), ("ecbc-mac", "two-n"), ("ecbc-mac", "paper-compat-n"))
LAMBDA_BANDS = ((64, 120), (128, 184), (192, 256))

# Every problem admits at least this many files, so the whole default k
# list applies and every problem does the same sweep.
MIN_Q_STAR = 2048


def _floor_log2_inverse(value: Fraction) -> int:
    """floor(log2(1/value)) for 0 < value < 1."""
    den, num = value.denominator, value.numerator
    e = den.bit_length() - num.bit_length()
    return e if num << e <= den else e - 1


def draw_problem(rng: random.Random, mode: str, denominator: str, lam_lo: int, lam_hi: int) -> Problem:
    """A feasible problem with Q* >= MIN_Q_STAR and a 2^-40..2^-128 target.

    lambda is a multiple of 8 in [lam_lo, lam_hi] (so a file of l blocks is
    a whole number of bytes), s_min sits up to 8 bits below the block
    domain, l is log-uniform in [1, 4096] and the target is uniform between
    40 bits and the largest that still leaves MIN_Q_STAR files.
    """
    lam = rng.randrange(lam_lo, lam_hi + 1, 8)
    for _ in range(200):
        s_bits = lam - rng.randint(0, 8)
        l = min(4096, max(1, round(2 ** rng.uniform(0, 12))))
        probe = Problem(mode, denominator, lam, s_bits, l, 1)
        t_max = min(128, _floor_log2_inverse(checks.bound(probe, MIN_Q_STAR)))
        if t_max >= 40:
            return Problem(mode, denominator, lam, s_bits, l, rng.randint(40, t_max))
    raise RuntimeError(f"no feasible problem at lambda={lam}")


def draw_batch(rng: random.Random, per_stratum: int) -> list[Problem]:
    return [
        draw_problem(rng, mode, denominator, lo, hi)
        for mode, denominator in VARIANTS
        for lo, hi in LAMBDA_BANDS
        for _ in range(per_stratum)
    ]


def check_pooled(pooled: dict[tuple[str, int, int, int], list[int]]) -> None:
    """Pooled (collisions, trials) per (mode, block_bits, q, l) against the
    exact collision probability."""
    for (mode, bits, q, l), (collisions, trials) in pooled.items():
        if not trials:  # a short run may not reach every configuration
            continue
        exact = (checks.cbc_collision_probability if mode == "cbc" else checks.ctr_collision_probability)(bits, q, l)
        checks.check_collisions(f"{mode} {bits}-bit q={q} l={l}", collisions, trials, exact)


# --------------------------------------------------------------- workloads


class Workload:
    name = ""
    unit = ""
    round_size = 1
    # op_tail_ms is this percentile: the highest that leaves ten or more
    # samples beyond it at the fewest operations a run makes (50; README).
    tail_percentile = 80

    def __init__(self, seed: int, workdir: Path, in_process: bool = True) -> None:
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over the whole run (pooled counts); raises CheckFailed."""

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class PlanExact(Workload):
    """Batches of exact planning problems: Q*, the k sweep, one benefit."""

    name = "plan-exact"
    unit = "problems"
    PER_STRATUM = 4  # 4 variants x 3 lambda bands x 4 = 48 problems

    def op(self, index: int) -> Op:
        rng = op_rng(self.name, self.seed, index)
        batch = [
            (p, rng.choice(K_LIST[1:]), Fraction(rng.randint(1, 16), rng.randint(1, 16)))
            for p in draw_batch(rng, self.PER_STRATUM)
        ]

        def run():
            out = []
            for p, k, cost in batch:
                mode, params = MODE[p.mode], params_of(p)
                plan = planner.compute_q_star(mode, params)
                ks = [k_ for k_ in K_LIST if k_ <= plan.q_star]
                rows = planner.sweep_k(mode, params, plan.q_star, ks)
                out.append((plan, rows, planner.benefit(mode, params, plan.q_star, k, cost)))
            return out

        def check(out) -> dict:
            rows_seen = 0
            for (p, k, cost), (plan, rows, report) in zip(batch, out, strict=True):
                q = checks.check_q_star(p, plan.q_star)
                checks.check_level(p, q, str(plan.worst_case_bits))
                if [row.k for row in rows] != K_LIST:
                    raise CheckFailed(f"{p}: sweep rows for k={[row.k for row in rows]}")
                for row in rows:
                    checks.check_gain(
                        p, q, row.k, str(row.delta_bits), str(row.lower_bound_bits), str(row.upper_bound_bits)
                    )
                    checks.check_benefit(p, q, row.k, Fraction(1), str(row.benefit))
                checks.check_benefit(p, q, k, cost, str(report.benefit))
                rows_seen += len(rows)
            return {"sweep_rows": rows_seen}

        return Op("batch", len(batch), run, check)


class McCollide(Workload):
    """One CBC and one CTR collision estimate per operation, fresh seed each.

    Both configurations come from the acceptance grid; their trial counts are
    whole 16384-trial chunks, sized so the two halves cost about the same.
    """

    name = "mc-collide"
    unit = "trials"
    # (mode, block_bits, q_files, blocks_per_file, trials)
    CONFIGS = (("cbc", 16, 8, 4, 3 * 16384), ("ctr", 20, 64, 8, 4 * 16384))

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pooled = {config[:4]: [0, 0] for config in self.CONFIGS}

    def op(self, index: int) -> Op:
        rng_seed = op_rng(self.name, self.seed, index).getrandbits(63)
        configs = [
            (config, TrialConfig(MODE[config[0]], *config[1:], rng_seed=rng_seed)) for config in self.CONFIGS
        ]

        def run():
            return [empirics.estimate_collision_probability(trial) for _, trial in configs]

        def check(out) -> dict:
            counts = {"cbc_blocks": 0, "ctr_trials": 0}
            for (config, trial), result in zip(configs, out, strict=True):
                mode, bits, q, l, trials = config
                expected_bound = Fraction(2 * q * q * (l * l if mode == "cbc" else l), 1 << bits)
                if result.trials != trials or result.theoretical_bound != expected_bound:
                    raise CheckFailed(f"{config}: result describes {result.trials} trials, bound {result.theoretical_bound}")
                if not 0 <= result.collisions <= trials or result.collision_fraction != result.collisions / trials:
                    raise CheckFailed(f"{config}: {result.collisions} collisions, fraction {result.collision_fraction}")
                self.pooled[config[:4]][0] += result.collisions
                self.pooled[config[:4]][1] += trials
                if mode == "cbc":
                    counts["cbc_blocks"] += trials * q * l
                else:
                    counts["ctr_trials"] += trials
            return counts

        return Op("estimate", sum(config[4] for config in self.CONFIGS), run, check)

    def finish(self) -> None:
        check_pooled(self.pooled)


# Rotation sessions: a 32-bit planning domain, 64-byte files of 32 16-bit
# blocks, and per-mode targets that all give Q* = 31, so a rotation fires
# every 31 files.
SESSION_LAMBDA, SESSION_S_BITS, SESSION_BLOCK_BITS, SESSION_FILE_BYTES = 32, 30, 16, 64
SESSION_TARGETS = (("ctr", 16), ("cbc", 11), ("ecbc-mac", 13))
TOY_BLOCK_BYTES = 2  # the sessions' default 16-bit toy cipher


def session_problem(mode: str, target_bits: int) -> Problem:
    l = SESSION_FILE_BYTES * 8 // SESSION_BLOCK_BITS
    return Problem(mode, "two-n", SESSION_LAMBDA, SESSION_S_BITS, l, target_bits)


@functools.cache
def session_cap(mode: str, target_bits: int) -> int:
    """Reference Q*, which is a session's per-key cap at rotation factor 1."""
    return checks.q_star(session_problem(mode, target_bits))


def manifest_sizes(rng: random.Random, files: int) -> list[int]:
    """A fixed multiset of sizes in [1, 64] bytes, in seed-dependent order."""
    sizes = [1 + (37 * i) % SESSION_FILE_BYTES for i in range(files)]
    rng.shuffle(sizes)
    return sizes


def check_state_file(path: Path, files: int, cap: int) -> None:
    """The persisted counters, read with json alone."""
    document = json.loads(path.read_text(encoding="ascii"))
    keys = -(-files // cap)
    counters = document["counters"]
    if (int(counters["total_files"]), int(counters["files_under_current_key"])) != (files, files - (keys - 1) * cap):
        raise CheckFailed(f"{path.name}: counters {counters} for {files} files at cap {cap}")
    if int(document["plan"]["q_star"]) != cap or len(document["events"]) != keys - 1:
        raise CheckFailed(f"{path.name}: q_star {document['plan']['q_star']}, {len(document['events'])} events")


def read_events(path: Path) -> list[tuple[int, int, int, int]]:
    events = []
    for line in path.read_text(encoding="ascii").splitlines():
        e = json.loads(line)
        events.append((e["event_index"], e["old_key_id"], e["new_key_id"], e["at_file_count"]))
    return events


class RotateFiles(Workload):
    """Three rotation sessions (CTR, CBC, ECBC-MAC) over one manifest, then
    the event log export and a persist/load round trip of each session."""

    name = "rotate-files"
    unit = "files"
    FILES = 400
    POOL_KEYS = 16  # ceil(400 / 31) = 13 keys are drawn

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        rng = random.Random(f"{self.name}/{self.seed}")
        sizes = manifest_sizes(rng, self.FILES)
        # CTR files are all zeros, so each CTR ciphertext body is raw keystream.
        self.payloads = {
            mode: [bytes(n) if mode == "ctr" else rng.randbytes(n) for n in sizes] for mode, _ in SESSION_TARGETS
        }

    def op(self, index: int) -> Op:
        key_seed = op_rng(self.name, self.seed, index).getrandbits(63)
        paths = {
            mode: (self.workdir / f"events-{mode}.jsonl", self.workdir / f"state-{mode}.json")
            for mode, _ in SESSION_TARGETS
        }

        def run():
            out = []
            for j, (mode, target_bits) in enumerate(SESSION_TARGETS):
                pool = rotation.simulate_pool(self.POOL_KEYS, 128, key_seed + j)
                p = session_problem(mode, target_bits)
                session = rotation.open_session(
                    pool, MODE[mode], params_of(p), SESSION_FILE_BYTES, block_bits=SESSION_BLOCK_BITS
                )
                ciphertexts = [rotation.encrypt_file(session, data)[0] for data in self.payloads[mode]]
                events_path, state_path = paths[mode]
                rotation.export_events(session, str(events_path))
                rotation.persist_state(session, str(state_path))
                out.append((session, ciphertexts, rotation.load_state(str(state_path))))
            return out

        def check(out) -> dict:
            counts = {"rotations": 0, "keys_consumed": 0}
            for (mode, target_bits), (session, ciphertexts, loaded) in zip(SESSION_TARGETS, out, strict=True):
                cap = session_cap(mode, target_bits)
                if (session.plan.q_star, session.per_key_cap, session.total_files) != (cap, cap, self.FILES):
                    raise CheckFailed(
                        f"{mode}: q_star {session.plan.q_star}, cap {session.per_key_cap}, "
                        f"{session.total_files} files; expected {cap}, {cap}, {self.FILES}"
                    )
                events_path, state_path = paths[mode]
                events = read_events(events_path)
                checks.check_schedule(events, self.FILES, cap, session.keys_consumed)
                if events != [(e.event_index, e.old_key_id, e.new_key_id, e.at_file_count) for e in session.events]:
                    raise CheckFailed(f"{mode}: exported event log differs from the session's")
                check_state_file(state_path, self.FILES, cap)
                if loaded != session:
                    raise CheckFailed(f"{mode}: load_state did not return the persisted session")
                for data, ciphertext in zip(self.payloads[mode], ciphertexts, strict=True):
                    checks.check_ciphertext(mode, TOY_BLOCK_BYTES, data, ciphertext)
                counts["rotations"] += len(events)
                counts["keys_consumed"] += session.keys_consumed
            return counts

        return Op("sessions", len(SESSION_TARGETS) * self.FILES, run, check)


# ---------------------------------------------------------------- cli-cold

# Small simulate runs: two acceptance-grid configurations at 1000 trials.
CLI_SIMULATE = (("ctr", 12, 8, 4), ("cbc", 12, 4, 2))
CLI_SIMULATE_TRIALS = 1000
# Small rotate runs: the session parameters of rotate-files at targets that
# give Q* = 7, so 16 files take three keys and two rotations.
CLI_ROTATE_TARGETS = (("ctr", 20), ("cbc", 15), ("ecbc-mac", 17))
CLI_MANIFEST_FILES = 16
VALIDATE_LINE = "10/10 checks passed"


def _model_flags(p: Problem) -> list[str]:
    return [
        "--mode", p.mode,
        "--lambda", str(p.lam),
        "--s-min-bits", str(p.s_bits),
        "--file-size", str(p.l * p.lam // 8),
        "--target-bits", str(p.target_bits),
        "--ecbc-denominator", p.denominator,
    ]  # fmt: skip


def _parse_fields(fmt: str, text: str) -> dict[str, str]:
    if fmt == "json":
        return json.loads(text)
    header, values = text.strip().splitlines()
    return dict(zip(header.split(","), values.split(","), strict=True))


def _table(text: str) -> dict[str, str]:
    return dict(line.split(None, 1) for line in text.strip().splitlines())


class CliCold(Workload):
    """Cold `python -m qkdplan.cli` invocations, one per operation, cycling
    through every subcommand with inputs small enough that interpreter start
    and imports dominate.  In-process (traced runs) calls cli.main instead."""

    name = "cli-cold"
    unit = "invocations"
    round_size = len(CLI_SUBCOMMANDS)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        rng = random.Random(f"{self.name}/{self.seed}")
        self.manifest = self.workdir / "manifest.txt"
        self.manifest.write_text(
            "".join(f"f{i} {n}\n" for i, n in enumerate(manifest_sizes(rng, CLI_MANIFEST_FILES))), encoding="ascii"
        )
        self.pooled = {config: [0, 0] for config in CLI_SIMULATE}
        self.peak_child_kb = 0
        self.env = dict(os.environ, PYTHONPATH="src")
        self.root = Path(__file__).resolve().parent.parent

    def invoke(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            return code, buffer.getvalue()
        proc = subprocess.Popen(
            [sys.executable, "-m", "qkdplan.cli", *argv],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            # wait4 reaps the child and reports its own peak RSS, apart from
            # every other child this process started
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return proc.returncode, out

    def peak_rss_kb(self) -> int:
        return super().peak_rss_kb() if self.in_process else self.peak_child_kb

    def op(self, index: int) -> Op:
        rng = op_rng(self.name, self.seed, index)
        command = CLI_SUBCOMMANDS[index % self.round_size]
        # Drawn per operation, not cycled by round: a traced run alternates
        # untraced and traced rounds, and a cycle would alias with that.
        fmt = rng.choice(("json", "csv"))
        p = draw_problem(rng, *rng.choice(VARIANTS), *rng.choice(LAMBDA_BANDS))
        k = rng.choice(K_LIST[1:])
        cost = Fraction(rng.randint(1, 16), rng.randint(1, 16))
        simulate = rng.choice(CLI_SIMULATE)
        mode, target_bits = rng.choice(CLI_ROTATE_TARGETS)
        events_path = self.workdir / "cli-events.jsonl"
        state_path = self.workdir / "cli-state.json"
        argv = {
            "plan": ["plan", *_model_flags(p), "--format", fmt],
            "improve": ["improve", *_model_flags(p), "--k", str(k), "--format", fmt],
            "benefit": ["benefit", *_model_flags(p), "--k", str(k), "--key-cost", f"{cost.numerator}/{cost.denominator}", "--format", fmt],
            "sweep": ["sweep", *_model_flags(p)],
            "validate": ["validate"],
            "simulate": [
                "simulate", "--mode", simulate[0], "--block-bits", str(simulate[1]), "--q", str(simulate[2]),
                "--l", str(simulate[3]), "--trials", str(CLI_SIMULATE_TRIALS), "--seed", str(rng.getrandbits(32)),
                "--format", "json",
            ],
            "rotate": [
                "rotate", "--mode", mode, "--lambda", str(SESSION_LAMBDA), "--s-min-bits", str(SESSION_S_BITS),
                "--block-bits", str(SESSION_BLOCK_BITS), "--file-size", f"{SESSION_FILE_BYTES}B",
                "--target-bits", str(target_bits),
                "--simulate-keys", "10", "--key-seed", str(rng.getrandbits(32)), "--manifest", str(self.manifest),
                "--events-out", str(events_path), "--state-out", str(state_path),
            ],
        }[command]  # fmt: skip

        def run():
            code, out = self.invoke(argv)
            if code != 0:
                raise OperationFailed(f"{command} exited {code}")
            return out

        def check(out: str) -> dict:
            if command in ("plan", "improve", "benefit"):
                fields = _parse_fields(fmt, out)
                q = checks.check_q_star(p, int(fields["q_star"]))
                if command == "plan":
                    checks.check_level(p, q, fields["worst_case_bits"])
                    if int(fields["max_volume_bytes"]) != q * p.l * p.lam // 8:
                        raise CheckFailed(f"{p}: max_volume_bytes {fields['max_volume_bytes']}")
                elif command == "improve":
                    checks.check_gain(p, q, k, fields["delta_bits"], fields["lower_log2k"], fields["upper_2log2k"])
                    checks.check_direct(p, q, k, fields["closed_form_bits"], fields["direct_difference_bits"])
                else:
                    checks.check_benefit(p, q, k, cost, fields["benefit"])
            elif command == "sweep":
                lines = out.strip().splitlines()
                if lines[0] != "k,delta_bits,lower_log2k,upper_2log2k,benefit" or len(lines) != 1 + len(K_LIST):
                    raise CheckFailed(f"sweep printed {len(lines)} lines")
                q = checks.q_star(p)
                for line in lines[1:]:
                    k_, delta, lower, upper, value = line.split(",")
                    checks.check_gain(p, q, int(k_), delta, lower, upper)
                    checks.check_benefit(p, q, int(k_), Fraction(1), value)
                return {"sweep_rows": len(lines) - 1}
            elif command == "validate":
                lines = out.strip().splitlines()
                if lines[-1] != VALIDATE_LINE or any(line.startswith("FAIL") for line in lines):
                    raise CheckFailed(f"validate printed {lines[-1]!r}")
            elif command == "simulate":
                fields = json.loads(out)
                if int(fields["trials"]) != CLI_SIMULATE_TRIALS:
                    raise CheckFailed(f"simulate ran {fields['trials']} trials")
                self.pooled[simulate][0] += int(fields["collisions"])
                self.pooled[simulate][1] += CLI_SIMULATE_TRIALS
            else:
                fields = _table(out)
                cap = session_cap(mode, target_bits)
                keys = -(-CLI_MANIFEST_FILES // cap)
                got = tuple(int(fields[name]) for name in ("files_processed", "q_star", "per_key_cap", "keys_consumed", "rotations"))
                if got != (CLI_MANIFEST_FILES, cap, cap, keys, keys - 1):
                    raise CheckFailed(f"rotate printed {got}")
                checks.check_schedule(read_events(events_path), CLI_MANIFEST_FILES, cap, keys)
                check_state_file(state_path, CLI_MANIFEST_FILES, cap)
                return {"rotations": keys - 1, "keys_consumed": keys}
            return {}

        return Op(command, 1, run, check)

    def finish(self) -> None:
        check_pooled(self.pooled)


WORKLOADS = {w.name: w for w in (CliCold, PlanExact, McCollide, RotateFiles)}
