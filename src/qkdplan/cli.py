"""Command-line planner.

Subcommands mirror the library layers: plan / improve / benefit / sweep for
the exact planning math, validate for the built-in regression suite,
simulate for scaled-down collision trials, rotate for running the key
lifecycle engine over a manifest.

Exit codes: 0 success, 1 a validate check failed, 2 usage or input errors,
3 infeasible security target, 4 empirical result above its theoretical
bound, 5 key pool exhausted.  csv and json output is deterministic byte for
byte.

simulate and rotate import the Monte Carlo and rotation modules when they
run, so the planning subcommands start without loading either.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .advmodel import EcbcDenominator, Mode, SecurityParams, _exponent, bound_at, check_key_cost
from .exactmath import FixedDecimal, as_natural, parse_rational
from .planner import (
    InfeasibleTargetError,
    RotationPlan,
    benefit,
    blocks_per_file,
    compute_q_star,
    improvement_bits,
    sweep_k,
    volume_kb,
    volume_mb,
)

_SIZE_PATTERN = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*(B|KB|MB|GB)?\s*$", re.IGNORECASE)
_SIZE_UNITS = {"B": 1, "KB": 1024, "MB": 1024**2, "GB": 1024**3}

SWEEP_CSV_HEADER = "k,delta_bits,lower_log2k,upper_2log2k,benefit"


def parse_file_size(text: str) -> int:
    """Bytes from "1536", "1.5KB", "2 MB" (1024-based units)."""
    match = _SIZE_PATTERN.match(text)
    if not match:
        raise ValueError(f"unparseable file size {text!r}")
    value = Fraction(match.group(1)) * _SIZE_UNITS[(match.group(2) or "B").upper()]
    if value.denominator != 1 or value < 1:
        raise ValueError(f"file size {text!r} is not a whole positive byte count")
    return int(value)


def _natural(text: str) -> int:
    """Type of every integer option, so argparse names the option in the
    error for a negative value as it does for a non-integer one."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        return as_natural(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _key_cost(text: str) -> Fraction:
    """The --key-cost value, rejected before any work if it breaks
    check_key_cost's rule."""
    return check_key_cost(parse_rational(text))


def _plan(args: argparse.Namespace) -> RotationPlan:
    """The plan the common model flags describe."""
    size = parse_file_size(args.file_size)
    # lambda's range first: without --block-bits it is the block width too
    block_bits = lambda_bits = _exponent("lambda_bits", args.lambda_bits)
    if args.block_bits is not None:
        block_bits = args.block_bits
    elif lambda_bits % 8:
        raise ValueError(f"--lambda {lambda_bits}, the block width without --block-bits, must be a multiple of 8")
    if args.eps is not None:
        ceiling = {"eps_max": parse_rational(args.eps)}
    else:
        ceiling = {"target_bits": args.target_bits if args.target_bits is not None else 80}
    params = SecurityParams.from_bits(
        args.lambda_bits,
        args.s_min_bits,
        blocks_per_file(size, block_bits),
        ecbc_denominator=EcbcDenominator(args.ecbc_denominator),
        **ceiling,
    )
    return compute_q_star(Mode(args.mode), params, size, block_bits)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", required=True, choices=sorted(m.value for m in Mode))
    parser.add_argument(
        "--lambda",
        "--lambda-bits",
        dest="lambda_bits",
        type=_natural,
        default=128,
        help="cipher security parameter in bits (default 128)",
    )
    parser.add_argument(
        "--s-min-bits",
        type=_natural,
        default=121,
        help="min-entropy floor exponent: s_min = 2**this (default 121)",
    )
    parser.add_argument(
        "--block-bits",
        type=_natural,
        default=None,
        help="block size for chunking files (default: the security parameter)",
    )
    parser.add_argument(
        "--file-size",
        default="1.5KB",
        help="per-file size, e.g. 1536, 1.5KB, 2MB (default 1.5KB)",
    )
    ceiling = parser.add_mutually_exclusive_group()
    ceiling.add_argument(
        "--target-bits",
        type=_natural,
        default=None,
        help="advantage ceiling exponent: eps_max = 2**-this (default 80)",
    )
    ceiling.add_argument(
        "--eps",
        default=None,
        help='advantage ceiling as an exact rational "p/q"',
    )
    parser.add_argument(
        "--ecbc-denominator",
        choices=sorted(d.value for d in EcbcDenominator),
        default="two-n",
        help="block-domain denominator for ecbc-mac terms (default two-n)",
    )


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")


def _decimal(value: Fraction, digits: int) -> str:
    return str(FixedDecimal.from_fraction(value, digits))


def _emit(fmt: str, fields: list[tuple[str, str]]) -> None:
    if fmt == "table":
        width = max(len(name) for name, _ in fields)
        for name, value in fields:
            print(f"{name:<{width}}  {value}")
    elif fmt == "csv":
        print(",".join(name for name, _ in fields))
        print(",".join(value for _, value in fields))
    else:
        print(json.dumps(dict(fields), indent=2, sort_keys=True))


# ------------------------------------------------------------------ commands


def cmd_plan(args: argparse.Namespace) -> int:
    plan = _plan(args)
    volume = plan.max_data_volume_bytes
    fields = [
        ("mode", plan.mode.value),
        ("lambda_bits", str(plan.params.lambda_bits)),
        ("s_min_bits", str(args.s_min_bits)),
        ("blocks_per_file", str(plan.params.blocks_per_file)),
        ("file_size_bytes", str(plan.file_size_bytes)),
        ("q_star", str(plan.q_star)),
        ("worst_case_bits", str(plan.worst_case_bits)),
        ("max_volume_bytes", str(volume)),
        ("max_volume_kb", _decimal(volume_kb(volume), 1)),
        ("max_volume_mb", _decimal(volume_mb(volume), 1)),
    ]
    _emit(args.format, fields)
    return 0


def cmd_improve(args: argparse.Namespace) -> int:
    plan = _plan(args)
    report = improvement_bits(plan.mode, plan.params, plan.q_star, args.k)
    fields = [
        ("mode", plan.mode.value),
        ("q_star", str(plan.q_star)),
        ("k", str(report.k)),
        ("delta_bits", str(report.delta_bits)),
        ("lower_log2k", str(report.lower_bound_bits)),
        ("upper_2log2k", str(report.upper_bound_bits)),
        # legacy keys: the gain is computed once, so both repeat delta_bits
        ("closed_form_bits", str(report.delta_bits)),
        ("direct_difference_bits", str(report.delta_bits)),
    ]
    _emit(args.format, fields)
    return 0


def cmd_benefit(args: argparse.Namespace) -> int:
    plan = _plan(args)
    cost = _key_cost(args.key_cost)
    report = benefit(plan.mode, plan.params, plan.q_star, args.k, cost)
    fields = [
        ("mode", plan.mode.value),
        ("q_star", str(plan.q_star)),
        ("k", str(report.k)),
        ("key_cost", args.key_cost),
        ("benefit", str(report.benefit)),
    ]
    _emit(args.format, fields)
    return 0


def _parse_k_list(text: str) -> list[int]:
    if not text.strip():
        return []
    values = []
    for part in text.split(","):
        try:
            k = int(part)
        except ValueError:
            raise ValueError(f"--k-list entry {part!r} is not an integer") from None
        if k < 1:
            raise ValueError(f"--k-list values must be >= 1, got {k}")
        values.append(k)
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    plan = _plan(args)
    k_values = _parse_k_list(args.k_list)
    cost = _key_cost(args.key_cost)
    rows = sweep_k(plan.mode, plan.params, plan.q_star, k_values, cost)
    print(SWEEP_CSV_HEADER)
    for row in rows:
        print(
            f"{row.k},{row.delta_bits},{row.lower_bound_bits},"
            f"{row.upper_bound_bits},{row.benefit}"
        )
    return 0


# The paper's figures at the 128-bit reference scenario (s_min = 2**121, 1.5
# KB files, eps_max = 2**-80): check, model (mode, ECBC-MAC denominator),
# quantity, published value, and the rule that reduces the exact value to
# it at 10**-places, "truncate" or "round" (half up).  Each rule is inferred
# from the numbers alone.  No rule turns the D = N ECBC-MAC gain into the
# published 1.99996; the D = 2N gain truncates to it.
PUBLISHED_FIGURES = (
    ("ctr-q-star", "ctr", "two-n", "q_star", "1210759", 0, "truncate"),
    ("cbc-q-star", "cbc", "two-n", "q_star", "123575", 0, "truncate"),
    ("ecbc-q-star-published-rounding", "ecbc-mac", "paper-compat-n", "q_star", "174700", -2, "truncate"),
    ("ctr-gain-k2", "ctr", "two-n", "delta_bits", "1.999923", 6, "truncate"),
    ("cbc-gain-k2", "cbc", "two-n", "delta_bits", "1.999992", 6, "truncate"),
    ("ecbc-gain-k2", "ecbc-mac", "two-n", "delta_bits", "1.99996", 5, "truncate"),
    ("ctr-volume", "ctr", "two-n", "volume_mb", "1773.5", 1, "truncate"),
    ("cbc-volume", "cbc", "two-n", "volume_mb", "181", 0, "truncate"),
    ("ecbc-volume", "ecbc-mac", "paper-compat-n", "volume_mb", "256", 0, "round"),
)


def cmd_validate(args: argparse.Namespace) -> int:
    del args
    checks = _reference_checks()
    failed = 0
    for name, ok, detail in checks:
        verdict = "PASS" if ok else "FAIL"
        failed += not ok
        print(f"{verdict} {name}: {detail}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if not failed else 1


def _reference_checks(figures: tuple = PUBLISHED_FIGURES) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for each row of figures, whose exact value
    reduced by its rule must equal the published one, and as fourth check
    the ECBC-MAC Q* certified maximal by bound_at itself (bound(Q*) <=
    eps_max < bound(Q*+1), not the solver's cleared quadratic)."""
    checks = []
    for name, mode, denominator, quantity, published, places, rule in figures:
        plan = _reference_plan(mode, denominator)
        if quantity == "q_star":
            exact = shown = plan.q_star
        elif quantity == "delta_bits":
            shown = improvement_bits(plan.mode, plan.params, plan.q_star, 2).delta_bits
            exact = shown.as_fraction()
        else:
            exact = volume_mb(plan.max_data_volume_bytes)
            shown = _decimal(exact, 3)
        unit = Fraction(10) ** -places
        reduced = (exact / unit + (Fraction(1, 2) if rule == "round" else 0)) // 1 * unit
        detail = f"{quantity}={shown}, {rule} at 10^{-places}: {_decimal(reduced, max(places, 0))}"
        checks.append((name, reduced == Fraction(published), f"{detail}, published {published}"))
    plan = _reference_plan("ecbc-mac", "two-n")
    q, params = plan.q_star, plan.params
    maximal = bound_at(plan.mode, params, q) <= params.eps_max < bound_at(plan.mode, params, q + 1)
    checks.insert(3, ("ecbc-q-star-maximal", maximal, f"q_star={q} bound(q_star) <= eps_max < bound(q_star+1)"))
    return checks


@functools.cache
def _reference_plan(mode: str, denominator: str) -> RotationPlan:
    params = SecurityParams.from_bits(128, 121, 96, target_bits=80, ecbc_denominator=EcbcDenominator(denominator))
    return compute_q_star(Mode(mode), params, 1536)


def cmd_simulate(args: argparse.Namespace) -> int:
    from .empirics import TrialConfig, estimate_collision_probability

    config = TrialConfig(
        mode=Mode(args.mode),
        block_bits=args.block_bits,
        q_files=args.q,
        blocks_per_file=args.l,
        trials=args.trials,
        rng_seed=args.seed,
    )
    result = estimate_collision_probability(config)
    bound = result.theoretical_bound
    exceeded = result.collision_fraction - result.half_width_99 > float(bound)
    fields = [
        ("mode", args.mode),
        ("block_bits", str(args.block_bits)),
        ("q_files", str(args.q)),
        ("blocks_per_file", str(args.l)),
        ("trials", str(args.trials)),
        ("seed", str(args.seed)),
        ("collisions", str(result.collisions)),
        ("collision_fraction", f"{result.collision_fraction:.6f}"),
        ("half_width_99", f"{result.half_width_99:.6f}"),
        ("theoretical_bound", f"{bound.numerator}/{bound.denominator}"),
        ("theoretical_bound_float", f"{float(bound):.6f}"),
        ("verdict", "EXCEEDS-BOUND" if exceeded else "within-bound"),
    ]
    _emit(args.format, fields)
    return 4 if exceeded else 0


def _read_manifest(path: str) -> list[tuple[str, int]]:
    entries = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if len(parts) not in (1, 2):
                    raise ValueError
                size = int(parts[-1])
                if size < 0:
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: manifest lines are 'size' or 'name size', size >= 0"
                ) from None
            entries.append((parts[0] if len(parts) == 2 else f"line-{lineno}", size))
    return entries


def cmd_rotate(args: argparse.Namespace) -> int:
    from .rotation import (
        PoolExhaustedError,
        encrypt_file,
        export_events,
        ingest_keys,
        open_session,
        persist_state,
        simulate_pool,
    )

    plan = _plan(args)
    cost = _key_cost(args.key_cost)
    # the manifest is checked before the pool is built: drawing or reading
    # the keys is the slow part of a run that the manifest can still refuse
    manifest = _read_manifest(args.manifest)
    for name, file_bytes in manifest:
        if file_bytes > plan.file_size_bytes:
            raise ValueError(
                f"manifest file {name!r} is {file_bytes} bytes, above the "
                f"planned per-file size {plan.file_size_bytes}"
            )

    if args.keys is not None:
        pool = ingest_keys(args.keys, args.key_len_bits, cost)
    else:
        pool = simulate_pool(args.simulate_keys, args.key_len_bits, args.key_seed, cost)

    try:
        session = open_session(
            pool,
            plan.mode,
            plan.params,
            plan.file_size_bytes,
            rotation_factor=args.rotation_factor,
            toy_block_bits=args.toy_block_bits,
            block_bits=plan.block_bits,
        )
    except PoolExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5

    status = 0
    try:
        for _, file_bytes in manifest:
            encrypt_file(session, bytes(file_bytes))
    except PoolExhaustedError:  # it leaves the session's counters unchanged
        print(f"key pool exhausted after {session.total_files} of {len(manifest)} files", file=sys.stderr)
        status = 5

    print(f"files_processed   {session.total_files}")
    print(f"q_star            {session.plan.q_star}")
    print(f"per_key_cap       {session.per_key_cap}")
    print(f"keys_consumed     {session.keys_consumed}")
    print(f"rotations         {len(session.events)}")
    print(f"total_key_cost    {session.total_key_cost}")
    print(f"keys_remaining    {pool.remaining()}")
    if args.events_out:
        export_events(session, args.events_out)
        print(f"events_written    {args.events_out}")
    if args.state_out:
        persist_state(session, args.state_out)
        print(f"state_written     {args.state_out}")
    return status


# -------------------------------------------------------------------- parser


_GAIN_DESCRIPTION = (
    "delta_bits is the security gained against one key by splitting Q* files "
    "across k keys; it lies in (log2 k, 2*log2 k).  Under the hybrid bound "
    "over all k keys the whole schedule gains delta_bits - log2 k."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdplan",
        description="Exact key-rotation planning for QKD-keyed symmetric modes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="maximum files per key at the target level")
    _add_model_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("improve", help="security gained by k-way rotation", description=_GAIN_DESCRIPTION)
    _add_model_flags(p)
    _add_format_flag(p)
    p.add_argument("--k", type=_natural, default=2)
    p.set_defaults(func=cmd_improve)

    p = sub.add_parser("benefit", help="gain per unit key material at k")
    _add_model_flags(p)
    _add_format_flag(p)
    p.add_argument("--k", type=_natural, default=2)
    p.add_argument("--key-cost", default="1")
    p.set_defaults(func=cmd_benefit)

    p = sub.add_parser("sweep", help="csv sweep of rotation gain over k", description=_GAIN_DESCRIPTION)
    _add_model_flags(p)
    p.add_argument(
        "--k-list",
        default=",".join(str(1 << i) for i in range(11)),
        help="comma-separated k values (default powers of two up to 1024)",
    )
    p.add_argument("--key-cost", default="1")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="built-in reference regression checks")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="scaled-down collision Monte Carlo")
    p.add_argument("--mode", required=True, choices=("ctr", "cbc"))
    p.add_argument("--block-bits", type=_natural, required=True)
    p.add_argument("--q", type=_natural, required=True, help="files per trial")
    p.add_argument("--l", type=_natural, required=True, help="blocks per file")
    p.add_argument("--trials", type=_natural, default=100000)
    p.add_argument("--seed", type=_natural, default=0)
    _add_format_flag(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rotate", help="run the key lifecycle over a manifest")
    _add_model_flags(p)
    p.add_argument("--manifest", required=True, help="file of 'size' or 'name size' lines")
    key_source = p.add_mutually_exclusive_group(required=True)
    key_source.add_argument("--keys", default=None, help="hex key file, one key per line")
    key_source.add_argument("--simulate-keys", type=_natural, default=None, help="simulated pool size")
    p.add_argument("--key-seed", type=_natural, default=0)
    p.add_argument("--key-len-bits", type=_natural, default=128)
    p.add_argument("--key-cost", default="1")
    p.add_argument("--rotation-factor", type=_natural, default=1)
    p.add_argument("--toy-block-bits", type=_natural, default=16)
    p.add_argument("--events-out", default=None)
    p.add_argument("--state-out", default=None)
    p.set_defaults(func=cmd_rotate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except InfeasibleTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
