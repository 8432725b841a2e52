"""End-to-end acceptance checks for the planning stack.

Each test guards one headline behaviour: the reference planning figures,
exactness of the rotation-gain algebra, solver agreement with brute-force
scans, Monte Carlo soundness of the collision bounds, and conservation in
the rotation accounting.  Every test prints one summary line on success so
a verbose run reads as a checklist; a failure is reported by pytest itself.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction
from math import lcm

import pytest
from paper_formulas import paper_bound, paper_one_plus_x, unit_scan_limit

from qkdplan.advmodel import EcbcDenominator, Mode, SecurityParams, bound_at
from qkdplan.cli import PUBLISHED_FIGURES, _reference_checks
from qkdplan.empirics import TrialConfig, estimate_collision_probability
from qkdplan.exactmath import log2_rational, max_q_quadratic
from qkdplan.planner import (
    InfeasibleTargetError,
    compute_q_star,
    improvement_bits,
    sweep_k,
    volume_mb,
)
from qkdplan.rotation import encrypt_file, load_state, open_session, persist_state, simulate_pool

FILE_BYTES = 1536


def reference_params(denominator: EcbcDenominator = EcbcDenominator.TWO_N) -> SecurityParams:
    # 128-bit blocks, 2^-121 key-guessing floor, 1.5 KB files, 2^-80 target.
    return SecurityParams.from_bits(
        128, 121, 96, target_bits=80, ecbc_denominator=denominator
    )


def test_reference_file_limits() -> None:
    started = time.perf_counter()
    params = reference_params()
    ctr = compute_q_star(Mode.CTR, params, file_size_bytes=FILE_BYTES)
    cbc = compute_q_star(Mode.CBC, params, file_size_bytes=FILE_BYTES)
    ecbc = compute_q_star(Mode.ECBC_MAC, params, file_size_bytes=FILE_BYTES)
    compat = compute_q_star(
        Mode.ECBC_MAC,
        reference_params(EcbcDenominator.PAPER_COMPAT_N),
        file_size_bytes=FILE_BYTES,
    )
    solve_seconds = time.perf_counter() - started

    assert ctr.q_star == 1210759
    assert cbc.q_star == 123575
    assert ecbc.q_star == 247135
    assert compat.q_star == 174751
    # Rounded reference figure for the compat variant; 0.05% relative slack.
    assert abs(compat.q_star - 174700) <= Fraction(5, 10_000) * 174700
    # The exact value must also survive a full one-step-at-a-time walk.
    assert unit_scan_limit(Mode.ECBC_MAC, params, 300_000) == 247135
    assert solve_seconds < 1.0
    print(
        f"ACCEPTANCE PASS file-limits: ctr=1210759 cbc=123575 "
        f"ecbc-mac=247135/174751, solved in {solve_seconds * 1e3:.1f} ms"
    )


def test_reference_rotation_gain() -> None:
    expectations = [
        (Mode.CTR, EcbcDenominator.TWO_N, Fraction("1.999923")),
        (Mode.CBC, EcbcDenominator.TWO_N, Fraction("1.999992")),
        (Mode.ECBC_MAC, EcbcDenominator.TWO_N, Fraction("1.99996")),
        (Mode.ECBC_MAC, EcbcDenominator.PAPER_COMPAT_N, Fraction("1.99996")),
    ]
    seen = []
    for mode, denominator, target in expectations:
        params = reference_params(denominator)
        plan = compute_q_star(mode, params, file_size_bytes=FILE_BYTES)
        report = improvement_bits(mode, params, plan.q_star, 2)
        delta = report.delta_bits.as_fraction()
        assert abs(delta - target) < Fraction(1, 10_000), (mode, denominator)
        seen.append(f"{float(delta):.7f}")
    print(f"ACCEPTANCE PASS split-gain@k=2: {' '.join(seen)} (each within 1e-4)")


def test_reference_data_volume() -> None:
    half_mb = Fraction(1, 2)
    targets = [
        (Mode.CTR, EcbcDenominator.TWO_N, Fraction("1773.5")),
        (Mode.CBC, EcbcDenominator.TWO_N, Fraction(181)),
        (Mode.ECBC_MAC, EcbcDenominator.PAPER_COMPAT_N, Fraction(256)),
    ]
    seen = []
    for mode, denominator, target in targets:
        plan = compute_q_star(
            mode, reference_params(denominator), file_size_bytes=FILE_BYTES
        )
        megabytes = volume_mb(plan.max_data_volume_bytes)
        assert abs(megabytes - target) <= half_mb, (mode, float(megabytes))
        seen.append(f"{float(megabytes):.1f}MB")
    print(f"ACCEPTANCE PASS data-volume: {' '.join(seen)} (each within 0.5 MB)")


@functools.cache
def exact_figure(mode: str, denominator: str, quantity: str) -> Fraction:
    """A published figure's exact value in its model, computed here rather
    than by validate."""
    params = reference_params(EcbcDenominator(denominator))
    plan = compute_q_star(Mode(mode), params, file_size_bytes=FILE_BYTES)
    if quantity == "q_star":
        return Fraction(plan.q_star)
    if quantity == "delta_bits":
        return improvement_bits(plan.mode, params, plan.q_star, 2).delta_bits.as_fraction()
    assert quantity == "volume_mb", quantity
    return volume_mb(plan.max_data_volume_bytes)


def reduce_figure(value: Fraction, places: int, rule: str) -> Fraction:
    """value brought down to a multiple of 10**-places, after adding half a
    step when the rule rounds."""
    step = Fraction(10) ** -places
    if rule == "round":
        value += step / 2
    return value - value % step


def figure_matches(row: tuple) -> bool:
    """Whether the row's rule turns its exact value into its published
    figure, by the reduction above and by validate's own."""
    name, mode, denominator, quantity, published, places, rule = row
    ours = reduce_figure(exact_figure(mode, denominator, quantity), places, rule) == Fraction(published)
    (theirs,) = [ok for check, ok, _ in _reference_checks((row,)) if check == name]
    assert ours == theirs, row
    return ours


def test_published_figures_match_their_rules() -> None:
    assert len(PUBLISHED_FIGURES) == 9
    for row in PUBLISHED_FIGURES:
        assert figure_matches(row), row
    print(f"ACCEPTANCE PASS published-figures: {len(PUBLISHED_FIGURES)} figures, each equal to its exact value reduced")


def test_published_figure_rules_are_sharp() -> None:
    # One decimal place fewer breaks every row, the other ECBC-MAC
    # denominator breaks each ECBC-MAC row, and a flipped rule breaks the
    # rows whose reduced value it moves.
    other = {"two-n": "paper-compat-n", "paper-compat-n": "two-n"}
    flipped = set()
    for row in PUBLISHED_FIGURES:
        name, mode, denominator, quantity, published, places, rule = row
        assert not figure_matches((name, mode, denominator, quantity, published, places - 1, rule)), name
        if mode == "ecbc-mac":
            assert not figure_matches((name, mode, other[denominator], quantity, published, places, rule)), name
        flip = "round" if rule == "truncate" else "truncate"
        if not figure_matches((name, mode, denominator, quantity, published, places, flip)):
            flipped.add(name)
    assert flipped == {"ecbc-q-star-published-rounding", "ctr-gain-k2", "ecbc-gain-k2", "ctr-volume", "ecbc-volume"}
    print(f"ACCEPTANCE PASS figure-rules-sharp: 9 places, 3 denominators, {len(flipped)} of 9 rules decisive")


@pytest.fixture(scope="module")
def gain_cases() -> list:
    """Randomized (mode, params, q_star, k) cases with their gain reports.

    Shared by the bracket test and the two-path identity test so the
    1000+ solves only happen once.
    """
    rng = random.Random(8839217)
    cases = []
    attempts = 0
    while len(cases) < 1050 and attempts < 30_000:
        attempts += 1
        lam = rng.randrange(12, 97)
        smin_bits = rng.randrange(8, 131)
        blocks = rng.randrange(1, 129)
        headroom = min(smin_bits, lam) - 6
        if headroom < 3:
            continue
        target = rng.randrange(2, max(3, headroom))
        mode = rng.choice(list(Mode))
        denominator = rng.choice(list(EcbcDenominator))
        try:
            params = SecurityParams.from_bits(
                lam, smin_bits, blocks, target_bits=target, ecbc_denominator=denominator
            )
            plan = compute_q_star(mode, params)
        except (InfeasibleTargetError, ValueError):
            continue
        q_star = plan.q_star
        if q_star < 2:
            continue
        k = rng.choice(
            [
                2,
                q_star,
                2 + rng.randrange(1, 65),
                rng.randrange(2, q_star + 1) if q_star > 4 else 2,
            ]
        )
        k = min(k, q_star)
        cases.append((mode, params, q_star, k, improvement_bits(mode, params, q_star, k)))
    assert len(cases) >= 1000
    return cases


def test_gain_bracket_randomized(gain_cases: list) -> None:
    for mode, params, q_star, k, report in gain_cases:
        # Exact form of log2(k) < delta < 2*log2(k): compare advantage ratios
        # as fractions, with no rounding in the loop at all.
        full = bound_at(mode, params, Fraction(q_star))
        split = bound_at(mode, params, Fraction(q_star, k))
        ratio = full / split
        assert k < ratio < k * k, (mode, params, q_star, k)
        # The reported decimals may tie at display precision; the exact
        # comparison above is the guarantee.
        bracket = report.lower_bound_bits, report.delta_bits, report.upper_bound_bits
        low, gain, high = (value.as_fraction() for value in bracket)
        assert low <= gain <= high
    print(
        f"ACCEPTANCE PASS gain-bracket: {len(gain_cases)} randomized cases, "
        f"0 violations of k < ratio < k^2"
    )


def test_gain_two_path_identity(gain_cases: list) -> None:
    # The paper writes the gain as log2(k) + log2(1 + X).  Exactly, as
    # Fractions: k*(1 + X) is the bound ratio bound(Q*)/bound(Q*/k); and the
    # reported gain is the paper's sum, each term rounded to its digits.
    for mode, params, q_star, k, report in gain_cases:
        one_plus_x = paper_one_plus_x(mode, params, q_star, k)
        ratio = paper_bound(mode, params, Fraction(q_star)) / paper_bound(mode, params, Fraction(q_star, k))
        assert k * one_plus_x == ratio, (mode, params, q_star, k)
        digits = report.delta_bits.digits
        assert report.delta_bits == log2_rational(Fraction(k), digits) + log2_rational(one_plus_x, digits)
    print(
        f"ACCEPTANCE PASS gain-identity: k*(1+X) equals the bound ratio and "
        f"the gain is log2 k + log2(1+X), {len(gain_cases)} cases"
    )


def test_solver_agrees_with_brute_force() -> None:
    rng = random.Random(457121)

    # Constructed-root instances: pick the answer first, then build rational
    # (a, b, c) so the true maximum is exactly that answer, and clear them to
    # integers for the solver.
    constructed = 320
    for _ in range(constructed):
        a = Fraction(rng.randrange(1, 1 << 32), rng.randrange(1, 1 << 32))
        b = Fraction(0)
        if rng.randrange(2):
            b = Fraction(rng.randrange(1, 1 << 32), rng.randrange(1, 1 << 32))
        q_true = rng.randrange(0, 30_001)
        at_q = a * q_true * q_true + b * q_true
        at_next = a * (q_true + 1) * (q_true + 1) + b * (q_true + 1)
        c = at_q + (at_next - at_q) * Fraction(rng.randrange(0, 997), 997)
        m = lcm(a.denominator, b.denominator, c.denominator)
        cleared = (int(a * m), int(b * m), int(c * m))
        assert max_q_quadratic(*cleared) == q_true, (cleared, q_true)

    # Planner instances over small domains, against the unit-step walk.
    rng = random.Random(90125)
    scanned = 0
    infeasible = 0
    while scanned < 200:
        lam = rng.randrange(10, 33)
        smin_bits = rng.randrange(4, 35)
        blocks = rng.randrange(1, 17)
        target = rng.randrange(1, 25)
        mode = rng.choice(list(Mode))
        denominator = rng.choice(list(EcbcDenominator))
        try:
            params = SecurityParams.from_bits(
                lam, smin_bits, blocks, target_bits=target, ecbc_denominator=denominator
            )
        except ValueError:
            continue
        try:
            plan = compute_q_star(mode, params)
        except InfeasibleTargetError:
            assert unit_scan_limit(mode, params, 10_001) == 0
            infeasible += 1
            continue
        if plan.q_star > 10_000:
            continue
        assert unit_scan_limit(mode, params, 1 << 20) == plan.q_star, params
        scanned += 1

    total = constructed + scanned + infeasible
    print(
        f"ACCEPTANCE PASS solver-oracle: {constructed} constructed-root + "
        f"{scanned} scanned + {infeasible} infeasible agree ({total} instances)"
    )


def test_collision_bounds_hold_at_scale() -> None:
    grid = [
        (Mode.CTR, 12, 8, 4),
        (Mode.CTR, 12, 16, 2),
        (Mode.CTR, 16, 16, 4),
        (Mode.CTR, 16, 64, 2),
        (Mode.CTR, 20, 64, 8),
        (Mode.CBC, 12, 4, 2),
        (Mode.CBC, 16, 8, 4),
        (Mode.CBC, 16, 16, 4),
        (Mode.CBC, 20, 32, 4),
        (Mode.CBC, 20, 64, 8),
    ]
    started = time.perf_counter()
    floored = 0
    for mode, block_bits, q_files, blocks in grid:
        result = estimate_collision_probability(
            TrialConfig(mode, block_bits, q_files, blocks, trials=100_000, rng_seed=20240817)
        )
        bound = result.theoretical_bound
        label = (mode.value, block_bits, q_files, blocks)
        # One-sided: the 99% lower confidence edge must not exceed the bound.
        assert result.collision_fraction - result.half_width_99 <= bound, label
        # Non-vacuity floor, skipped where the bound is too close to saturation.
        if bound <= Fraction(1, 4):
            assert result.collision_fraction >= bound / 8, label
            floored += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE PASS collision-bounds: 10 configs x 100k trials, all under "
        f"bound, {floored} above bound/8, {elapsed:.1f} s"
    )


def test_rotation_accounting_conserves(tmp_path) -> None:
    rng = random.Random(6403)
    started = time.perf_counter()
    runs = 0
    files_total = 0
    while runs < 22:
        lam = rng.randrange(14, 23)
        smin_bits = rng.randrange(10, lam)
        blocks = rng.choice([2, 4, 8])
        mode = rng.choice(list(Mode))
        # Walk the target down until the file limit lands in a small band.
        # The limit roughly doubles per step, so the band cannot be skipped.
        chosen = None
        for target in range(min(smin_bits, lam) - 1, 1, -1):
            try:
                params = SecurityParams.from_bits(lam, smin_bits, blocks, target_bits=target)
                plan = compute_q_star(mode, params)
            except (InfeasibleTargetError, ValueError):
                continue
            if plan.q_star > 12:
                break
            if plan.q_star >= 2:
                chosen = (params, plan.q_star)
                break
        if chosen is None:
            continue
        params, q_star = chosen
        factor = rng.choice([1, 1, 2, 3])
        if factor > q_star:
            factor = 1
        cap = q_star // factor
        file_count = 10_000 if runs < 2 else rng.randrange(40, 1500)
        expect_keys = -(-file_count // cap)
        surplus = rng.choice([0, 0, rng.randrange(1, 5)])
        cost = Fraction(rng.randrange(1, 4), rng.choice([1, 2]))
        pool = simulate_pool(
            expect_keys + surplus, 128, seed=rng.randrange(1 << 32), cost=cost
        )
        rng.randrange(1 << 60)  # the retired cipher key seed: drawn so later inputs stay the same
        session = open_session(pool, mode, params, rotation_factor=factor, block_bits=16)
        assert session.per_key_cap == cap
        size = session.plan.file_size_bytes
        for _ in range(file_count):
            encrypt_file(session, rng.randbytes(rng.randrange(1, size + 1)))

        assert session.total_files == file_count
        assert session.keys_consumed == expect_keys
        assert len(session.events) == expect_keys - 1
        assert session.total_key_cost == expect_keys * cost
        assert [e.at_file_count for e in session.events] == [
            cap * (j + 1) for j in range(expect_keys - 1)
        ]
        leftover = file_count - cap * (expect_keys - 1)
        assert session.files_under_current_key == leftover
        assert 1 <= leftover <= cap
        assert pool.remaining() == surplus

        first = tmp_path / f"run{runs}.json"
        second = tmp_path / f"run{runs}-again.json"
        persist_state(session, first)
        loaded = load_state(first)
        assert loaded == session
        persist_state(loaded, second)
        assert second.read_bytes() == first.read_bytes()

        files_total += file_count
        runs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE PASS rotation-accounting: {runs} runs, {files_total} files, "
        f"ceil identity + state round trip, {elapsed:.1f} s"
    )


def test_sweep_is_monotone() -> None:
    k_values = [1 << i for i in range(11)]
    combos = [
        (Mode.CTR, EcbcDenominator.TWO_N),
        (Mode.CBC, EcbcDenominator.TWO_N),
        (Mode.ECBC_MAC, EcbcDenominator.TWO_N),
        (Mode.ECBC_MAC, EcbcDenominator.PAPER_COMPAT_N),
    ]
    for mode, denominator in combos:
        params = reference_params(denominator)
        plan = compute_q_star(mode, params, file_size_bytes=FILE_BYTES)
        rows = sweep_k(mode, params, plan.q_star, k_values)
        deltas = [row.delta_bits.as_fraction() for row in rows]
        assert all(x < y for x, y in zip(deltas, deltas[1:])), mode
        benefits = [row.benefit.as_fraction() for row in rows[1:]]
        assert all(x > y for x, y in zip(benefits, benefits[1:])), mode
    print(
        "ACCEPTANCE PASS sweep-monotone: delta strictly up, benefit strictly "
        "down over k=1..1024 for all modes"
    )
