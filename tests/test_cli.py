"""Command-line interface tests, all in-process through main(argv)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qkdplan.advmodel import Mode, SecurityParams
from qkdplan.cli import SWEEP_CSV_HEADER, main, parse_file_size
from qkdplan.empirics import EmpiricalResult
from qkdplan.rotation import encrypt_file, load_state, open_session, simulate_pool

TOY = ["--lambda", "16", "--s-min-bits", "14", "--file-size", "8", "--target-bits", "9"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- size parsing


def test_parse_file_size():
    assert parse_file_size("1536") == 1536
    assert parse_file_size("1.5KB") == 1536
    assert parse_file_size("1.5 kb") == 1536
    assert parse_file_size("2MB") == 2 * 1024 * 1024
    assert parse_file_size("512B") == 512
    for bad in ("", "abc", "-5", "0.3KB", "0"):
        with pytest.raises(ValueError):
            parse_file_size(bad)


# --------------------------------------------------------------------- plan


def test_plan_table_reference_values(capsys):
    code, out, _ = run(capsys, "plan", "--mode", "ctr")
    assert code == 0
    assert "q_star            1210759" in out
    assert "max_volume_kb     1816138.5" in out


def test_plan_json_fields(capsys):
    code, out, _ = run(capsys, "plan", "--mode", "cbc", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["q_star"] == "123575"
    assert data["max_volume_bytes"] == str(123575 * 1536)
    assert data["mode"] == "cbc"


def test_plan_ecbc_denominator_flag(capsys):
    code, out, _ = run(
        capsys, "plan", "--mode", "ecbc-mac", "--format", "json",
        "--ecbc-denominator", "paper-compat-n",
    )
    assert json.loads(out)["q_star"] == "174751"
    code, out, _ = run(capsys, "plan", "--mode", "ecbc-mac", "--format", "json")
    assert json.loads(out)["q_star"] == "247135"


def test_plan_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "plan", "--mode", "ctr", "--format", "csv")
    _, second, _ = run(capsys, "plan", "--mode", "ctr", "--format", "csv")
    assert first == second
    _, jfirst, _ = run(capsys, "plan", "--mode", "ctr", "--format", "json")
    _, jsecond, _ = run(capsys, "plan", "--mode", "ctr", "--format", "json")
    assert jfirst == jsecond


def test_plan_eps_escape_hatch(capsys):
    code, out, _ = run(
        capsys, "plan", "--mode", "ctr", "--lambda", "16", "--s-min-bits", "14",
        "--file-size", "8", "--eps", "1/512", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["q_star"] == "3"


def test_plan_infeasible_exits_3(capsys):
    code, _, err = run(capsys, "plan", "--mode", "ctr", *TOY[:-2], "--target-bits", "14")
    assert code == 3
    assert "error" in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "plan", "--mode", "ctr", "--bogus")[0] == 2
    assert run(capsys, "plan")[0] == 2
    assert run(capsys, "plan", "--mode", "nope")[0] == 2
    assert run(capsys, "plan", "--mode", "ctr", "--file-size", "x")[0] == 2
    assert run(capsys, "plan", "--mode", "ctr", "--eps", "1/8", "--target-bits", "9")[0] == 2
    assert run(capsys, "plan", "--mode", "ctr", "--target-bits", "80", "--eps", "1/8")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "plan", "--mode", "ctr", "--eps", "1/0")[0] == 2
    assert run(capsys, "benefit", "--mode", "ctr", "--key-cost", "1/0")[0] == 2


def test_huge_exponents_exit_2(capsys):
    huge = "100000000000"
    for flags in (
        ["--lambda", huge],
        ["--s-min-bits", huge],
        ["--target-bits", huge],
        ["--eps", "1/1024", "--s-min-bits", huge],
    ):
        code, _, err = run(capsys, "plan", "--mode", "ctr", *flags)
        assert code == 2, flags
        assert err.startswith("error:") and "must lie in" in err


def test_lambda_errors_name_lambda(capsys):
    # --lambda is range-checked before it is used as the block width, and a
    # width taken from it names it
    code, _, err = run(capsys, "plan", "--mode", "ctr", "--lambda", "0")
    assert (code, err) == (2, "error: lambda_bits must lie in [1, 4096]\n")
    code, _, err = run(capsys, "plan", "--mode", "ctr", "--lambda", "12")
    assert (code, err) == (2, "error: --lambda 12, the block width without --block-bits, must be a multiple of 8\n")
    code, _, err = run(capsys, "plan", "--mode", "ctr", "--lambda", "128", "--block-bits", "12")
    assert (code, err) == (2, "error: block_bits must be a positive multiple of 8\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["rotate", "--key-seed", "-1"],
        ["rotate", "--simulate-keys", "-1"],
        ["rotate", "--rotation-factor", "-1"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--q", "-4"],
        ["improve", "--k", "-1"],
        ["plan", "--lambda", "-1"],
    ],
)
def test_negative_integer_option_is_named(capsys, argv):
    command, flag, value = argv
    code, _, err = run(capsys, command, "--mode", "ctr", flag, value)
    assert code == 2
    assert f"argument {flag}" in err and f"{value} is negative" in err


# ------------------------------------------------------- improve and benefit


def test_improve_reports_both_paths(capsys):
    code, out, _ = run(capsys, "improve", "--mode", "ctr", "--k", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["delta_bits"].startswith("1.9999237460")
    # legacy keys: the gain is computed once and both repeat it
    assert data["closed_form_bits"] == data["delta_bits"]
    assert data["direct_difference_bits"] == data["delta_bits"]
    assert data["lower_log2k"] == "1.000000000000"
    assert data["upper_2log2k"] == "2.000000000000"


@pytest.mark.parametrize("command", ["improve", "sweep"])
def test_gain_help_names_both_gains(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    text = " ".join(out.split())
    assert "gained against one key" in text and "(log2 k, 2*log2 k)" in text
    assert "whole schedule gains delta_bits - log2 k" in text


def test_benefit_unit_cost(capsys):
    code, out, _ = run(capsys, "benefit", "--mode", "ctr", "--k", "2", "--format", "json")
    assert code == 0
    value = Fraction(json.loads(out)["benefit"])
    assert abs(value - 1210713) < 1


def test_benefit_rational_cost(capsys):
    code, out, _ = run(
        capsys, "benefit", "--mode", "ctr", "--k", "2", "--key-cost", "3/2",
        "--format", "json",
    )
    assert code == 0
    value = Fraction(json.loads(out)["benefit"])
    assert abs(value - Fraction(2, 3) * 1210713) < 1


# -------------------------------------------------------------------- sweep


def test_sweep_csv_shape_and_first_rows(capsys):
    code, out, _ = run(capsys, "sweep", "--mode", "ctr", "--k-list", "1,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[1].startswith("1,0.000000000000,0.000000000000,0.000000000000,0.000000000")
    assert lines[2].startswith("2,1.999923746045,")
    assert len(lines) == 3


def test_sweep_empty_k_list_header_only(capsys):
    code, out, _ = run(capsys, "sweep", "--mode", "ctr", "--k-list", "")
    assert code == 0
    assert out == SWEEP_CSV_HEADER + "\n"


def test_sweep_default_powers_and_determinism(capsys):
    code, first, _ = run(capsys, "sweep", "--mode", "cbc")
    assert code == 0
    assert len(first.splitlines()) == 12  # header + k = 1..1024
    _, second, _ = run(capsys, "sweep", "--mode", "cbc")
    assert first == second


def test_sweep_rejects_bad_k(capsys):
    assert run(capsys, "sweep", "--mode", "ctr", "--k-list", "0,2")[0] == 2
    assert run(capsys, "sweep", "--mode", "ctr", "--k-list", "2,x")[0] == 2
    # k=1000 is above the toy plan's q_star=3: nothing, not even the header, is printed
    code, out, err = run(capsys, "sweep", "--mode", "ctr", *TOY, "--k-list", "2,1000")
    assert (code, out) == (2, "")
    assert "k=1000 exceeds q_star=3" in err


@pytest.mark.parametrize(("k_list", "entry"), [("2,x", "'x'"), ("1,,2", "''")])
def test_sweep_names_a_bad_k_list_entry(capsys, k_list, entry):
    code, out, err = run(capsys, "sweep", "--mode", "ctr", "--k-list", k_list)
    assert (code, out) == (2, "")
    assert err == f"error: --k-list entry {entry} is not an integer\n"


# ----------------------------------------------------------------- validate


def test_validate_all_pass(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "10/10 checks passed"
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "PASS ctr-q-star",
        "PASS cbc-q-star",
        "PASS ecbc-q-star-published-rounding",
        "PASS ecbc-q-star-maximal",
        "PASS ctr-gain-k2",
        "PASS cbc-gain-k2",
        "PASS ecbc-gain-k2",
        "PASS ctr-volume",
        "PASS cbc-volume",
        "PASS ecbc-volume",
    ]
    assert lines[3].startswith("PASS ecbc-q-star-maximal: q_star=247135 ")


# ----------------------------------------------------------------- simulate


def test_simulate_within_bound(capsys):
    code, out, _ = run(
        capsys, "simulate", "--mode", "ctr", "--block-bits", "16", "--q", "16",
        "--l", "4", "--trials", "20000", "--seed", "42", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "within-bound"
    assert data["theoretical_bound"] == "1/32"
    assert 0.005 < float(data["collision_fraction"]) < 0.02


def test_simulate_rejects_tiny_trials(capsys):
    code, _, err = run(
        capsys, "simulate", "--mode", "ctr", "--block-bits", "16", "--q", "16",
        "--l", "4", "--trials", "500",
    )
    assert code == 2
    assert "1000" in err


def test_simulate_rejects_aliasing_cbc_file_length(capsys):
    code, _, err = run(
        capsys, "simulate", "--mode", "cbc", "--block-bits", "16", "--q", "2",
        "--l", "257", "--trials", "1000",
    )
    assert code == 2
    assert "256 blocks_per_file" in err


def test_simulate_rejects_seed_beyond_64_bits(capsys):
    # 2**64 + 3 would draw the same trials as seed 3
    code, out, err = run(
        capsys, "simulate", "--mode", "ctr", "--block-bits", "12", "--q", "8",
        "--l", "4", "--trials", "1000", "--seed", str((1 << 64) + 3),
    )
    assert (code, out) == (2, "")
    assert err == "error: rng_seed must be a 64-bit integer\n"


def test_simulate_bound_violation_exits_4(capsys, monkeypatch):
    # the real estimator cannot violate a sound bound, so fabricate a result
    # to pin down the exit-code contract
    fake = EmpiricalResult(theoretical_bound=Fraction(1, 32), trials=20000, collisions=10000)
    monkeypatch.setattr("qkdplan.empirics.estimate_collision_probability", lambda config: fake)
    code, out, _ = run(
        capsys, "simulate", "--mode", "ctr", "--block-bits", "16", "--q", "16",
        "--l", "4", "--trials", "20000",
    )
    assert code == 4
    assert "EXCEEDS-BOUND" in out


# ------------------------------------------------------------------- rotate


def rotate_args(manifest, *extra):
    return [
        "rotate", "--mode", "ctr", *TOY, "--manifest", str(manifest),
        "--simulate-keys", "5", *extra,
    ]


def test_rotate_rejects_key_length_outside_the_rule(capsys, tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("8\n")
    for bits in ("12", "4104", "8000000000"):  # 10**9 key bytes would take minutes to draw
        code, out, err = run(capsys, *rotate_args(manifest, "--key-len-bits", bits))
        assert (code, out) == (2, "")
        assert err == "error: key_len_bits must be a multiple of 8 in [8, 4096]\n"


def test_oversized_key_cost_exits_2_before_any_work(capsys, tmp_path):
    # 1e-5000 used to encrypt the manifest and print its table before the
    # total cost overflowed int-to-str; 1e-999999999 asks Fraction for 10**999999999
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("8\n8\n")
    state = tmp_path / "state.json"
    for cost in ("1e-5000", "1e-999999999", "1/" + "7" * 5000, str(1 << 8192)):
        code, out, err = run(capsys, *rotate_args(manifest, "--key-cost", cost, "--state-out", str(state)))
        assert (code, out) == (2, "")
        assert "numerator and denominator must fit in 8192 bits" in err
        code, out, _ = run(capsys, "benefit", "--mode", "ctr", "--k", "2", "--key-cost", cost)
        assert (code, out) == (2, "")
    assert not state.exists()
    code, out, _ = run(capsys, "benefit", "--mode", "ctr", "--k", "2", "--key-cost", "1e-2000")
    assert code == 0 and "key_cost  1e-2000\n" in out


def test_rational_text_with_whitespace_exits_2(capsys):
    # benefit echoes --key-cost, so "1/2\n" used to print a three-line csv
    for argv in (
        ("benefit", "--mode", "ctr", "--format", "csv", "--key-cost", "1/2\n"),
        ("sweep", "--mode", "ctr", "--key-cost", " 1"),
        ("plan", "--mode", "ctr", "--eps", "1/1024 "),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "surrounding whitespace" in err


def test_oversized_eps_exits_2_in_milliseconds(capsys):
    # Fraction turns 1e-N into 10**N: 1e-1000000 used to take 14 s to exit 3
    wide = 1 << 8192
    for eps in ("1e-1000000", "1e-300000", "1e-99999", "1/" + "7" * 5000, f"1/{wide}", f"{wide - 1}/{wide + 1}"):
        start = time.perf_counter()
        code, out, err = run(capsys, "plan", "--mode", "ctr", "--eps", eps)
        assert time.perf_counter() - start < 0.5, eps
        assert (code, out) == (2, ""), eps
        assert "numerator and denominator must fit in 8192 bits" in err
    code, out, _ = run(capsys, "plan", "--mode", "ctr", "--eps", f"1/{wide - 1}")
    assert code == 3  # accepted, and far below the bound at one file


def test_rotate_checks_the_manifest_before_building_the_pool(capsys, tmp_path, monkeypatch):
    # a 100000-key pool used to be drawn before a bad manifest was refused
    def no_pool(*args):
        pytest.fail("the key pool was built before the manifest was checked")

    monkeypatch.setattr("qkdplan.rotation.simulate_pool", no_pool)
    monkeypatch.setattr("qkdplan.rotation.ingest_keys", no_pool)
    keys = tmp_path / "keys.txt"
    keys.write_text("00" * 16 + "\n")
    manifest = tmp_path / "manifest.txt"
    for text, message in (("8\na b c\n", "manifest lines are"), ("8\nbig 9\n", "above the planned per-file size")):
        manifest.write_text(text)
        for source in (["--simulate-keys", "100000"], ["--keys", str(keys)]):
            base = ["rotate", "--mode", "ctr", *TOY, "--manifest", str(manifest)]
            code, out, err = run(capsys, *base, *source)
            assert (code, out) == (2, "")
            assert message in err


def test_rotate_manifest_run(capsys, tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# four files\nfileA 8\nfileB 8\n6\nfileD 4\n")
    events = tmp_path / "events.jsonl"
    state = tmp_path / "state.json"
    code = main(rotate_args(manifest, "--events-out", str(events), "--state-out", str(state)))
    out = capsys.readouterr().out
    assert code == 0
    assert "keys_consumed     2" in out
    assert "rotations         1" in out
    event = json.loads(events.read_text().splitlines()[0])
    assert event["at_file_count"] == 3
    loaded = load_state(str(state))
    assert loaded.total_files == 4
    assert loaded.keys_consumed == 2


def test_rotate_oversized_file_named(capsys, tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("small 4\nhuge 9\n")
    code = main(rotate_args(manifest))
    err = capsys.readouterr().err
    assert code == 2
    assert "huge" in err


def test_rotate_pool_exhaustion_exits_5(capsys, tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(["8"] * 10))
    code = main(
        ["rotate", "--mode", "ctr", *TOY, "--manifest", str(manifest), "--simulate-keys", "2"]
    )
    captured = capsys.readouterr()
    assert code == 5
    assert "exhausted after 6 of 10" in captured.err
    assert "files_processed   6" in captured.out


@pytest.mark.parametrize("source", ["simulated", "key-file"])
def test_rotate_empty_pool_exits_5_before_any_output(capsys, tmp_path, source):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("8\n")
    keys = tmp_path / "keys.hex"
    keys.write_text("")
    pool = ["--simulate-keys", "0"] if source == "simulated" else ["--keys", str(keys)]
    code, out, err = run(capsys, "rotate", "--mode", "ctr", *TOY, "--manifest", str(manifest), *pool)
    name = "simulated(seed=0)" if source == "simulated" else str(keys)
    assert (code, out, err) == (5, "", f"error: pool {name} is empty\n")


def test_rotate_hex_key_file(capsys, tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("8\n8\n8\n8\n")
    keys = tmp_path / "keys.hex"
    keys.write_text("".join(f"{i:032x}\n" for i in range(1, 4)))
    code = main(
        ["rotate", "--mode", "ctr", *TOY, "--manifest", str(manifest), "--keys", str(keys)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "keys_consumed     2" in out
    assert "keys_remaining    1" in out


def test_rotate_requires_exactly_one_key_source(capsys, tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("8\n")
    keys = tmp_path / "keys.txt"
    keys.write_text("00" * 16 + "\n")
    base = ["rotate", "--mode", "ctr", *TOY, "--manifest", str(manifest)]
    for extra in ([], ["--keys", str(keys), "--simulate-keys", "2"]):
        code, out, err = run(capsys, *base, *extra)
        assert (code, out) == (2, "")
        assert "--keys" in err and "--simulate-keys" in err


def test_rotate_bad_manifest_line(capsys, tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("a b c d\n")
    code = main(rotate_args(manifest))
    assert code == 2
    assert "manifest" in capsys.readouterr().err


def test_rotate_rejects_negative_manifest_size(capsys, tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("a 8\nb -5\n")
    state = tmp_path / "state.json"
    code = main(rotate_args(manifest, "--state-out", str(state)))
    captured = capsys.readouterr()
    assert code == 2
    assert f"{manifest}:2:" in captured.err
    assert captured.out == ""  # rejected before any file is encrypted
    assert not state.exists()


def test_rotate_state_keeps_exact_eps(capsys, tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("8\n" * 5)
    state = tmp_path / "state.json"
    code = main([
        "rotate", "--mode", "ctr", "--lambda", "16", "--s-min-bits", "14", "--block-bits", "16",
        "--file-size", "8B", "--eps", "3/1024", "--simulate-keys", "5",
        "--manifest", str(manifest), "--state-out", str(state),
    ])
    assert code == 0
    assert "state_written" in capsys.readouterr().out
    params = SecurityParams(16, 1 << 14, 4, Fraction(3, 1024))
    pool = simulate_pool(5, 128, seed=0)
    session = open_session(pool, Mode.CTR, params, 8, block_bits=16)
    for _ in range(5):
        encrypt_file(session, bytes(8))
    assert session.plan.q_star == 4
    assert load_state(str(state)) == session


# ------------------------------------------------------------- module loading

MODULE_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
if isinstance(argv, str):
    __import__(argv)
else:
    import qkdplan.cli as cli
    if argv:
        assert cli.main(argv) == 0, argv
print(json.dumps([
    sorted(m for m in sys.modules if m.split(".")[0] == "qkdplan"),
    *(name in sys.modules for name in ("numpy", "dataclasses", "inspect", "hashlib")),
]))
"""

PLANNING = ["qkdplan", "qkdplan.advmodel", "qkdplan.cli", "qkdplan.exactmath", "qkdplan.planner"]


def test_numpy_loads_only_for_monte_carlo(tmp_path):
    # One fresh interpreter per case, since this process imported everything
    # long ago.  Planning loads neither the Monte Carlo nor the rotation
    # module, rotate runs the scalar cipher without numpy, and only simulate
    # imports numpy.  No command loads dataclasses, and only numpy, in
    # simulate, loads inspect.  hashlib (OpenSSL) loads with a session's
    # first key, so only rotate loads it; importing rotation does not.
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("8\n8\n8\n8\n")
    rotate = ["rotate", "--mode", "ctr", *TOY, "--simulate-keys", "5",
              "--manifest", str(manifest)]
    simulate = ["simulate", "--mode", "ctr", "--block-bits", "12", "--q", "8", "--l", "4",
                "--trials", "1000", "--seed", "3"]
    cases = [
        ("qkdplan", ["qkdplan"], False, False),
        ("qkdplan.rotation", ["qkdplan", "qkdplan.advmodel", "qkdplan.empirics", "qkdplan.exactmath",
                              "qkdplan.planner", "qkdplan.rotation"], False, False),
        ([], PLANNING, False, False),
        (["plan", "--mode", "ctr"], PLANNING, False, False),
        (["improve", "--mode", "cbc", "--k", "4"], PLANNING, False, False),
        (["benefit", "--mode", "cbc", "--k", "8", "--key-cost", "3/2"], PLANNING, False, False),
        (["sweep", "--mode", "cbc", "--k-list", "2,8,32"], PLANNING, False, False),
        (["validate"], PLANNING, False, False),
        (simulate, sorted(PLANNING + ["qkdplan.empirics"]), True, False),
        (rotate, sorted(PLANNING + ["qkdplan.empirics", "qkdplan.rotation"]), False, True),
    ]  # fmt: skip
    src = Path(__file__).resolve().parents[1] / "src"
    for argv, modules, numpy, hashlib in cases:
        done = subprocess.run(
            [sys.executable, "-c", MODULE_PROBE, json.dumps(argv)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, (argv, done.stderr)
        assert json.loads(done.stdout.splitlines()[-1]) == [modules, numpy, False, numpy, hashlib], argv
