"""The CLI's contract under hostile input: every subcommand, run in process on
argv drawn from hostile grammars, returns an exit code in 0-5 with no escaped
exception or traceback, exits 1 only from validate, and answers within a
fixed time.  Each flag of each subcommand is made hostile in turn."""

from __future__ import annotations

import contextlib
import io
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdplan.cli import main

# seconds one call may take; the slowest call here takes milliseconds
_CALL_LIMIT = 2.0

_INTS = st.one_of(
    st.integers(-3, 300),
    st.integers(-(10**40), 10**40),
    st.sampled_from([2**63, 2**64 - 1, 2**64, 10**30]),
).map(str) | st.sampled_from(["9" * 5000, "-0", "1.5", "0x10", "", "1e3"])

_RATIONALS = st.one_of(
    st.fractions(min_value=0, max_value=4).map(str),
    st.integers(0, 10**7).map(lambda n: f"1e-{n}"),
    st.integers(0, 10**7).map(lambda n: f"3E+{n}"),
    st.integers(0, 10**6).map(lambda n: f"{n}/0"),
    st.integers(4900, 6000).map(lambda n: "1/" + "7" * n),
    st.sampled_from(["", "-1/2", "1/2\n", " 1/2", "nan", "inf", "1/2/3", "0", "0.5e-3"]),
)

_SIZES = st.one_of(
    st.integers(-5, 4096).map(str),
    st.builds(
        "{}{}".format,
        st.integers(0, 10**4) | st.sampled_from(["1.5", "0.3", "99999999999999999999"]),
        st.sampled_from(["B", "KB", "MB", "GB", "kb", " MB", "TB", "b", ""]),
    ),
    st.sampled_from(["", "1e3", "8 B", "-1KB"]),
)

_K_LISTS = st.one_of(
    st.lists(_INTS, max_size=4).map(",".join),
    st.lists(st.integers(1, 64), min_size=1, max_size=3).map(lambda ks: ",".join(map(str, ks + ks))),
    st.sampled_from(["", ",", " ", "1,,2", "2, 2", "1;2"]),
)

# work sizes are never drawn large, so a valid call finishes in milliseconds
_BAD_SIZE = st.sampled_from(["-1", "0", "-0", "x", "", "2.5"])


def _one_of(*values: str) -> st.SearchStrategy[str]:
    return st.sampled_from(values)


_FORMAT = (_one_of("table", "csv", "json"), _one_of("xml", ""))

# rotate's files, named here and made once per module by the files fixture
_UNREADABLE = ("@missing", "@dir", "@bad_manifest")
_ROTATE = {
    "--manifest": (_one_of("@manifest"), _one_of(*_UNREADABLE, "@big_manifest")),
    "--keys": (_one_of("@keys"), _one_of(*_UNREADABLE)),
    "--simulate-keys": (st.integers(0, 12).map(str), _BAD_SIZE),
    "--key-seed": (st.integers(0, 99).map(str), _INTS),
    "--key-len-bits": (_one_of("128"), _INTS | _one_of("8", "4096")),
    "--rotation-factor": (_one_of("1", "2", "3"), _INTS),
    "--toy-block-bits": (st.integers(8, 24).map(str), _INTS),
    "--events-out": (_one_of("@events"), _one_of("@dir")),
    "--state-out": (_one_of("@state"), _one_of("@dir")),
}

_SIMULATE = {
    "--mode": (_one_of("ctr", "cbc"), _one_of("ecbc-mac", "gcm")),
    "--block-bits": (st.integers(8, 24).map(str), _INTS),
    "--q": (st.integers(1, 8).map(str), _BAD_SIZE),
    "--l": (st.integers(1, 8).map(str), _BAD_SIZE),
    "--trials": (_one_of("1000", "1001"), _BAD_SIZE | _one_of("999")),
    "--seed": (st.integers(0, 99).map(str), _INTS),
    "--format": _FORMAT,
}


def _model(toy: bool) -> dict:
    """The plan flags as flag: (valid values, hostile values).  The toy values
    give q_star 3 in CTR, so a rotate run rotates and can drain a small pool."""
    return {
        "--mode": (_one_of("ctr", "cbc", "ecbc-mac"), _one_of("gcm", "", "CTR")),
        "--lambda": (_one_of("16") if toy else _one_of("16", "64", "128"), _INTS),
        "--s-min-bits": (_one_of("14") if toy else _one_of("14", "60", "121"), _INTS),
        "--block-bits": (_one_of("16") if toy else _one_of("8", "16", "128"), _INTS),
        "--file-size": (_one_of("8") if toy else _one_of("8", "8B", "1.5KB", "2 MB"), _SIZES),
        "--target-bits": (_one_of("9") if toy else _one_of("9", "40", "80"), _INTS),
        "--eps": (_one_of("1/512", "3/1024", "1e-20"), _RATIONALS),
        "--ecbc-denominator": (_one_of("two-n", "paper-compat-n"), _one_of("n", "")),
    }


def _grammar(command: str, toy: bool = False) -> dict:
    """Every flag of a subcommand as flag: (valid values, hostile values)."""
    if command == "simulate":
        return dict(_SIMULATE)
    options = _model(toy)
    if command in ("plan", "improve", "benefit"):
        options["--format"] = _FORMAT
    if command in ("improve", "benefit"):
        options["--k"] = (_one_of("1", "2", "3", "64"), _INTS)
    if command in ("benefit", "sweep", "rotate"):
        options["--key-cost"] = (_one_of("1", "7/3", "1e-2000"), _RATIONALS)
    if command == "sweep":
        options["--k-list"] = (_one_of("1,2,4", "3"), _K_LISTS)
    if command == "rotate":
        options |= _ROTATE
    return options


# flags argparse requires; rotate's key source is one of the two key flags
_REQUIRED = {"simulate": ("--mode", "--block-bits", "--q", "--l", "--trials")}
_MODEL_REQUIRED = ("--mode", "--manifest", "--keys", "--simulate-keys")


@st.composite
def _argv(draw, command: str, hostile: str) -> list[str]:
    """argv for command with the flag hostile drawn from its hostile grammar
    and every other flag, when present, from its valid one.  Required flags
    are always present, other flags with probability 1/2."""
    options = _grammar(command, toy=draw(st.booleans()))
    if command == "rotate":  # one key source: the hostile flag if it is one
        sources = ("--keys", "--simulate-keys")
        keep = hostile if hostile in sources else draw(st.sampled_from(sources))
        options.pop(sources[keep == "--keys"])
    required = _REQUIRED.get(command, _MODEL_REQUIRED)
    argv = [command]
    for flag, (valid, bad) in options.items():
        if flag == hostile:
            argv += [flag, draw(bad)]
        elif flag in required or draw(st.booleans()):
            argv += [flag, draw(valid)]
    return argv


_CASES = [
    (command, flag)
    for command in ("plan", "improve", "benefit", "sweep", "simulate", "rotate")
    for flag in _grammar(command)
]


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    """The manifests, key file and output paths rotate reads and writes, by
    the names the grammar uses, made once per module."""
    base = tmp_path_factory.mktemp("cli-contract")
    written = {
        "manifest": "a 1\nb 8\n# comment\n0\n8\n5\n7\n",
        "bad_manifest": "a b c\n",
        "big_manifest": f"{10**9}\n",
        "keys": "".join(f"{i:032x}\n" for i in range(4)),
    }
    paths = {name: base / f"{name}.txt" for name in written}
    for name, text in written.items():
        paths[name].write_text(text)
    paths |= {
        "missing": base / "absent.txt",
        "dir": base,
        "events": base / "events.jsonl",
        "state": base / "state.json",
    }
    return {f"@{name}": str(path) for name, path in paths.items()}


def _check(argv: list[str]) -> None:
    start = time.perf_counter()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in range(6), argv
    assert "Traceback" not in err.getvalue(), argv
    assert code != 1 or argv[:1] == ["validate"], argv
    assert elapsed < _CALL_LIMIT, (argv, elapsed)


@pytest.mark.parametrize("command, hostile", _CASES)
def test_hostile_flag_exits_0_to_5_in_bounded_time(command, hostile, files):
    @settings(max_examples=5)
    @given(_argv(command, hostile))
    def check(argv):
        _check([files.get(arg, arg) for arg in argv])

    check()


@pytest.mark.parametrize("extra", [[], ["--help"], ["--bogus"], ["extra"]])
def test_validate_keeps_the_contract(extra):
    _check(["validate", *extra])
