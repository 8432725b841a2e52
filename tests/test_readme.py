"""The README's examples, run: its CLI transcripts must match main's stdout
byte for byte, and its quick-start comments must match the values."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from qkdplan.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```[a-z]*\n(.*?)^```", re.MULTILINE | re.DOTALL)


def transcript(command: str) -> str:
    """The lines the README shows after `$ qkdplan <command>`."""
    for block in FENCED.findall(README):
        first, _, rest = block.partition("\n")
        if first == f"$ qkdplan {command}":
            return rest
    raise AssertionError(f"README has no transcript of `qkdplan {command}`")


@pytest.mark.parametrize("command", ["plan --mode ctr", "sweep --mode cbc --k-list 2,8,32", "validate"])
def test_cli_transcript_matches(capsys, command):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == transcript(command)


def test_quick_start_comments_match():
    (block,) = [b for b in FENCED.findall(README) if "compute_q_star" in b and "import" in b]
    namespace: dict = {}
    exec(block, namespace)
    checked = set()
    for line in block.splitlines():
        expr, sep, comment = line.partition("  # ")
        if sep:
            expected = comment.split()[0]
            assert repr(eval(expr, namespace)) == expected, line
            checked.add(expected)
    assert checked == {"1210759", "'80.000000649'", "'1.999923746045'"}
