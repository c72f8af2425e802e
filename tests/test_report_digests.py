"""The exact commands' reports, pinned byte for byte on every fixture.

tests/report_digests.json maps "<command> <fixture>[ --json]" to the sha256
of the command's stdout and its exit code. `spectrum` is left out: its
floats come from LAPACK and may differ between numpy builds.
"""

import hashlib
import json
from pathlib import Path

from conftest import FIXTURES

from schemeforge.cli import run_command

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
COMMANDS = ("analyze", "decompose", "hoffman", "predistance", "scheme")


def report_digests(capsys) -> dict:
    digests = {}
    for command in COMMANDS:
        for path in sorted(FIXTURES.glob("*.mat")):
            for flags in ([], ["--json"]):
                code = run_command([command, str(path), *flags])
                out = capsys.readouterr().out
                key = " ".join([command, path.name, *flags])
                digests[key] = {"sha256": hashlib.sha256(out.encode()).hexdigest(), "exit": code}
    return digests


def test_reports_match_golden_digests(capsys):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert len(expected) == len(COMMANDS) * 10 * 2
    assert report_digests(capsys) == expected
