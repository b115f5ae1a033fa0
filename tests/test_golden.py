"""Byte-for-byte regression against committed CLI outputs.

The files under ``tests/golden/`` were written by the CLI and pin its
outputs on the shipped configs: ``count.csv``, ``block.csv`` and
``verify.json`` on the two flat configs (written before the flat engine was
unified), ``report.json`` on all three configs plus ``recursion.json`` on
the unit torus (written before the harness loops were flattened), and
``count.csv`` on the octagon (written before the orbit search stopped
keeping words and matrices).  Never
regenerate them to make this test pass: a difference is a change in results.
"""

from pathlib import Path

import pytest

from geoblock.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    (config, command, filename)
    for config in ("unit_torus", "billiard")
    for command, filename in (("count", "count.csv"), ("block", "block.csv"), ("verify", "verify.json"))
] + [
    ("unit_torus", "report", "report.json"),
    ("billiard", "report", "report.json"),
    ("octagon", "report", "report.json"),
    ("octagon", "count", "count.csv"),
    ("unit_torus", "recursion-check", "recursion.json"),
]


@pytest.mark.parametrize("config,command,filename", CASES)
def test_cli_output_matches_golden(tmp_path, config, command, filename):
    code = main([command, "--config", str(ROOT / "configs" / f"{config}.json"), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / filename).read_bytes() == (GOLDEN / config / filename).read_bytes()
