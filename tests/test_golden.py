"""Byte-for-byte regression against committed CLI outputs.

The files under ``tests/golden/`` were written by the CLI before the flat
engine was unified; they pin ``count.csv``, ``block.csv`` and
``verify.json`` on the two shipped flat configs.  Never regenerate them to
make this test pass: a difference is a change in results.
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
]


@pytest.mark.parametrize("config,command,filename", CASES)
def test_cli_output_matches_golden(tmp_path, config, command, filename):
    code = main([command, "--config", str(ROOT / "configs" / f"{config}.json"), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / filename).read_bytes() == (GOLDEN / config / filename).read_bytes()
