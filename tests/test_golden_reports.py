"""report.json bytes are pinned by fixtures, so a refactor cannot move them.

Each fixture under tests/data/ is a config plus the report.json that
`loopsoup run` wrote for it; rerunning must reproduce it byte for byte.
"""

import os

import pytest

from loopsoup.cli import run
from loopsoup.config import parse_config

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("name", ["golden_exact", "golden_mc",
                                  "golden_occupation"])
def test_report_matches_golden_fixture(tmp_path, name):
    cfg = parse_config(os.path.join(DATA, f"{name}.cfg"))
    assert run(cfg, str(tmp_path)) == 0
    with open(os.path.join(DATA, f"{name}.report.json"), "rb") as fh:
        expected = fh.read()
    assert (tmp_path / "report.json").read_bytes() == expected
