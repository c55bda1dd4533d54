"""report.json bytes are pinned by fixtures, so a refactor cannot move them.

Each fixture under tests/data/ is a config plus the report.json that
`loopsoup run` wrote for it; rerunning must reproduce it byte for byte.
Each pinned output is stored as `<fixture>.<file name>`.
"""

import json
import os

import pytest

from loopsoup.cli import run
from loopsoup.config import parse_config

DATA = os.path.join(os.path.dirname(__file__), "data")

# Output files pinned besides report.json.  The occupation histograms are
# the only pin on the FieldSampler stream of the sample-soup job, and the
# bridge length histogram the only pin on its Doob-bridge stream.  The two
# catalogs of golden_catalog pin enumeration and the unoriented merge.
PINNED_OUTPUTS = {
    "golden_ct": ("occupation_edge_hist.csv", "occupation_site_hist.csv",
                  "bridge_length_hist.csv"),
    "golden_catalog": ("catalog_oriented.jsonl", "catalog_unoriented.jsonl"),
}

# Exit codes other than 0.  golden_wilson pins the Wilson walk and popped
# soup streams; its 20,000 runs are too few for the 0.01 gate on the
# empirical TV between two samples (TV 0.0127), so its report fails.
EXIT_CODES = {"golden_wilson": 1}


@pytest.mark.parametrize("name", ["golden_exact", "golden_mc",
                                  "golden_mc_crossings", "golden_occupation",
                                  "golden_ct", "golden_catalog",
                                  "golden_wilson"])
def test_report_matches_golden_fixture(tmp_path, name):
    cfg = parse_config(os.path.join(DATA, f"{name}.cfg"))
    assert run(cfg, str(tmp_path)) == EXIT_CODES.get(name, 0)
    for out in ("report.json",) + PINNED_OUTPUTS.get(name, ()):
        with open(os.path.join(DATA, f"{name}.{out}"), "rb") as fh:
            expected = fh.read()
        assert (tmp_path / out).read_bytes() == expected, out


def test_exact_reports_share_one_convention(tmp_path):
    """An exact verdict is an exact equality: every report whose mode starts
    with "exact" carries tolerance 0.0, and statistic 0.0 when it passes."""
    for name in ("golden_exact", "golden_occupation"):
        out = tmp_path / name
        assert run(parse_config(os.path.join(DATA, f"{name}.cfg")), str(out)) == 0
        reports = json.loads((out / "report.json").read_text())["reports"]
        exact = [r for r in reports if r["mode"].startswith("exact")]
        assert exact, name
        for r in exact:
            assert r["tolerance"] == 0.0, (name, r["prop"])
            assert r["verdict"] != "pass" or r["statistic"] == 0.0, (name, r["prop"])
