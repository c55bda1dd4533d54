"""report.json bytes are pinned by fixtures, so a refactor cannot move them.

Each fixture under tests/data/ is a config plus the report.json that
`loopsoup run` wrote for it; rerunning must reproduce it byte for byte.
Each pinned output is stored as `<fixture>.<file name>`.
"""

import os

import pytest

from loopsoup.cli import run
from loopsoup.config import parse_config

DATA = os.path.join(os.path.dirname(__file__), "data")

# Output files pinned besides report.json.  The occupation histograms are
# the only pin on the FieldSampler stream of the sample-soup job.
PINNED_OUTPUTS = {
    "golden_ct": ("occupation_edge_hist.csv", "occupation_site_hist.csv"),
}


@pytest.mark.parametrize("name", ["golden_exact", "golden_mc",
                                  "golden_occupation", "golden_ct"])
def test_report_matches_golden_fixture(tmp_path, name):
    cfg = parse_config(os.path.join(DATA, f"{name}.cfg"))
    assert run(cfg, str(tmp_path)) == 0
    for out in ("report.json",) + PINNED_OUTPUTS.get(name, ()):
        with open(os.path.join(DATA, f"{name}.{out}"), "rb") as fh:
            expected = fh.read()
        assert (tmp_path / out).read_bytes() == expected, out
