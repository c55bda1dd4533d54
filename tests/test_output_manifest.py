"""Every config's output bytes are pinned at two seeds, so a refactor
cannot move them.

tests/data/output_manifest.json holds the exit code and the sha256 of
every file `loopsoup run` writes for each config under perfbench/configs
and tests/data at seeds 0 and 1; `make_output_manifest.py` regenerates it.
The seed-0 runs of tests/data are pinned byte for byte, with their files,
by test_golden_reports.py and are not rerun here.
"""

import json

import pytest

from make_output_manifest import MANIFEST, digest, run_id, runs

with open(MANIFEST) as _fh:
    PINNED = json.load(_fh)

RERUN = [(path, seed) for path, seed in runs()
         if not (path.startswith("tests/data/") and seed == 0)]


def test_manifest_pins_every_run():
    assert sorted(PINNED) == sorted(run_id(*r) for r in runs())


@pytest.mark.parametrize("path,seed", RERUN,
                         ids=[run_id(*r) for r in RERUN])
def test_outputs_match_manifest(tmp_path, path, seed):
    assert digest(path, seed, str(tmp_path)) == PINNED[run_id(path, seed)]
