"""Regenerate tests/data/output_manifest.json: the exit code of `loopsoup
run` and the sha256 of every file it writes, for every config under
perfbench/configs and tests/data at seeds 0 and 1.

    PYTHONPATH=src python tests/make_output_manifest.py

test_output_manifest.py reruns the configs and compares.  Regenerate the
manifest only after a declared change of outputs (a random stream or a
report field that moves on purpose), and commit it on its own, apart from
the code that moved it.
"""

import hashlib
import json
import os
import tempfile

from loopsoup.cli import run
from loopsoup.config import parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIRS = ("perfbench/configs", "tests/data")
SEEDS = (0, 1)
MANIFEST = os.path.join(ROOT, "tests", "data", "output_manifest.json")


def runs() -> list[tuple[str, int]]:
    """(config path under the repository root, seed) of every pinned run."""
    return [(f"{d}/{name}", seed) for d in CONFIG_DIRS
            for name in sorted(os.listdir(os.path.join(ROOT, d)))
            if name.endswith(".cfg") for seed in SEEDS]


def run_id(path: str, seed: int) -> str:
    return f"{path}@seed={seed}"


def digest(path: str, seed: int, outdir: str) -> dict:
    """{"exit": code, "files": {name: sha256}} of one run into `outdir`,
    which starts empty."""
    code = run(parse_config(os.path.join(ROOT, path), {"seed": str(seed)}),
               outdir)
    files = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()
    return {"exit": code, "files": files}


def main() -> None:
    manifest = {}
    for path, seed in runs():
        with tempfile.TemporaryDirectory() as outdir:
            manifest[run_id(path, seed)] = digest(path, seed, outdir)
    with open(MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
