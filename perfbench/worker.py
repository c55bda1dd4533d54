"""One benchmark worker: a fresh single-threaded interpreter for one workload.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace]

Untraced, the worker times `import loopsoup`, then one run of the workload
(nothing has been built before it, so no cache is warm), then two builds of
the workload's set-up on their own.  A `SpeedProbe` ticks throughout, and
each time is reported both as wall time and rescaled to the probe's reference
speed (see speed.py).  Traced, it makes one untraced run and one
run with spans recorded, and checks that both wrote the same report bytes.
The last stdout line is a JSON result for run.py.  Run it through run.py,
which sets the environment and the import path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

SETUP_BUILDS = 2


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digests(reports: dict) -> dict:
    return {k: hashlib.sha256(v).hexdigest() for k, v in sorted(reports.items())}


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def untraced(wl, seed: int, out: str, probe, imported: tuple) -> dict:
    res = wl.run(seed, out)
    rss = _peak_rss_mb()
    builds = [wl.setup(seed) for _ in range(SETUP_BUILDS)]
    probe.stop()
    run_wall, run_s, run_ticks = probe.scaled(res.regions)
    setups = [probe.scaled([imported, build]) for build in builds]
    kernel_ms = statistics.median(t[1] for t in probe.ticks) * 1e3
    return {"run_s": run_s, "run_wall_s": run_wall, "run_ticks": run_ticks,
            "kernel_ms": kernel_ms,
            "peak_rss_mb": rss,
            "setup_s": [s[1] for s in setups],
            "setup_wall_s": [s[0] for s in setups],
            "checks": res.checks, "problems": res.problems,
            "digests": _digests(res.reports)}


def traced(wl, seed: int, out: str) -> dict:
    from tracing import Tracer
    plain = wl.run(seed, os.path.join(out, "untraced"))
    tracer = Tracer()
    tracer.install()
    try:
        spanned = wl.run(seed, os.path.join(out, "traced"))
    finally:
        tracer.restore()
    problems = plain.problems + spanned.problems
    left = tracer.leftover_wrappers()
    if left:
        problems.append(f"wrappers left after restore: {left}")
    if plain.reports != spanned.reports:
        problems.append("traced reports differ from the untraced reports")
    metrics = tracer.metrics(spanned.run_s)
    metrics["trace.overhead_s"] = spanned.run_s - plain.run_s
    for key in ("bins_tested", "bins_skipped", "targets_tested"):
        metrics[f"verify.{key}"] = sum(
            rep["details"].get(key, 0)
            for raw in spanned.reports.values()
            for rep in json.loads(raw).get("reports", ()))
    tracer.save(os.path.join(out, "spans.bin"))
    return {"metrics": metrics, "run_s": plain.run_s,
            "traced_run_s": spanned.run_s, "spans": len(tracer.span_start),
            "checks": spanned.checks, "problems": problems,
            "digests": _digests(spanned.reports)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    from speed import SpeedProbe
    probe = SpeedProbe()
    if not args.trace:
        probe.start()
    started = perf_counter()
    import loopsoup  # noqa: F401  (timed: part of set-up)
    imported = (started, perf_counter())
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    work = os.path.join(args.out, "work")
    try:
        if args.trace:
            result = traced(wl, args.seed, args.out)
        else:
            result = untraced(wl, args.seed, work, probe, imported)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for sub in ("untraced", "traced"):
            shutil.rmtree(os.path.join(args.out, sub), ignore_errors=True)
    result["versions"] = _versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
