"""loopsoup benchmark: end-to-end run times and per-module spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
Workloads: mc-resampling, wilson, bridge-laws, exact-oracles (see NOTES.md).

Untraced (`--trace 0`), worker processes run one after another, each a fresh
single-threaded interpreter, until S seconds have passed (at least one).
Each worker gives one sample of `run_s` and `peak_rss_mb` and two of
`setup_s`; the medians are reported.  `run_s` and `setup_s` are wall times
rescaled to a reference CPU speed by an interleaved probe (speed.py), so that
the host's drifting speed does not show; the plain wall times are printed on
the `worker:` lines and kept in result.json.  Traced (`--trace 1`), one
worker reports the per-layer metrics.  The last stdout line is the JSON
result; lines before it give the machine, the per-sample figures and the
verdict checks.  Exits 2 without a result when the checkout has no loopsoup
sources or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join("src", "loopsoup")
OUT = ".perfbench_out"
WORKLOADS = ("mc-resampling", "wilson", "bridge-laws", "exact-oracles")
TIME_LIMIT = 170.0          # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src"), HERE] + ([env["PYTHONPATH"]]
                                          if env.get("PYTHONPATH") else []))
    return env


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None           # only when this checkout is itself a git work tree
    try:
        top_head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                                  capture_output=True, text=True,
                                  timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        top_head = []
    if len(top_head) == 2 and os.path.samefile(top_head[0], "."):
        commit = top_head[1]
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def run_worker(args, out: str, trace: bool, limit: float):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", out] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=max(limit, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"worker exceeded {limit:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}"
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, f"worker printed no result:\n{proc.stderr[-4000:]}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        return fail(f"no {SRC} here; run from the root of a loopsoup checkout")
    started = time.monotonic()
    out = os.path.join(OUT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    samples = []
    while not samples or time.monotonic() - started < args.seconds:
        elapsed = time.monotonic() - started
        if samples and elapsed + samples[-1]["wall_s"] > TIME_LIMIT:
            break
        t0 = time.monotonic()
        res, err = run_worker(args, out, bool(args.trace), TIME_LIMIT - elapsed)
        if err:
            return fail(err)
        res["wall_s"] = time.monotonic() - t0
        samples.append(res)
        if args.trace:
            break
    first = samples[0]
    problems = [p for s in samples for p in s["problems"]]
    if any(s["digests"] != first["digests"] for s in samples):
        problems.append("report bytes differ between workers at the same seed")
    checks = first["checks"]
    failed = [c for c in checks if not c[3]]
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "machine": machine(),
            "versions": first["versions"],
            "env": {k: "1" for k in THREAD_VARS},
            "workers": [{k: s[k] for k in ("wall_s", "run_s", "run_wall_s",
                                           "run_ticks", "kernel_ms", "setup_s",
                                           "setup_wall_s", "peak_rss_mb",
                                           "traced_run_s", "spans") if k in s}
                        for s in samples]}
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in sorted(first["metrics"].items())}
    else:
        figures = {"run_s": [s["run_s"] for s in samples],
                   "setup_s": [x for s in samples for x in s["setup_s"]],
                   "peak_rss_mb": [s["peak_rss_mb"] for s in samples]}
        metrics = {k: {"value": statistics.median(v), "unit": UNITS[k]}
                   for k, v in figures.items()}
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump({"info": info, "checks": checks, "problems": problems,
                   "metrics": metrics}, fh, indent=2)
    print("machine: " + json.dumps({**info["machine"], **info["versions"],
                                    "env": info["env"]}))
    for w in info["workers"]:
        print("worker: " + json.dumps(w))
    for name, expected, got, ok in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: expected {expected}, "
              f"got {got}")
    for p in problems:
        print(f"problem: {p}")
    print(f"checks_failed={len(failed)} checks_run={len(checks)} "
          + " ".join(f"{k}={v['value']:.6g}{v['unit']}"
                     for k, v in metrics.items() if not args.trace))
    print(json.dumps({"correct": not problems,
                      "attempted": len(checks), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith((".s", ".self_s")) or metric == "trace.overhead_s":
        return "s"
    if metric.endswith(("_ratio", ".coverage")):
        return "ratio"
    if metric == "loops.export_bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
