"""Command line runner: `loopsoup run|enumerate|verify`.

`run` executes the jobs of a config file and writes report.json plus
plot-ready CSV histograms; the exit code is nonzero when any job that is not
a positive control fails.  `enumerate` and `verify` are shortcuts that build
a one-job config from flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import verify as V
from .config import (ConfigError, ExperimentConfig, Workspace, build_workspace,
                     config_from_dict, job_seed, parse_config, JOBS)
from .rng import stream
from .soups import FieldSampler


def markov_edge_partition(ws: Workspace, oriented: bool):
    """Variable groups and inside/boundary/outside split for the Markov test."""
    cfg = ws.config
    F1 = set(cfg.f1)
    F2 = set(cfg.f2) or (ws.domain.vertex_set - F1)
    ug = ws.unoriented
    groups, idx_in, idx_bd, idx_out = [], [], [], []
    for k in ug.classes_inside(ws.domain):
        a, b = ug.class_endpoints(k)
        members = ug.edge_classes[k]
        if oriented:
            new = [(m,) for m in members]
        else:
            new = [members]
        base = len(groups)
        groups.extend(new)
        target = (idx_in if {a, b} <= F1 else
                  idx_out if {a, b} <= F2 else idx_bd)
        target.extend(range(base, base + len(new)))
    return groups, idx_in, idx_bd, idx_out


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return os.path.basename(path)


def _job_sample_soup(ws: Workspace, seed: int, outdir: str):
    cfg = ws.config
    cat = ws.catalog("oriented")
    rng = stream(seed, "sample-soup")
    spectrum = {}
    for c in cat.classes:
        spectrum.setdefault(c.n, [0, 0.0])
        spectrum[c.n][0] += 1
        spectrum[c.n][1] += c.mass_float
    files = [_write_csv(os.path.join(outdir, "loop_length_spectrum.csv"),
                        ["length", "classes", "total_mass"],
                        [(n, k, m) for n, (k, m) in sorted(spectrum.items())])]
    sites = list(ws.domain.vertices)
    ug = ws.unoriented
    classes = ug.classes_inside(ws.domain)
    fs = FieldSampler(cat, classes, sites)
    jumps, visits, times = fs.sample(cfg.alpha, cfg.samples, rng)
    rows = []
    for j, k in enumerate(classes):
        vals, counts = _hist_int(jumps[:, j])
        rows += [(str(ug.class_endpoints(k)), v, c) for v, c in zip(vals, counts)]
    files.append(_write_csv(os.path.join(outdir, "occupation_edge_hist.csv"),
                            ["edge", "jumps", "count"], rows))
    rows = []
    import numpy as np
    for j, v in enumerate(sites):
        hist, edges = np.histogram(times[:, j], bins=40)
        rows += [(v, float(edges[i]), float(edges[i + 1]), int(hist[i]))
                 for i in range(len(hist))]
    files.append(_write_csv(os.path.join(outdir, "occupation_site_hist.csv"),
                            ["site", "lo", "hi", "count"], rows))
    # single-bridge length law between the first two domain vertices
    from .bridges import sample_bridge
    x, y = (cfg.f1[0], cfg.f2[0]) if cfg.f1 and cfg.f2 else sites[:2]
    lengths = {}
    brng = stream(seed, "sample-soup/bridges")
    for _ in range(min(cfg.samples, 20000)):
        b = sample_bridge(ws.domain, x, y, brng)
        lengths[b.n] = lengths.get(b.n, 0) + 1
    files.append(_write_csv(os.path.join(outdir, "bridge_length_hist.csv"),
                            ["length", "count"],
                            sorted(lengths.items())))
    return files


def _hist_int(col):
    import numpy as np
    vals, counts = np.unique(col, return_counts=True)
    return [int(v) for v in vals], [int(c) for c in counts]


def _job_enumerate(ws: Workspace, seed: int, outdir: str):
    cat = ws.catalog("oriented")
    ucat = ws.catalog("unoriented")
    f1 = os.path.join(outdir, "catalog_oriented.jsonl")
    f2 = os.path.join(outdir, "catalog_unoriented.jsonl")
    cat.export_jsonl(f1)
    ucat.export_jsonl(f2)
    return [os.path.basename(f1), os.path.basename(f2)]


def _q(x) -> Fraction:
    """A config intensity as the rational the exact oracles take."""
    return Fraction(x).limit_denominator(64)


def _job_crossings(ws: Workspace, cfg, seed: int, mode: str):
    sets = [set(cfg.f1), set(cfg.f2)] + ([set(cfg.f3)] if cfg.f3 else [])
    return [V.verify_prop1bis_3bis(
        ws.catalog(mode), sets, mode=cfg.mode,
        intensity=_q(cfg.alpha if mode == "oriented" else cfg.c),
        samples=cfg.samples, seed=seed,
        max_targets=6 if cfg.mode == "exact" else None)]


def _job_occupation_markov(ws: Workspace, cfg, seed: int):
    part_u = markov_edge_partition(ws, oriented=False)
    reports = [
        V.verify_occupation_markov(ws.domain, set(cfg.f1), part_u,
                                   intensity_kind="c", intensity=_q(cfg.c)),
        V.verify_occupation_markov(ws.domain, set(cfg.f1),
                                   markov_edge_partition(ws, oriented=True),
                                   intensity_kind="alpha",
                                   intensity=Fraction(1), cap=8)]
    if part_u[2]:
        reports.append(V.verify_occupation_markov(
            ws.domain, set(cfg.f1), part_u, intensity_kind="c",
            intensity=_q(cfg.c), tilt_edge_group=part_u[2][0]))
    return reports


def _job_wilson(ws: Workspace, cfg, seed: int):
    if cfg.root is None:
        raise ConfigError("wilson needs a root vertex")
    return [V.verify_wilson(ws.graph, cfg.root, ws.catalog("oriented"),
                            runs=cfg.samples, seed=seed)]


# Job name -> function(ws, config, seed) returning the job's reports.  Every
# entry looks its verifier up on the module `V` when it runs, so a verifier
# rebound on that module (as the benchmark's tracer does) is the one called.
_VERIFY_JOBS = {
    "prop1": lambda ws, cfg, seed: [V.verify_prop1(
        ws.catalog("oriented"), set(cfg.f1), set(cfg.f2), mode=cfg.mode,
        intensity=_q(cfg.alpha), samples=cfg.samples, seed=seed)],
    "prop2": lambda ws, cfg, seed: [V.verify_prop2(
        ws.catalog("unoriented"), set(cfg.f1), set(cfg.f2), mode=cfg.mode,
        intensity=_q(cfg.c), samples=cfg.samples, seed=seed)],
    "prop1bis": lambda ws, cfg, seed: _job_crossings(ws, cfg, seed, "oriented"),
    "prop3bis": lambda ws, cfg, seed: _job_crossings(ws, cfg, seed,
                                                     "unoriented"),
    "prop5": lambda ws, cfg, seed: [V.verify_prop5(
        ws.catalog("unoriented"), ws.removed_classes(), mode=cfg.mode,
        intensity=_q(cfg.c), samples=cfg.samples, seed=seed)],
    "occupation-markov": _job_occupation_markov,
    "lejan": lambda ws, cfg, seed: [V.verify_lejan(
        ws.catalog("oriented"), samples=cfg.samples, seed=seed,
        intensity=cfg.alpha)],
    "ct-excursions": lambda ws, cfg, seed: [V.verify_ct_excursions(
        ws.catalog("unoriented"), cfg.sites or list(ws.domain.vertices)[:2],
        samples=cfg.samples, seed=seed, intensity=cfg.c)],
    "random-currents": lambda ws, cfg, seed: [V.verify_random_currents(
        ws.catalog("unoriented"), samples=cfg.samples, seed=seed,
        intensity=cfg.c, oriented_catalog=ws.catalog("oriented"))],
    "wilson": _job_wilson,
}

# Jobs that write output files instead of reports: function(ws, seed, outdir).
_FILE_JOBS = {"sample-soup": _job_sample_soup, "enumerate": _job_enumerate}


def run_job(ws: Workspace, job: str, index: int, outdir: str):
    """Run one job; returns (reports, output files)."""
    seed = job_seed(ws.config.seed, job, index)
    if job in _FILE_JOBS:
        return [], _FILE_JOBS[job](ws, seed, outdir)
    if job not in _VERIFY_JOBS:
        raise ConfigError(f"unhandled job {job!r}")
    return _VERIFY_JOBS[job](ws, ws.config, seed), []


def run(cfg: ExperimentConfig, outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    ws = build_workspace(cfg)
    reports, files = [], []
    for i, job in enumerate(cfg.jobs):
        r, f = run_job(ws, job, i, outdir)
        reports.extend(r)
        files.extend(f)
    bundle = {
        "config": cfg.resolved(),
        "reports": [r.to_json() for r in reports],
        "outputs": sorted(files),
    }
    path = os.path.join(outdir, "report.json")
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = [r for r in reports
              if not r.passed and not r.details.get("positive_control")]
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="loopsoup")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the jobs of a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")

    p_enum = sub.add_parser("enumerate", help="export loop catalogs")
    p_enum.add_argument("--graph", required=True)
    p_enum.add_argument("--domain", required=True)
    p_enum.add_argument("--l-max", type=int, default=8)
    p_enum.add_argument("--g", type=int)
    p_enum.add_argument("--seed", type=int, default=0)
    p_enum.add_argument("--out", default="out")

    p_ver = sub.add_parser("verify", help="run one verification job")
    p_ver.add_argument("prop", choices=[j for j in JOBS
                                        if j not in ("sample-soup", "enumerate")])
    p_ver.add_argument("--graph", required=True)
    p_ver.add_argument("--domain", required=True)
    p_ver.add_argument("--f1", default="")
    p_ver.add_argument("--f2", default="")
    p_ver.add_argument("--f3", default="")
    p_ver.add_argument("--sites", default="")
    p_ver.add_argument("--removed-edges", default="")
    p_ver.add_argument("--root", type=int)
    p_ver.add_argument("--alpha", default="1")
    p_ver.add_argument("--c", default="1")
    p_ver.add_argument("--l-max", type=int, default=8)
    p_ver.add_argument("--g", type=int)
    p_ver.add_argument("--mode", default="exact", choices=["exact", "mc"])
    p_ver.add_argument("--samples", type=int, default=100000)
    p_ver.add_argument("--seed", type=int, required=True)
    p_ver.add_argument("--out", default="out")

    args = parser.parse_args(argv)
    budget = os.environ.get("LOOPSOUP_CLASS_BUDGET")
    if budget:
        from . import loops
        loops.DEFAULT_CLASS_BUDGET = int(budget)
    try:
        if args.command == "run":
            overrides = {}
            for kv in args.set:
                k, _, v = kv.partition("=")
                overrides[k.strip()] = v.strip()
            if args.seed is not None:
                overrides["seed"] = str(args.seed)
            cfg = parse_config(args.config, overrides)
            return run(cfg, args.out)
        raw = {
            "graph": args.graph, "domain": args.domain,
            "seed": str(args.seed), "l_max": str(args.l_max),
        }
        if args.g is not None:
            raw["g"] = str(args.g)
        if args.command == "enumerate":
            raw["jobs"] = "enumerate"
        else:
            raw["jobs"] = args.prop
            raw.update({"f1": args.f1, "f2": args.f2, "f3": args.f3,
                        "sites": args.sites,
                        "removed_edges": args.removed_edges,
                        "alpha": args.alpha, "c": args.c,
                        "mode": args.mode, "samples": str(args.samples)})
            if args.root is not None:
                raw["root"] = str(args.root)
        cfg = config_from_dict(raw, origin="<cli>")
        return run(cfg, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        from .graph import GraphError
        if isinstance(exc, GraphError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
