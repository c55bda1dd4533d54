"""The four benchmark workloads and the expected-verdict checks.

Each workload has two entry points, both run inside a worker process after
`import loopsoup`:

* `run(seed, outdir)` makes the workload's calls once and returns a `RunResult`:
  the wall time of those calls and the `perf_counter` regions it covers, the
  verdict checks, and the bytes of every report it wrote (for the determinism
  and tracing-is-harmless checks).
* `setup(seed)` builds the same workspaces and catalogs (or, for
  bridge-laws, the domains, Green's functions and exact laws) on their own and
  returns the `(start, end)` region of that build.

The CLI workloads drive `loopsoup.cli.run` on the config files in
`configs/`, exactly as `loopsoup run <config> --seed <seed>` does.  The
workload seed replaces the files' `seed = 0` default and nothing else.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

# Catalogs each job asks its workspace for (see loopsoup.cli.run_job).
JOB_CATALOGS = {
    "prop1": ("oriented",), "prop1bis": ("oriented",),
    "prop2": ("unoriented",), "prop3bis": ("unoriented",),
    "prop5": ("unoriented",), "wilson": ("oriented",),
    "sample-soup": ("oriented",), "enumerate": ("oriented", "unoriented"),
    "occupation-markov": (),
}
# Reports a job writes when it is not 1 (see loopsoup.cli.run_job); the
# grid config has boundary edges, so occupation-markov adds the tilted check.
REPORTS_PER_JOB = {"enumerate": 0, "sample-soup": 0, "occupation-markov": 3}


@dataclass
class RunResult:
    run_s: float
    regions: list = field(default_factory=list)    # timed (start, end) pairs
    checks: list = field(default_factory=list)     # (name, expected, got, ok)
    problems: list = field(default_factory=list)   # structural errors
    reports: dict = field(default_factory=dict)    # file name -> bytes


# -- CLI workloads -------------------------------------------------------------


@dataclass(frozen=True)
class CliWorkload:
    name: str
    configs: tuple          # (config file, is the wrong-intensity control)

    def _parse(self, config: str, seed: int):
        from loopsoup.config import parse_config
        return parse_config(os.path.join(CONFIG_DIR, config),
                            {"seed": str(seed)})

    def run(self, seed: int, outdir: str) -> RunResult:
        from loopsoup import cli
        result = RunResult(0.0)
        rcs = []
        for config, _ in self.configs:
            sub = os.path.join(outdir, config.removesuffix(".cfg"))
            t0 = perf_counter()
            rcs.append(cli.run(self._parse(config, seed), sub))
            t1 = perf_counter()
            result.run_s += t1 - t0
            result.regions.append((t0, t1))
        for (config, control), rc in zip(self.configs, rcs):
            sub = os.path.join(outdir, config.removesuffix(".cfg"))
            with open(os.path.join(sub, "report.json"), "rb") as fh:
                raw = fh.read()
            result.reports[config] = raw
            bundle = json.loads(raw)
            # `loopsoup run` exits 1 when a report that is not a positive
            # control fails; the exit code must agree with the reports
            rc_expected = int(any(rep["verdict"] == "fail"
                                  and not rep["details"].get("positive_control")
                                  for rep in bundle["reports"]))
            if rc != rc_expected:
                result.problems.append(f"{config}: exit code {rc}, reports "
                                       f"say {rc_expected}")
            for out in bundle["outputs"]:
                if not os.path.getsize(os.path.join(sub, out)):
                    result.problems.append(f"{config}: empty output {out}")
            expected_reports = sum(REPORTS_PER_JOB.get(job, 1)
                                   for job in bundle["config"]["jobs"])
            if len(bundle["reports"]) != expected_reports:
                result.problems.append(f"{config}: {len(bundle['reports'])} "
                                       f"reports, expected {expected_reports}")
            for k, rep in enumerate(bundle["reports"]):
                result.checks.append(_verdict_check(config, k, rep, control))
        return result

    def setup(self, seed: int) -> tuple:
        from loopsoup.config import build_workspace
        t0 = perf_counter()
        for config, _ in self.configs:
            cfg = self._parse(config, seed)
            ws = build_workspace(cfg)
            for mode in sorted({m for job in cfg.jobs for m in JOB_CATALOGS[job]}):
                ws.catalog(mode)
        return t0, perf_counter()


def _verdict_check(config: str, k: int, rep: dict, control: bool):
    """A non-control job passes, the control fails, an exact statistic is
    within its tolerance."""
    name = f"{config}#{k}:{rep['prop']}"
    if control:
        return (name, "fail", rep["verdict"], rep["verdict"] == "fail")
    ok = rep["verdict"] == "pass"
    if rep["mode"] == "exact":
        ok = ok and rep["statistic"] <= rep["tolerance"]
    return (name, "pass", rep["verdict"], ok)


# -- bridge-laws: the public bridges API on criterion 9's fixtures -------------------

BRIDGE_DRAWS = 20000
CHI2_SIGNIFICANCE = 1e-3


def _bridge_fixtures():
    """Domains, Green's functions and exact laws of criterion 9."""
    from fractions import Fraction
    from loopsoup import (Domain, build_graph, complete_graph, cycle_graph,
                          green_function, regularize_degree)
    from loopsoup.bridges import (bridge_probability_exact, enumerate_bridges,
                                  pairing_weights, permutation_weights)
    length_laws = []
    g1 = build_graph(2, [(0, 0, 0), (1, 0, 1), (2, 1, 1), (3, 1, 1)])
    for dom, (x, y), cap in ((Domain(g1, [0]), (0, 0), 14),
                             (Domain(complete_graph(5), [1, 2, 3]), (1, 3), 9),
                             (Domain(cycle_graph(6), [1, 2, 3, 4]), (1, 4), 11)):
        green = green_function(dom, exact=True)
        probs: dict = {}
        for b in enumerate_bridges(dom, x, y, cap):
            probs[b.n] = probs.get(b.n, Fraction(0)) + bridge_probability_exact(
                dom, b, green)
        length_laws.append((dom, x, y, {n: float(p) for n, p in probs.items()}))
    dk = Domain(complete_graph(12), [1, 2, 3])
    X, Y = (1, 2), (1, 3)
    perm_w = permutation_weights(green_function(dk), X, Y)
    edges = []
    for i, (a, b) in enumerate([(1, 2), (2, 3), (3, 4), (4, 1), (1, 0)]):
        edges += [(2 * i, a, b), (2 * i + 1, b, a)]
    d4 = Domain(regularize_degree(build_graph(5, edges), 3), [1, 2, 3, 4])
    Z = (1, 2, 3, 4)
    pair_w = pairing_weights(green_function(d4), Z)
    return length_laws, (dk, X, Y, perm_w), (d4, Z, pair_w)


def _frequency_checks(name, counts, weights, n):
    """Each frequency within three standard errors of its exact weight."""
    total = sum(weights.values())
    out = []
    for key, weight in sorted(weights.items()):
        p = weight / total
        ok = abs(counts[key] - n * p) <= 3 * math.sqrt(n * p * (1 - p))
        out.append((f"{name}{list(key)}", "within 3 s.e.",
                    f"{counts[key]} of {n} (p={p:.6f})", ok))
    return out


class BridgeLaws:
    name = "bridge-laws"

    def run(self, seed: int, outdir: str) -> RunResult:
        from loopsoup import bridges
        from loopsoup.rng import stream
        from loopsoup.stats import chi2_gof
        t0 = perf_counter()
        length_laws, (dk, X, Y, perm_w), (d4, Z, pair_w) = _bridge_fixtures()
        rng = stream(seed, "bridge-laws")
        n = BRIDGE_DRAWS
        checks, report = [], {"seed": seed, "draws": n, "lengths": []}
        for k, (dom, x, y, probs) in enumerate(length_laws):
            lengths = Counter(bridges.sample_bridge(dom, x, y, rng).n
                              for _ in range(n))
            stat, dof, p = chi2_gof(lengths, probs, n)
            checks.append((f"sample_bridge[{k}] length chi2",
                           f"p > {CHI2_SIGNIFICANCE}", f"p={p:.6g}",
                           p > CHI2_SIGNIFICANCE))
            report["lengths"].append({"counts": sorted(lengths.items()),
                                      "stat": stat, "dof": dof, "p": p})
        perms = Counter(bridges.sample_unordered_bridge(dk, X, Y, rng).permutation
                        for _ in range(n))
        pairs = Counter(bridges.sample_z_bridge(d4, Z, rng).pairing
                        for _ in range(n))
        t1 = perf_counter()
        result = RunResult(t1 - t0, [(t0, t1)])
        checks += _frequency_checks("sample_unordered_bridge permutation",
                                    perms, perm_w, n)
        checks += _frequency_checks("sample_z_bridge pairing", pairs, pair_w, n)
        result.checks = checks
        report["permutations"] = sorted(perms.items())
        report["pairings"] = sorted(pairs.items())
        raw = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "report.json"), "wb") as fh:
            fh.write(raw)
        result.reports["report.json"] = raw
        return result

    def setup(self, seed: int) -> tuple:
        t0 = perf_counter()
        _bridge_fixtures()
        return t0, perf_counter()


WORKLOADS = {
    w.name: w for w in (
        CliWorkload("mc-resampling", (("mc_k5.cfg", False),
                                      ("mc_k5_alpha2.cfg", True),
                                      ("mc_k8.cfg", False))),
        CliWorkload("wilson", (("wilson_c4.cfg", False),)),
        BridgeLaws(),
        CliWorkload("exact-oracles", (("exact_k12.cfg", False),
                                      ("exact_grid.cfg", False))),
    )
}
