"""Experiment configuration: flat key = value files plus builtin graphs.

A config names a graph (builtin or file), a domain, marked sets, intensities,
truncation, a master seed, and a job list.  Every random draw of every job is
derived from the master seed through named substreams, so adding a job never
changes another job's samples and a report is reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from . import graph as graph_mod
from .graph import (Domain, Involution, OrientedMultigraph, pair_reversals,
                    parse_graph_file, regularize_degree, unoriented_view)
from .loops import enumerate_loops

JOBS = ("prop1", "prop1bis", "prop2", "prop3bis", "prop5",
        "occupation-markov", "lejan", "ct-excursions", "random-currents",
        "wilson", "sample-soup", "enumerate")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    graph_spec: str
    domain_vertices: tuple[int, ...]
    jobs: tuple[str, ...]
    seed: int
    g: int | None = None
    f1: tuple[int, ...] = ()
    f2: tuple[int, ...] = ()
    f3: tuple[int, ...] = ()
    sites: tuple[int, ...] = ()
    removed: tuple[tuple[int, int], ...] = ()     # vertex pairs
    root: int | None = None
    alpha: float = 1.0
    c: float = 1.0
    l_max: int = 8
    samples: int = 100000
    mode: str = "exact"

    def resolved(self) -> dict:
        return {
            "graph": self.graph_spec, "domain": list(self.domain_vertices),
            "jobs": list(self.jobs), "seed": self.seed, "g": self.g,
            "f1": list(self.f1), "f2": list(self.f2), "f3": list(self.f3),
            "sites": list(self.sites),
            "removed": [list(p) for p in self.removed],
            "root": self.root, "alpha": self.alpha, "c": self.c,
            "l_max": self.l_max, "samples": self.samples, "mode": self.mode,
        }


def _parse_ints(value: str) -> tuple[int, ...]:
    value = value.strip()
    if not value:
        return ()
    return tuple(int(x) for x in value.replace(",", " ").split())


def _parse_pairs(value: str) -> tuple[tuple[int, int], ...]:
    out = []
    for tok in value.replace(",", " ").split():
        a, b = tok.split("-")
        out.append((int(a), int(b)))
    return tuple(out)


def parse_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse `key = value` lines; later keys win; overrides win over the file."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc.strerror})") from exc
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        raw[key.strip()] = value.strip()
    raw.update(overrides or {})
    return config_from_dict(raw, origin=str(path))


def config_from_dict(raw: dict, origin: str = "<dict>") -> ExperimentConfig:
    try:
        graph_spec = raw["graph"]
        jobs = tuple(j.strip() for j in raw["jobs"].replace(",", " ").split())
        seed = int(raw["seed"])
        domain = _parse_ints(raw["domain"])
    except KeyError as exc:
        raise ConfigError(f"{origin}: missing required key {exc}") from exc
    for j in jobs:
        if j not in JOBS:
            raise ConfigError(f"{origin}: unknown job {j!r} (valid: {', '.join(JOBS)})")
    cfg = ExperimentConfig(
        graph_spec=graph_spec, domain_vertices=domain, jobs=jobs, seed=seed,
        g=int(raw["g"]) if "g" in raw else None,
        f1=_parse_ints(raw.get("f1", "")),
        f2=_parse_ints(raw.get("f2", "")),
        f3=_parse_ints(raw.get("f3", "")),
        sites=_parse_ints(raw.get("sites", "")),
        removed=_parse_pairs(raw.get("removed_edges", "")),
        root=int(raw["root"]) if "root" in raw else None,
        alpha=float(Fraction(raw.get("alpha", "1"))),
        c=float(Fraction(raw.get("c", "1"))),
        l_max=int(raw.get("l_max", "8")),
        samples=int(raw.get("samples", "100000")),
        mode=raw.get("mode", "exact"),
    )
    if cfg.alpha <= 0 or cfg.c <= 0:
        raise ConfigError(f"{origin}: intensities alpha and c must be positive")
    dom = set(cfg.domain_vertices)
    for name in ("f1", "f2", "f3", "sites"):
        vals = set(getattr(cfg, name))
        if not vals <= dom:
            raise ConfigError(f"{origin}: {name} must be a subset of the domain")
    if not {v for edge in cfg.removed for v in edge} <= dom:
        raise ConfigError(f"{origin}: removed edges must join domain vertices")
    if set(jobs) & {"prop1", "prop2", "prop1bis", "prop3bis"}:
        f1, f2, f3 = set(cfg.f1), set(cfg.f2), set(cfg.f3)
        if not f1 or not f2:
            raise ConfigError(f"{origin}: marked sets f1 and f2 must be nonempty")
        if f1 & f2 or f1 & f3 or f2 & f3:
            raise ConfigError(f"{origin}: marked sets f1, f2, f3 must be disjoint")
    if "wilson" in jobs and cfg.root is None:
        raise ConfigError(f"{origin}: wilson needs a root vertex")
    if "prop5" in jobs and not cfg.removed:
        raise ConfigError(f"{origin}: prop5 needs removed_edges")
    return cfg


def build_graph_from_spec(spec: str) -> OrientedMultigraph:
    kind, _, arg = spec.partition(":")
    if kind == "cycle":
        return graph_mod.cycle_graph(int(arg))
    if kind == "path":
        return graph_mod.path_graph(int(arg))
    if kind == "complete":
        return graph_mod.complete_graph(int(arg))
    if kind == "grid":
        a, b = arg.split("x")
        return graph_mod.grid_graph(int(a), int(b))
    if kind == "file":
        graph, _ = parse_graph_file(arg)
        return graph
    raise ConfigError(f"unknown graph spec {spec!r}")


@dataclass
class Workspace:
    """Everything a job needs, built once from a config."""

    config: ExperimentConfig
    graph: OrientedMultigraph
    involution: Involution
    unoriented: "object"
    domain: Domain
    class_budget: int | None = None       # None: loops.DEFAULT_CLASS_BUDGET
    _catalog: "object" = None             # the oriented catalog, once built

    def catalog(self, mode: str):
        """The oriented catalog or its counterpart, from one enumeration."""
        if self._catalog is None:
            self._catalog = enumerate_loops(
                self.domain, self.config.l_max, "oriented",
                unoriented=self.unoriented, budget=self.class_budget)
        return self._catalog if mode == "oriented" else self._catalog.counterpart()

    def removed_classes(self):
        out = []
        for a, b in self.config.removed:
            found = [k for k in self.unoriented.edge_classes
                     if self.unoriented.class_endpoints(k) == (min(a, b), max(a, b))]
            if not found:
                raise ConfigError(f"no unoriented edge between {a} and {b}")
            out.extend(found)
        return out


def build_workspace(cfg: ExperimentConfig,
                    class_budget: int | None = None) -> Workspace:
    graph = build_graph_from_spec(cfg.graph_spec)
    if cfg.g is not None:
        graph = regularize_degree(graph, cfg.g)
    elif graph.g is None:
        graph = regularize_degree(graph, max(graph.out_degree.values()))
    involution = pair_reversals(graph)
    unoriented = unoriented_view(graph, involution)
    # pure enumeration works on recurrent domains (no Green's function needed)
    allow_recurrent = set(cfg.jobs) <= {"enumerate"}
    domain = Domain(graph, cfg.domain_vertices, allow_recurrent=allow_recurrent)
    return Workspace(cfg, graph, involution, unoriented, domain, class_budget)


def job_seed(master: int, job: str, index: int) -> int:
    h = hashlib.sha256(f"{master}/{job}/{index}".encode()).digest()
    return int.from_bytes(h[:8], "big") >> 1
