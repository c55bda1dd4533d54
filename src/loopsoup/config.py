"""Experiment configuration: flat key = value files plus builtin graphs.

A config names a graph (builtin or file), a domain, marked sets, intensities,
truncation, a master seed, and a job list.  Every random draw of every job is
derived from the master seed through named substreams, so adding a job never
changes another job's samples and a report is reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

from . import graph as graph_mod
from .graph import (Domain, Involution, OrientedMultigraph, UnorientedGraph,
                    pair_reversals, parse_graph_file, regularize_degree)
from .loops import enumerate_loops

JOBS = ("prop1", "prop1bis", "prop2", "prop3bis", "prop5",
        "occupation-markov", "lejan", "ct-excursions", "random-currents",
        "wilson", "sample-soup", "enumerate")


class ConfigError(ValueError):
    pass


def _parse_ints(value: str) -> tuple[int, ...]:
    return tuple(int(x) for x in value.replace(",", " ").split())


def _parse_pairs(value: str) -> tuple[tuple[int, int], ...]:
    out = []
    for tok in value.replace(",", " ").split():
        a, b = map(int, tok.split("-"))
        if (a, b) in out or (b, a) in out:
            raise ValueError(f"edge {a}-{b} is given twice")
        out.append((a, b))
    return tuple(out)


def _parse_optional_int(value: str) -> int | None:
    return int(value) if value.strip() else None


def _parse_intensity(value: str) -> Fraction:
    return Fraction(value)


def _parse_jobs(value: str) -> tuple[str, ...]:
    jobs = tuple(value.replace(",", " ").split())
    if not jobs:
        raise ValueError("expected at least one job")
    for j in jobs:
        if j not in JOBS:
            raise ValueError(f"unknown job {j!r} (valid: {', '.join(JOBS)})")
    return jobs


def _parse_mode(value: str) -> str:
    value = value.strip()
    if value not in ("exact", "mc"):
        raise ValueError("expected exact or mc")
    return value


def _key(parse, default: str | None = None, name: str | None = None):
    """A config key: its parser, its default text (None: the key is
    required) and its name in a config file, where that is not the field's."""
    return field(metadata={"parse": parse, "default": default, "name": name})


@dataclass
class ExperimentConfig:
    """The one config schema: every field is a config key."""

    graph: str = _key(str.strip)
    domain: tuple[int, ...] = _key(_parse_ints)
    jobs: tuple[str, ...] = _key(_parse_jobs)
    seed: int = _key(int)
    g: int | None = _key(_parse_optional_int, "")
    f1: tuple[int, ...] = _key(_parse_ints, "")
    f2: tuple[int, ...] = _key(_parse_ints, "")
    f3: tuple[int, ...] = _key(_parse_ints, "")
    sites: tuple[int, ...] = _key(_parse_ints, "")
    removed: tuple[tuple[int, int], ...] = _key(_parse_pairs, "",
                                                "removed_edges")
    root: int | None = _key(_parse_optional_int, "")
    alpha: Fraction = _key(_parse_intensity, "1")
    c: Fraction = _key(_parse_intensity, "1")
    l_max: int = _key(int, "8")
    samples: int = _key(int, "100000")
    mode: str = _key(_parse_mode, "exact")

    def resolved(self) -> dict:
        """The keys as report.json records them, intensities as floats."""
        return {**asdict(self), "alpha": float(self.alpha), "c": float(self.c)}


# config file key -> its ExperimentConfig field
KEYS = {f.metadata["name"] or f.name: f for f in fields(ExperimentConfig)}


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
    """Parse every key of the schema from its text, refusing unknown keys."""
    for key in raw:
        if key not in KEYS:
            raise ConfigError(f"{origin}: unknown key {key!r} "
                              f"(valid: {', '.join(KEYS)})")
    values = {}
    for key, f in KEYS.items():
        text = raw.get(key, f.metadata["default"])
        if text is None:
            raise ConfigError(f"{origin}: missing required key {key!r}")
        try:
            values[f.name] = f.metadata["parse"](text)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"{origin}: {key} = {text!r}: {exc}") from None
    cfg = ExperimentConfig(**values)
    if cfg.alpha <= 0 or cfg.c <= 0:
        raise ConfigError(f"{origin}: intensities alpha and c must be positive")
    if cfg.samples < 1:
        raise ConfigError(f"{origin}: samples must be at least 1")
    if "lejan" in cfg.jobs and cfg.alpha != Fraction(1, 2):
        raise ConfigError(f"{origin}: lejan tests Le Jan's isomorphism, which "
                          f"holds at alpha = 1/2, not {cfg.alpha}")
    dom = set(cfg.domain)
    for name in ("f1", "f2", "f3", "sites"):
        vals = set(getattr(cfg, name))
        if not vals <= dom:
            raise ConfigError(f"{origin}: {name} must be a subset of the domain")
    if not {v for edge in cfg.removed for v in edge} <= dom:
        raise ConfigError(f"{origin}: removed edges must join domain vertices")
    jobs = set(cfg.jobs)
    f1, f2, f3 = set(cfg.f1), set(cfg.f2), set(cfg.f3)
    marked = jobs & {"prop1", "prop2", "prop1bis", "prop3bis"}
    if marked and (not f1 or not f2):
        raise ConfigError(f"{origin}: marked sets f1 and f2 must be nonempty")
    # occupation-markov reads f1 and f2 only (an empty f2 is the rest of
    # the domain)
    if ((marked or "occupation-markov" in jobs) and f1 & f2
            or marked and (f1 | f2) & f3):
        raise ConfigError(f"{origin}: marked sets f1, f2, f3 must be disjoint")
    if "wilson" in jobs and cfg.root is None:
        raise ConfigError(f"{origin}: wilson needs a root vertex")
    if "prop5" in jobs and not cfg.removed:
        raise ConfigError(f"{origin}: prop5 needs removed_edges")
    return cfg


def build_graph_from_spec(spec: str) -> tuple[OrientedMultigraph,
                                              Involution | None]:
    """The graph a spec names, with the involution a graph file gives."""
    kind, _, arg = spec.partition(":")
    try:
        if kind == "cycle":
            return graph_mod.cycle_graph(int(arg)), None
        if kind == "path":
            return graph_mod.path_graph(int(arg)), None
        if kind == "complete":
            return graph_mod.complete_graph(int(arg)), None
        if kind == "grid":
            a, b = arg.split("x")
            return graph_mod.grid_graph(int(a), int(b)), None
    except ValueError as exc:
        raise ConfigError(f"graph = {spec!r}: {exc}") from None
    if kind == "file":
        return parse_graph_file(arg)
    raise ConfigError(f"unknown graph spec {spec!r}")


@dataclass
class Workspace:
    """Everything a job needs, built once from a config."""

    config: ExperimentConfig
    unoriented: UnorientedGraph
    domain: Domain
    class_budget: int | None = None       # None: loops.DEFAULT_CLASS_BUDGET
    _catalogs: dict = field(default_factory=dict)     # mode -> built catalog

    def catalog(self, mode: str):
        """The oriented catalog or its counterpart, from one enumeration;
        both are kept, since an oriented catalog does not keep its merge."""
        if mode not in self._catalogs:
            self._catalogs[mode] = (
                enumerate_loops(self.domain, self.config.l_max,
                                unoriented=self.unoriented,
                                budget=self.class_budget)
                if mode == "oriented"
                else self.catalog("oriented").counterpart())
        return self._catalogs[mode]

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
    graph, involution = build_graph_from_spec(cfg.graph)
    if cfg.g is not None:
        graph = regularize_degree(graph, cfg.g)
    elif graph.g is None:
        graph = regularize_degree(graph, max(graph.out_degree.values()))
    if involution is None:
        involution = pair_reversals(graph)
    else:
        # a file's own reversals; the stationary padding edges stay fixed
        involution = Involution(graph, {e.id: involution.mapping.get(e.id, e.id)
                                        for e in graph.edges})
    unoriented = UnorientedGraph(graph, involution)
    # pure enumeration works on recurrent domains (no Green's function needed)
    allow_recurrent = set(cfg.jobs) <= {"enumerate"}
    domain = Domain(graph, cfg.domain, allow_recurrent=allow_recurrent)
    return Workspace(cfg, unoriented, domain, class_budget)


def job_seed(master: int, job: str, index: int) -> int:
    h = hashlib.sha256(f"{master}/{job}/{index}".encode()).digest()
    return int.from_bytes(h[:8], "big") >> 1
