"""Poisson loop soups, discrete and continuous time, and occupation fields.

A soup with intensity t * m (m the class measure: mu for oriented soups with
t = alpha, nu for unoriented soups with t = c) gives every class an
independent Poisson(t * m(L)) occurrence count.  Forgetting the orientation
of an alpha-soup yields a c = 2 alpha soup, and re-orienting the loops of a
c-soup with fair coins recovers the alpha = c/2 soup.

The continuous-time soup decorates every visit of every loop with an
independent exponential holding time of mean 1/g and adds, per vertex, the
occupation of the purely-stationary ("trivial") loops, which is sampled as a
Gamma(shape, scale 1/g) variable with shape alpha (oriented) or c/2
(unoriented).  The Gamma law is not asserted; it is validated against the
discretization sampler below, which realizes the continuous-time chain as the
M -> infinity limit of discrete chains with M extra stationary edges per
vertex.

Every soup is drawn the standard point-process way: one Poisson total of
i.i.d. class draws, each class picked with probability proportional to its
mass.  The class counts are then independent Poisson(t * m(L)) variables.
`soup_count_rows` draws many soups, ROW_CHUNK at a time: one `rng.poisson`
call for the chunk's totals and one `rng.random` call for all its class
draws.  A single soup is the one-row case, and `FieldSampler` draws all its
soups in one such call.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .graph import Domain, GraphError
from .loops import LoopCatalog, loop_vertices, necklace


ROW_CHUNK = 1000        # soups per `_class_draws` call in `soup_count_rows`


class SoupError(GraphError):
    pass


@dataclass
class LoopSoup:
    """A sampled multiset of loop classes with occurrence counts; its
    catalog's mode says whether the soup is oriented."""

    catalog: LoopCatalog
    counts: dict[tuple[int, ...], int]

    @property
    def L_max(self) -> int:
        return self.catalog.L_max

    @property
    def n_loops(self) -> int:
        return sum(self.counts.values())

    def total_steps(self) -> int:
        return sum(self.catalog.by_key[k].n * c for k, c in self.counts.items())


def _class_draws(cum: np.ndarray, rate: float, n_samples: int, rng):
    """Loop counts and class indices of n_samples independent soups of
    intensity rate * mass.

    Each soup is one Poisson(rate * total mass) count of i.i.d. categorical
    class draws.  One rng.random call draws the uniforms of every soup, soup
    after soup, which are the doubles of one call per soup.  The total is
    cum[-1] and the search runs over cum[:-1], so even a uniform draw just
    below 1 selects a class of the catalog.
    """
    total = float(cum[-1]) if len(cum) else 0.0
    counts = rng.poisson(rate * total, size=n_samples)
    k = sum(counts.tolist())
    if not k:
        return counts, counts[:0]
    return counts, np.searchsorted(cum[:-1], rng.random(k) * total, side="right")


def _chunk_rows(catalog: LoopCatalog, rate: float, m: int, rng) -> list:
    """Count dicts of m soups from one `_class_draws` call, each holding the
    nonzero counts in class order."""
    classes = catalog.classes
    counts, idx = _class_draws(catalog.mass_arrays()[1], rate, m, rng)
    idx = idx.tolist()
    ends = [0, *accumulate(counts.tolist())]
    # most soups hold no loop or one, and a Counter costs more than either
    return [{} if a == b else {classes[idx[a]].key: 1} if b - a == 1 else
            {classes[i].key: k for i, k in sorted(Counter(idx[a:b]).items())}
            for a, b in zip(ends, ends[1:])]


def _refuse(catalog: LoopCatalog, mode: str, intensity: float) -> None:
    """SoupError for a catalog of the other mode or a nonpositive intensity."""
    if catalog.mode != mode:
        raise SoupError(f"catalog is not {mode}")
    if intensity <= 0:
        name = "alpha" if mode == "oriented" else "c"
        raise SoupError(f"{name} must be positive")


def soup_count_rows(catalog: LoopCatalog, mode: str, intensity: float,
                    n_samples: int, rng):
    """Iterator over the count dicts of n_samples independent soups.

    `intensity` is alpha for an oriented catalog and c for an unoriented
    one.  The soups are drawn ROW_CHUNK at a time as the iterator advances,
    so draws made between chunks follow the chunk's soups in the stream.
    A catalog of the other mode or a nonpositive intensity raises SoupError
    here, before anything is drawn.
    """
    _refuse(catalog, mode, intensity)
    return (row for start in range(0, n_samples, ROW_CHUNK)
            for row in _chunk_rows(catalog, intensity,
                                   min(ROW_CHUNK, n_samples - start), rng))


def _one_soup(catalog: LoopCatalog, mode: str, intensity: float, rng) -> LoopSoup:
    """The one-row case of `soup_count_rows`."""
    _refuse(catalog, mode, intensity)
    return LoopSoup(catalog, _chunk_rows(catalog, intensity, 1, rng)[0])


def sample_oriented_soup(catalog: LoopCatalog, alpha: float, rng) -> LoopSoup:
    """Independent Poisson(alpha * mu(L)) count per oriented class."""
    return _one_soup(catalog, "oriented", alpha, rng)


def sample_unoriented_soup(catalog: LoopCatalog, c: float, rng) -> LoopSoup:
    """Independent Poisson(c * nu(L~)) count per unoriented class."""
    return _one_soup(catalog, "unoriented", c, rng)


def forget_orientation(soup: LoopSoup) -> LoopSoup:
    """Project an oriented soup onto unoriented classes (intensity c = 2 alpha)."""
    if soup.catalog.mode != "oriented":
        raise SoupError("soup is not oriented")
    ucat = soup.catalog.counterpart()
    inv = ucat.unoriented_graph.involution
    counts: dict = {}
    for key, cnt in soup.counts.items():
        ukey = necklace(key, inv.reverse_path(key))[0]
        if ukey not in ucat.by_key:
            raise SoupError(f"unoriented image of {key} missing from catalog")
        counts[ukey] = counts.get(ukey, 0) + cnt
    return LoopSoup(ucat, counts)


def orient_randomly(soup: LoopSoup, rng) -> LoopSoup:
    """Give every unoriented loop a uniform orientation (intensity alpha = c/2).

    Classes equal to their own reversal have a single oriented preimage and
    the coin is skipped.
    """
    if soup.catalog.mode != "unoriented":
        raise SoupError("soup is not unoriented")
    ocat = soup.catalog.counterpart()
    counts: dict = {}
    for key, cnt in sorted(soup.counts.items()):
        ucls = soup.catalog.by_key[key]
        keys = ucls.oriented_keys
        for k in keys:
            if k not in ocat.by_key:
                raise SoupError(f"oriented preimage {k} missing from catalog")
        if len(keys) == 1:
            counts[keys[0]] = counts.get(keys[0], 0) + cnt
        else:
            heads = int(rng.binomial(cnt, 0.5))
            if heads:
                counts[keys[0]] = counts.get(keys[0], 0) + heads
            if cnt - heads:
                counts[keys[1]] = counts.get(keys[1], 0) + cnt - heads
    return LoopSoup(ocat, counts)


def merge_soups(a: LoopSoup, b: LoopSoup) -> LoopSoup:
    """Superpose two independent soups (intensities add)."""
    if a.catalog is not b.catalog:
        raise SoupError("soups must share a catalog")
    counts = dict(a.counts)
    for k, v in b.counts.items():
        counts[k] = counts.get(k, 0) + v
    return LoopSoup(a.catalog, counts)


def restrict_soup(soup: LoopSoup, subdomain: Domain,
                  subcatalog: LoopCatalog) -> LoopSoup:
    """Keep only the loops lying entirely inside `subdomain` (exact thinning)."""
    counts = {}
    for key, cnt in soup.counts.items():
        if all(subdomain.allows_edge(soup.catalog.domain.graph.edge_by_id[eid])
               for eid in key):
            if key not in subcatalog.by_key:
                raise SoupError(f"class {key} missing from subdomain catalog")
            counts[key] = cnt
    return LoopSoup(subcatalog, counts)


# -- occupation fields -------------------------------------------------------


@dataclass
class OccupationField:
    """Jump counts per edge (and site occupation times in continuous time).

    Oriented mode records a count per oriented edge id plus the per-class
    pair view (N_1(e), N_2(e)); unoriented mode records a count per
    unoriented edge class key.
    """

    mode: str
    edge_jumps: dict
    oriented_pairs: dict | None = None
    site_times: dict | None = None

    def vertex_flow(self, graph) -> dict[int, tuple[int, int]]:
        """(in-jumps, out-jumps) per vertex; only meaningful in oriented mode."""
        flow: dict[int, list[int]] = {}
        for eid, n in self.edge_jumps.items():
            e = graph.edge_by_id[eid]
            flow.setdefault(e.head, [0, 0])[0] += n
            flow.setdefault(e.tail, [0, 0])[1] += n
        return {v: (i, o) for v, (i, o) in flow.items()}


def occupation_field(soup) -> OccupationField:
    """Tally the soup's jumps (and site times for a continuous-time soup)."""
    if isinstance(soup, ContinuousTimeSoup):
        base = occupation_field(soup.jump_soup)
        base.site_times = soup.site_times()
        return base
    cat = soup.catalog
    jumps: Counter = Counter()
    if cat.mode == "unoriented":
        ug = cat.unoriented_graph
        for key, cnt in soup.counts.items():
            for eid in key:
                jumps[ug.edge_class(eid)] += cnt
        return OccupationField("unoriented", dict(jumps))
    for key, cnt in soup.counts.items():
        for eid in key:
            jumps[eid] += cnt
    if cat.mode == "oriented":
        pairs = None
        if cat.unoriented_graph is not None:
            ug = cat.unoriented_graph
            grouped: dict = {}
            for eid, n in jumps.items():
                grouped.setdefault(ug.edge_class(eid), Counter())[eid] = n
            pairs = {
                ckey: tuple(grouped[ckey].get(member, 0)
                            for member in (ckey if ckey[0] != ckey[1] else (ckey[0],)))
                for ckey in grouped
            }
        return OccupationField("oriented", dict(jumps), oriented_pairs=pairs)
    raise SoupError(f"unknown catalog mode {cat.mode!r}")


# -- continuous time ---------------------------------------------------------


@dataclass
class ContinuousTimeSoup:
    """Discrete jump soup decorated with holding times.

    holding_times[key] is a list with one array per occurrence of the class;
    the array holds one positive duration per visited site along the loop.
    trivial_field is the occupation of the zero-jump loops at each vertex.
    """

    jump_soup: LoopSoup
    holding_times: dict[tuple[int, ...], list[np.ndarray]]
    trivial_field: dict[int, float]

    def site_times(self) -> dict[int, float]:
        cat = self.jump_soup.catalog
        graph = cat.domain.graph
        out = dict(self.trivial_field)
        for key, arrays in self.holding_times.items():
            verts = [graph.edge_by_id[eid].tail for eid in key]
            for arr in arrays:
                for v, t in zip(verts, arr):
                    out[v] = out.get(v, 0.0) + float(t)
        return out


def trivial_shape(mode: str, intensity: float) -> float:
    """Gamma shape of the trivial occupation per site: alpha, or c/2."""
    return intensity if mode == "oriented" else intensity / 2.0


def _jump_soup(catalog: LoopCatalog, intensity: float, rng):
    sampler = (sample_oriented_soup if catalog.mode == "oriented"
               else sample_unoriented_soup)
    return sampler(catalog, intensity, rng)


def sample_ct_soup(catalog: LoopCatalog, intensity: float,
                   rng) -> ContinuousTimeSoup:
    """Continuous-time soup: jump soup + Exp(1/g) holding times + trivial field.

    `intensity` is alpha for an oriented catalog and c for an unoriented one.
    Every step of a loop counts as a visit of its departure site, stationary
    self-jumps included, so a run of stationary steps accumulates several
    holding times at one site; the discretization sampler below forces this
    convention and validates it.
    """
    g = catalog.domain.g
    jump = _jump_soup(catalog, intensity, rng)
    holding = {
        key: [rng.exponential(scale=1.0 / g, size=catalog.by_key[key].n)
              for _ in range(cnt)]
        for key, cnt in sorted(jump.counts.items())
    }
    shape = trivial_shape(catalog.mode, intensity)
    trivial = {v: float(t) for v, t in zip(
        catalog.domain.vertices,
        rng.gamma(shape=shape, scale=1.0 / g, size=catalog.domain.size),
    )}
    return ContinuousTimeSoup(jump, holding, trivial)


def sample_ct_soup_by_discretization(catalog: LoopCatalog, intensity: float,
                                     M: int, rng) -> ContinuousTimeSoup:
    """Reference sampler: discrete chain with M extra stationary edges per site.

    On the augmented graph each step has probability M/(g+M) of being an
    added stationary jump, and time runs in units of 1/M.  Projected onto the
    original edges the jump soup is exactly the base soup (so the jump law is
    M-independent); runs of added stationary jumps become the holding times
    (1 + r)/M, and the purely-stationary loops contribute a negative-binomial
    total of steps per site.
    """
    if M < 1:
        raise SoupError("M must be >= 1")
    g = catalog.domain.g
    w = M / (g + M)         # per-step probability of an added stationary jump
    jump = _jump_soup(catalog, intensity, rng)
    holding = {}
    for key, cnt in sorted(jump.counts.items()):
        n = catalog.by_key[key].n
        occs = []
        for _ in range(cnt):
            runs = rng.geometric(p=1.0 - w, size=n) - 1
            occs.append((1.0 + runs) / M)
        holding[key] = occs
    shape = trivial_shape(catalog.mode, intensity)
    trivial = {}
    for v in catalog.domain.vertices:
        steps = int(rng.negative_binomial(shape, 1.0 - w))
        trivial[v] = steps / M
    return ContinuousTimeSoup(jump, holding, trivial)


# -- dump formats -------------------------------------------------------------


def export_soup_jsonl(soup, path) -> None:
    """One line per class occurrence group: key, count, holding times if any."""
    ct = soup if isinstance(soup, ContinuousTimeSoup) else None
    base = ct.jump_soup if ct else soup
    with open(path, "w") as fh:
        for key, cnt in sorted(base.counts.items()):
            row = {"class": list(key), "count": cnt}
            if ct is not None:
                row["holding_times"] = [[float(t) for t in arr]
                                        for arr in ct.holding_times[key]]
            fh.write(json.dumps(row) + "\n")
        if ct is not None:
            fh.write(json.dumps({"trivial_field":
                                 {str(v): t for v, t in sorted(ct.trivial_field.items())}})
                     + "\n")


def occupation_to_json(field: OccupationField) -> dict:
    out = {"mode": field.mode,
           "edge_jumps": {str(k): v for k, v in sorted(field.edge_jumps.items())}}
    if field.oriented_pairs is not None:
        out["oriented_pairs"] = {str(k): list(v)
                                 for k, v in sorted(field.oriented_pairs.items())}
    if field.site_times is not None:
        out["site_times"] = {str(v): t for v, t in sorted(field.site_times.items())}
    return out


# -- vectorized sampling for verification runs -------------------------------


class FieldSampler:
    """Bulk sampler of (edge-group jump counts, site visit counts, site times).

    One `_class_draws` call draws the soups of all samples; a soup's jumps
    and visits are the sums of the per-class rows `class_jumps` and
    `class_visits`, and `class_sums` sums any other per-class integer rows
    the same way.  Total site occupation uses the Gamma(visits + shape, 1/g)
    identity, which is equal in law to summing per-visit exponentials.
    """

    def __init__(self, catalog: LoopCatalog, edge_groups: list[tuple[int, ...]],
                 sites: list[int]):
        self.catalog = catalog
        self.edge_groups = [tuple(dict.fromkeys(g)) for g in edge_groups]
        self.sites = list(sites)
        self.g = catalog.domain.g
        E, S = len(edge_groups), len(sites)
        self.class_jumps = np.zeros((len(catalog), E), dtype=np.int64)
        self.class_visits = np.zeros((len(catalog), S), dtype=np.int64)
        graph = catalog.domain.graph
        for i, cls in enumerate(catalog.classes):
            ej = Counter(cls.key)
            for j, group in enumerate(self.edge_groups):
                self.class_jumps[i, j] = sum(ej.get(eid, 0) for eid in group)
            vis = Counter(loop_vertices(graph, cls.key))
            for j, v in enumerate(self.sites):
                self.class_visits[i, j] = vis.get(v, 0)

    def class_sums(self, rows: np.ndarray, intensity: float, n_samples: int,
                   rng) -> np.ndarray:
        """Per-class integer `rows` summed over each of n_samples soups."""
        counts, idx = _class_draws(self.catalog.mass_arrays()[1], intensity,
                                   n_samples, rng)
        out = np.zeros((n_samples, rows.shape[1]), dtype=np.int64)
        np.add.at(out, np.repeat(np.arange(n_samples), counts), rows[idx])
        return out

    def sample(self, intensity: float, n_samples: int, rng):
        """Return (jumps [n,E], visits [n,S], times [n,S])."""
        E = len(self.edge_groups)
        sums = self.class_sums(np.hstack([self.class_jumps, self.class_visits]),
                               intensity, n_samples, rng)
        jumps, visits = sums[:, :E], sums[:, E:]
        times = rng.gamma(shape=visits + trivial_shape(self.catalog.mode,
                                                      intensity)) / self.g
        return jumps, visits, times
