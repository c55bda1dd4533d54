"""Poisson loop soups, discrete and continuous time, and occupation fields.

A soup with intensity t * m (m the class measure: mu for oriented soups with
t = alpha, nu for unoriented soups with t = c) gives every class an
independent Poisson(t * m(L)) occurrence count.  Forgetting the orientation
of an alpha-soup yields a c = 2 alpha soup, and re-orienting the loops of a
c-soup with fair coins recovers the alpha = c/2 soup.

In continuous time every visit of every loop holds an independent
exponential time of mean 1/g, stationary self-jumps included, and each
vertex adds the occupation of the purely-stationary ("trivial") loops, a
Gamma(shape, scale 1/g) variable with shape alpha (oriented) or c/2
(unoriented).  `FieldSampler` draws these occupation fields in bulk, and
`FieldSampler.laplace` gives their exact joint Laplace transform.

Every soup is drawn the standard point-process way: one Poisson total of
i.i.d. class draws, each class picked with probability proportional to its
mass.  The class counts are then independent Poisson(t * m(L)) variables.
`soup_count_rows` draws many soups, ROW_CHUNK at a time: one `rng.poisson`
call for the chunk's totals and one `rng.random` call for all its class
draws.  A single soup is the one-row case, and `FieldSampler` draws all its
soups in one such call.
"""

from __future__ import annotations

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


# -- continuous time ---------------------------------------------------------


def trivial_shape(mode: str, intensity: float) -> float:
    """Gamma shape of the trivial occupation per site: alpha, or c/2."""
    return intensity if mode == "oriented" else intensity / 2.0


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

    def laplace(self, intensity: float, lam) -> np.ndarray:
        """E exp(-<lam, T>) of the rescaled site times T = g * times, exactly,
        for each row of lam ([K, S], lam >= 0, sites in `sites` order).

        Given the visits V, T_x is Gamma(V_x + shape, 1) at each site, and
        the visits are Poisson sums of the class rows, so the transform is
        exp(t sum_c m(c) (prod_x (1 + lam_x)^-visits - 1)) prod_x
        (1 + lam_x)^-shape over the catalog's classes, t the intensity.
        """
        logs = np.log1p(np.atleast_2d(np.asarray(lam, dtype=float)))
        loops = np.expm1(-logs @ self.class_visits.T) @ self.catalog.mass_arrays()[0]
        shape = trivial_shape(self.catalog.mode, intensity)
        return np.exp(intensity * loops - shape * logs.sum(axis=1))
