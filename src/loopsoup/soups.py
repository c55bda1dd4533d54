"""Poisson loop soups, discrete and continuous time, and occupation fields.

A soup with intensity t * m (m the class measure: mu for oriented soups with
t = alpha, nu for unoriented soups with t = c) gives every class an
independent Poisson(t * m(L)) occurrence count.  The two modes are tied by
a catalog identity, `LoopCatalog.counterpart`: nu(L~) is half the mu-mass
of its oriented preimages, so forgetting the orientation of an alpha-soup
gives the c = 2 alpha soup, and a fair coin per loop undoes it.

In continuous time every visit of every loop holds an independent
exponential time of mean 1/g, stationary self-jumps included, and each
vertex adds the occupation of the purely-stationary ("trivial") loops, a
Gamma(shape, scale 1/g) variable with shape alpha (oriented) or c/2
(unoriented).  `FieldSampler` draws these occupation fields in bulk, and
`FieldSampler.laplace` gives their exact joint Laplace transform.

Every soup is drawn the standard point-process way: one Poisson total of
i.i.d. class draws, each class picked with probability proportional to its
mass.  The class counts are then independent Poisson(t * m(L)) variables.
`soup_chunks` draws many soups, ROW_CHUNK at a time: one `rng.poisson`
call for the chunk's totals and one `rng.random` call for all its class
draws.  Its readers, the Monte Carlo resampling driver and Wilson's cycle
popping, take the chunks' arrays as they are; a single soup is the one-row
case, made a count dict.  `FieldSampler` draws all its soups in one such
call.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

import numpy as np

from .graph import GraphError
from .loops import LoopCatalog, loop_vertices


ROW_CHUNK = 1000        # soups per `_class_draws` call in `soup_chunks`


class SoupError(GraphError):
    pass


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


def _chunk_rows(classes, counts, idx) -> list:
    """Count dicts of a chunk's soups (`_class_draws` output), each holding
    the nonzero counts in class order."""
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


def soup_chunks(catalog: LoopCatalog, mode: str, intensity: float,
                n_samples: int, rng):
    """Iterator over the chunks of n_samples independent soups, ROW_CHUNK
    soups per `_class_draws` call, each chunk its (counts, idx) arrays: the
    soups' loop counts and the class indices of their loops, soup after soup.

    `intensity` is alpha for an oriented catalog and c for an unoriented
    one.  Each chunk is drawn as the iterator advances, so draws made between
    chunks follow the chunk's soups in the stream.  A catalog of the other
    mode or a nonpositive intensity raises SoupError here, before anything
    is drawn.
    """
    _refuse(catalog, mode, intensity)
    cum = catalog.mass_arrays()[1]
    return (_class_draws(cum, intensity, min(ROW_CHUNK, n_samples - start), rng)
            for start in range(0, n_samples, ROW_CHUNK))


def _one_soup(catalog: LoopCatalog, mode: str, intensity: float, rng) -> dict:
    """The one-soup case of `soup_chunks`, as a count dict."""
    _refuse(catalog, mode, intensity)
    counts, idx = _class_draws(catalog.mass_arrays()[1], intensity, 1, rng)
    return _chunk_rows(catalog.classes, counts, idx)[0]


def sample_oriented_soup(catalog: LoopCatalog, alpha: float, rng) -> dict:
    """Independent Poisson(alpha * mu(L)) count per oriented class, as
    {class key: count} over the classes that occur."""
    return _one_soup(catalog, "oriented", alpha, rng)


def sample_unoriented_soup(catalog: LoopCatalog, c: float, rng) -> dict:
    """Independent Poisson(c * nu(L~)) count per unoriented class, as
    {class key: count} over the classes that occur."""
    return _one_soup(catalog, "unoriented", c, rng)


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
