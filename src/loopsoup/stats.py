"""Statistical test helpers shared by the verification suite."""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .exact import OracleError

MIN_EXPECTED = 5.0     # chi-square categories expected below this are pooled
MAX_BINS = 50          # most quantile bins
POISSON_ROUNDS = 5000  # rejection rounds before a conditioned-Poisson draw gives up


def chi2_gof(observed: dict, expected_probs: dict, n: int):
    """Chi-square goodness of fit with small-expected-count pooling.

    observed: category -> count; expected_probs: category -> probability
    (may sum below one; the deficit becomes an implicit "other" bucket).
    Returns (statistic, dof, p_value).  Categories are summed in the order
    of (expected probability, observed count), so the result depends on the
    partition and not on how a category is written.
    """
    cats = sorted(set(observed) | set(expected_probs),
                  key=lambda c: (float(expected_probs.get(c, 0.0)),
                                 observed.get(c, 0)))
    obs, exp = [], []
    pool_o = pool_e = 0.0
    covered = 0.0
    for c in cats:
        e = n * float(expected_probs.get(c, 0.0))
        o = observed.get(c, 0)
        covered += float(expected_probs.get(c, 0.0))
        if e < MIN_EXPECTED:
            pool_o += o
            pool_e += e
        else:
            obs.append(o)
            exp.append(e)
    tail = n * max(0.0, 1.0 - covered)
    pool_o += n - sum(obs) - pool_o
    pool_e += tail
    if pool_e > 0:
        obs.append(int(pool_o))
        exp.append(pool_e)
    if len(obs) < 2:
        return 0.0, 0, 1.0
    exp = np.asarray(exp, dtype=float)
    obs = np.asarray(obs, dtype=float)
    exp *= obs.sum() / exp.sum()
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = len(obs) - 1
    return stat, dof, chi2_sf(stat, dof)


def chi2_two_sample(counts_a: dict, counts_b: dict):
    """Two-sample chi-square homogeneity test on pooled categories."""
    cats = sorted(set(counts_a) | set(counts_b), key=repr)
    a = np.array([counts_a.get(c, 0) for c in cats], dtype=float)
    b = np.array([counts_b.get(c, 0) for c in cats], dtype=float)
    tot = a + b
    keep = []
    pa = pb = 0.0
    na, nb = a.sum(), b.sum()
    if na == 0 or nb == 0:
        return 0.0, 0, 1.0
    for i in range(len(cats)):
        if tot[i] * min(na, nb) / (na + nb) < MIN_EXPECTED:
            pa += a[i]
            pb += b[i]
        else:
            keep.append((a[i], b[i]))
    if pa + pb > 0:
        keep.append((pa, pb))
    if len(keep) < 2:
        return 0.0, 0, 1.0
    a = np.array([k[0] for k in keep])
    b = np.array([k[1] for k in keep])
    tot = a + b
    ea = tot * na / (na + nb)
    eb = tot * nb / (na + nb)
    stat = float((((a - ea) ** 2) / ea).sum() + (((b - eb) ** 2) / eb).sum())
    dof = len(keep) - 1
    return stat, dof, chi2_sf(stat, dof)


def chi2_sf(stat: float, dof: int) -> float:
    """Upper tail P(X > stat), stat >= 0, of the chi-square law with dof
    degrees of freedom; NaN when dof <= 0, as scipy.stats.chi2.sf gives."""
    return float(special.chdtrc(dof, stat)) if dof > 0 else math.nan


def fisher_2x2(table) -> float:
    """Two-sided p-value of Fisher's exact test on a 2x2 table of counts.

    With row sums r1, r2 and first column sum c1, the table with x in its
    corner has weight w(x) = C(r1, x) C(r2, c1 - x); the p-value sums the
    weights no larger than the observed one over their total C(r1 + r2, c1).
    The weights are exact integers, each from the last by one ratio, and
    the quotient is rounded once.  A zero margin gives 1.0.
    """
    (a, b), (c, d) = (map(int, row) for row in table)
    r1, r2, c1 = a + b, c + d, a + c
    if 0 in (r1, r2, c1, b + d):
        return 1.0
    lo = max(0, c1 - r2)
    w = math.comb(r1, lo) * math.comb(r2, c1 - lo)
    weights = []
    for x in range(lo, min(r1, c1) + 1):
        weights.append(w)
        w = w * (r1 - x) * (c1 - x) // ((x + 1) * (r2 - c1 + x + 1))
    observed = weights[a - lo]
    return sum(v for v in weights if v <= observed) / sum(weights)


def empirical_tv(counts_a: dict, counts_b: dict) -> float:
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(abs(counts_a.get(k, 0) / na - counts_b.get(k, 0) / nb)
                     for k in keys)


def quantile_bins(values: np.ndarray, min_per_bin: int = 200) -> np.ndarray:
    """Bin indices by quantiles so every bin holds at least `min_per_bin`."""
    n = len(values)
    k = max(1, min(MAX_BINS, n // min_per_bin))
    edges = np.quantile(values, np.linspace(0, 1, k + 1)[1:-1])
    return np.searchsorted(edges, values, side="right")


# -- conditioned-Poisson oracles ------------------------------------------------


def sample_conditioned_poisson(lam: np.ndarray, accept, rng) -> np.ndarray:
    """Independent Poisson(lam[i, e]) rows, each conditioned on `accept`.

    accept maps an integer draw matrix to a boolean mask of the rows that
    satisfy the condition.  Sampling is by rejection, which is exact; it
    gives up after POISSON_ROUNDS rounds with an OracleError.
    """
    n, m = lam.shape
    out = np.zeros((n, m), dtype=np.int64)
    todo = np.arange(n)
    for _ in range(POISSON_ROUNDS):
        if todo.size == 0:
            return out
        draw = rng.poisson(lam[todo])
        ok = accept(draw)
        out[todo[ok]] = draw[ok]
        todo = todo[~ok]
    raise OracleError(f"conditioned-Poisson rejection gave up after {POISSON_ROUNDS} "
                      f"rounds with {todo.size} of {n} rows still rejected")
