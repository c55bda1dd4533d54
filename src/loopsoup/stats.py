"""Statistical test helpers shared by the verification suite."""

from __future__ import annotations

import numpy as np
from scipy import stats as sps


def chi2_gof(observed: dict, expected_probs: dict, n: int,
             min_expected: float = 5.0):
    """Chi-square goodness of fit with small-expected-count pooling.

    observed: category -> count; expected_probs: category -> probability
    (may sum below one; the deficit becomes an implicit "other" bucket).
    Returns (statistic, dof, p_value).
    """
    cats = sorted(set(observed) | set(expected_probs), key=repr)
    obs, exp = [], []
    pool_o = pool_e = 0.0
    covered = 0.0
    for c in cats:
        e = n * float(expected_probs.get(c, 0.0))
        o = observed.get(c, 0)
        covered += float(expected_probs.get(c, 0.0))
        if e < min_expected:
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
    return stat, dof, float(sps.chi2.sf(stat, dof))


def chi2_two_sample(counts_a: dict, counts_b: dict, min_expected: float = 5.0):
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
        if tot[i] * min(na, nb) / (na + nb) < min_expected:
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
    return stat, dof, float(sps.chi2.sf(stat, dof))


def empirical_tv(counts_a: dict, counts_b: dict) -> float:
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(abs(counts_a.get(k, 0) / na - counts_b.get(k, 0) / nb)
                     for k in keys)


def ks_distance(samples, cdf) -> float:
    return float(sps.kstest(samples, cdf).statistic)


def three_sigma(mean_hat: float, target: float, se: float,
                allowance: float = 0.0) -> bool:
    return abs(mean_hat - target) <= 3.0 * se + allowance


def quantile_bins(values: np.ndarray, min_per_bin: int = 200,
                  max_bins: int = 50) -> np.ndarray:
    """Bin indices by quantiles so every bin holds at least `min_per_bin`."""
    n = len(values)
    k = max(1, min(max_bins, n // min_per_bin))
    edges = np.quantile(values, np.linspace(0, 1, k + 1)[1:-1])
    return np.searchsorted(edges, values, side="right")


# -- conditioned-Poisson oracles ------------------------------------------------


def sample_conditioned_poisson(lam: np.ndarray, accept, rng,
                               max_iter: int) -> np.ndarray:
    """Independent Poisson(lam[i, e]) rows, each conditioned on `accept`.

    accept maps an integer draw matrix to a boolean mask of the rows that
    satisfy the condition.  Sampling is by rejection, which is exact; it
    gives up after max_iter rounds.
    """
    n, m = lam.shape
    out = np.zeros((n, m), dtype=np.int64)
    todo = np.arange(n)
    for _ in range(max_iter):
        if todo.size == 0:
            return out
        draw = rng.poisson(lam[todo])
        ok = accept(draw)
        out[todo[ok]] = draw[ok]
        todo = todo[~ok]
    raise RuntimeError("conditioned-Poisson rejection did not terminate")
