"""Statistical test helpers shared by the verification suite."""

from __future__ import annotations

import math

import numpy as np

from .exact import OracleError, tv_distance

MIN_EXPECTED = 5.0     # chi-square categories expected below this are pooled
MAX_BINS = 50          # most quantile bins
POISSON_ROUNDS = 5000  # rejection rounds before a conditioned-Poisson draw gives up


def chi2_gof(observed: dict, expected_probs: dict, n: int):
    """Chi-square goodness of fit with small-expected-count pooling.

    observed: category -> count; expected_probs: category -> probability
    (may sum below one; the deficit becomes an implicit "other" bucket).
    Returns (statistic, dof, p_value).  Categories are summed in the order
    of (expected probability, observed count), so the result depends on the
    partition and not on how a category is written.  Observations in a
    pooled bucket where nothing is expected refute the law: the statistic
    is infinite and p is 0.
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
    elif pool_o > 0:
        return math.inf, len(obs), 0.0
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
    """Upper tail Q = P(X > stat), stat >= 0, of the chi-square law with an
    integer number dof of degrees of freedom; NaN when dof <= 0.

    With h = stat/2 and a = dof/2, Q is the regularized upper gamma function
    Q(a, h).  Below h = a + 1 it is 1 - P(a, h), with P from the series
    P(a, h) = h^a e^-h / Gamma(a + 1) * sum_k h^k / ((a + 1)...(a + k)).
    Above, it is the finite sum of Abramowitz & Stegun 26.4.4-26.4.5,
    Q(a, h) = [erfc(sqrt h) if dof is odd] + sum over b = a, a - 1, ... > 1/2
    of h^(b-1) e^-h / Gamma(b), evaluated by Horner from its last term b = a.
    Against mpmath at 200 bits on dof 1-200 (`test_stats`), the relative
    error is below 1e-12 wherever Q >= 1e-290; the worst measured is 1.4e-13.
    """
    if dof <= 0:
        return math.nan
    if stat == math.inf:
        return 0.0
    h, a = stat / 2.0, dof / 2.0
    if h <= 0.0:            # stat = 0, or so small that stat / 2 underflows
        return 1.0
    if h < a + 1.0:
        term = total = 1.0
        k = a
        while term > total * 1e-17:
            k += 1.0
            term *= h / k
            total += term
        return 1.0 - math.exp(a * math.log(h) - h - math.lgamma(a + 1.0)) * total
    q = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    if dof == 1:
        return q
    ratio = 0.0
    for n in range(2 + dof % 2, dof - 1, 2):
        ratio = n / stat * (1.0 + ratio)
    return q + math.exp((a - 1.0) * math.log(h) - h - math.lgamma(a)) * (1.0 + ratio)


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
    """Total variation distance between the frequencies of two samples."""
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    return tv_distance({k: c / na for k, c in counts_a.items()},
                       {k: c / nb for k, c in counts_b.items()})


def quantile_bins(values: np.ndarray, min_per_bin: int) -> np.ndarray:
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
