import math

import mpmath
import numpy as np
import pytest
from scipy import stats as sps

from loopsoup.exact import OracleError
from loopsoup.stats import (chi2_gof, chi2_sf, fisher_2x2,
                            sample_conditioned_poisson)


def test_chi2_gof_ignores_how_categories_are_written():
    """Relabeling the categories by a bijection leaves (stat, dof, p)
    bit-identical: the result is a function of the partition."""
    rng = np.random.default_rng(0)
    n = 500
    for _ in range(50):
        probs = rng.dirichlet(np.full(12, 0.5))
        counts = rng.multinomial(n, probs)
        names = [f"k{j}" for j in rng.permutation(12)]
        observed = {i: int(c) for i, c in enumerate(counts) if c}
        expected = {i: float(p) for i, p in enumerate(probs)}
        relabeled = chi2_gof({names[i]: c for i, c in observed.items()},
                             {names[i]: p for i, p in expected.items()}, n)
        assert relabeled == chi2_gof(observed, expected, n)


def test_chi2_gof_refutes_observations_where_nothing_is_expected():
    """300 of 1,300 observations on a key the law forbids, the law's
    probabilities summing to 1: p is 0, not 1.  Alone in the pooled bucket
    they would otherwise be dropped with it."""
    stat, dof, p = chi2_gof({"a": 500, "b": 500, "z": 300},
                            {"a": 0.5, "b": 0.5}, 1300)
    assert (stat, dof, p) == (math.inf, 2, 0.0)
    # a forbidden key never drawn is no evidence; the law fits exactly
    assert chi2_gof({"a": 500, "b": 500}, {"a": 0.5, "b": 0.5, "z": 0.0},
                    1000) == (0.0, 1, 1.0)
    # pooled with a category of positive mass, the draws are tested as usual
    stat, dof, p = chi2_gof({"a": 995, "y": 2, "z": 3},
                            {"a": 0.998, "y": 0.002}, 1000)
    assert dof == 1 and 0.0 < p < 0.05 and math.isfinite(stat)


def test_conditioned_poisson_gives_up_with_oracle_error():
    never = lambda draw: np.zeros(len(draw), dtype=bool)   # noqa: E731
    with pytest.raises(OracleError, match="3 of 3 rows still rejected"):
        sample_conditioned_poisson(np.ones((3, 2)), never,
                                   np.random.default_rng(0))


def _chi2_sf_reference(x: float, dof: int):
    """Q(dof/2, x/2) at 200 bits: one minus the lower regularized gamma
    below the mean, where mpmath's upper one is slow at tiny x, the upper
    one above it."""
    a, h = mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2
    if h < a:
        return 1 - mpmath.gammainc(a, 0, h, regularized=True)
    return mpmath.gammainc(a, h, mpmath.inf, regularized=True)


def test_chi2_sf_matches_a_200_bit_reference():
    """Relative error <= 1e-12 on dof 1-200 wherever the tail is >= 1e-290
    (a value in [0, 1] elsewhere), exactly 1.0 at x = 0 and 0.0 at x = inf,
    and NaN at dof 0."""
    xs = [0.0, 5e-324, 1e-300, 1e-8, 0.3, 1.0, 2.5, 7.0, 19.9, 64.0, 150.0, 333.3,
          1e3, 1e5, 1e300, math.inf]
    with mpmath.workprec(200):
        for dof in range(1, 201):
            assert chi2_sf(0.0, dof) == 1.0 and chi2_sf(math.inf, dof) == 0.0
            for x in xs[1:-1]:
                got, exact = chi2_sf(x, dof), _chi2_sf_reference(x, dof)
                assert 0.0 <= got <= 1.0, (x, dof, got)
                if exact >= mpmath.mpf("1e-290"):
                    assert abs(got - exact) <= 1e-12 * exact, (x, dof, got)
    assert math.isnan(chi2_sf(3.0, 0))


def test_fisher_2x2_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(300):
        table = rng.integers(0, rng.choice([4, 20, 200]), size=(2, 2))
        p = fisher_2x2(table.tolist())
        assert p == pytest.approx(sps.fisher_exact(table)[1], rel=1e-12, abs=0)


def test_fisher_2x2_zero_margin_and_exact_value():
    for table in ([[0, 0], [3, 4]], [[3, 4], [0, 0]], [[0, 5], [0, 2]],
                  [[5, 0], [2, 0]], [[0, 0], [0, 0]]):
        assert fisher_2x2(table) == 1.0
    # margins 4, 4, 4: weights 1, 16, 36, 16, 1 over C(8, 4) = 70; the
    # observed corner 3 has weight 16, so p = (1 + 16 + 16 + 1) / 70
    assert fisher_2x2([[3, 1], [1, 3]]) == 17 / 35
    assert fisher_2x2([[1, 3], [3, 1]]) == 17 / 35
