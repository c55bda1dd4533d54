import numpy as np
import pytest

from loopsoup.exact import OracleError
from loopsoup.stats import chi2_gof, sample_conditioned_poisson


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


def test_conditioned_poisson_gives_up_with_oracle_error():
    never = lambda draw: np.zeros(len(draw), dtype=bool)   # noqa: E731
    with pytest.raises(OracleError, match="3 of 3 rows still rejected"):
        sample_conditioned_poisson(np.ones((3, 2)), never,
                                   np.random.default_rng(0))
