"""The simulator's physics against the exact stationary law on random models.

Under both disciplines the set of types with a job present (c.o.c.) or
waiting (c.o.s.) is the set of the first-occurrence vector, whose exact law
is `_peeling_weights`' final weights, normalised. Order-independent queues
are quasi-reversible (Berezner, Kriel & Krzesinski 1995), so the counts just
after a departure follow the stationary law, and samples 200 departures
apart are close to independent.
"""
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from redundancy_ht import _kernels, generators
from redundancy_ht.prelimit import _peeling_weights
from redundancy_ht.simulator import simulate

MODELS = 12
DISCIPLINES = ("coc", "cos")
# False alarms: Bonferroni at an overall 1e-3 over the 24 chi-square tests.
LEVEL = 1e-3 / (MODELS * len(DISCIPLINES))
# 2M events, ~5,000 samples a run, on the compiled kernels (~3 s in all);
# 400k events, ~1,000 samples a run, where the Python kernels run (~6 s).
EVENTS = {"c": 2_000_000, "python": 400_000}


def _models():
    rng = random.Random(2027)
    return [generators.random_stable_model(rng, max_servers=5, max_types=5,
                                           cover_all_servers=True, load=Fraction(7, 10))
            for _ in range(MODELS)]


def _chi2_pvalue(observed, expected):
    """Pearson's chi-square p-value, the cells of smallest expectation
    pooled into one until it expects at least 5."""
    order = np.argsort(expected)
    observed, expected = observed[order], expected[order]
    k = 1
    while k < len(expected) and expected[:k].sum() < 5:
        k += 1
    observed = np.concatenate([[observed[:k].sum()], observed[k:]])
    expected = np.concatenate([[expected[:k].sum()], expected[k:]])
    stat = ((observed - expected) ** 2 / expected).sum()
    return chi2.sf(stat, len(expected) - 1)


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_present_sets_follow_the_final_peeling_weights(discipline):
    events = EVENTS["python" if _kernels.library() is None else "c"]
    for i, model in enumerate(_models()):
        f, final = _peeling_weights(model, discipline)
        law = np.array([float(w) for w in final])
        est = simulate(model, discipline, events, seed=i, sample_every=200)
        sets = (est.samples > 0) @ (1 << np.arange(model.n_types))
        observed = np.bincount(sets, minlength=1 << model.n_types)[list(f)]
        assert observed.sum() == len(sets) > 500
        p = _chi2_pvalue(observed, law / law.sum() * len(sets))
        assert p > LEVEL, f"model {i} ({model}), {discipline}: p = {p:.3g}"
