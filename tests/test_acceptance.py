"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or
`rht verify` for the same battery via the CLI.
"""
import time

import pytest

from redundancy_ht.acceptance import CRITERIA

BUDGET_SECONDS = {
    "mixture-weights": 1,
    "limit-law-matrix": 1,
    "sigma-aggregation": 1,
    "laplace-equality": 30,
    "construction-equivalence": 60,
    "nested-sum-identity": 10,
    "moment-identities": 60,
    "erlang-moments": 30,
    "pgf-convergence": 30,
    "simulation-convergence": 300,
    "product-form-oracle": 60,
    "coc-cos-coincidence": 60,
}


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_criterion(name, fn):
    start = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - start
    print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.1f}s): {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < BUDGET_SECONDS[name], \
        f"{name} took {elapsed:.1f}s, budget {BUDGET_SECONDS[name]}s"
