import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redundancy_ht import SystemModel, generators
from redundancy_ht.criticality import crp_components
from redundancy_ht.errors import DomainError
from redundancy_ht.moments import (limit_moment_total, limit_response_time, moment,
                                   moment_total, scaled_total_moment)
from redundancy_ht.oracles import (critical_rate_and_subsets_bruteforce, eulerian,
                                   linear_exponential_moment, moment_total_alt, moments_identity)


def _ctx(model):
    report = critical_rate_and_subsets_bruteforce(model)
    return report, crp_components(model, report.lambda_star)


def _limit_type(model, dag, t, n):
    return moment(model, n, f"type:{t}", limit=True, dag=dag)


def test_mm1_first_moment(mm1):
    assert moment_total(mm1, 1) == 1  # rho/(1-rho) at rho = 1/2


def test_mm1_second_moment(mm1):
    # independent oracle: E[Q^2] = p(1+p)/(1-p)^2 for the geometric queue law
    p = F(1, 2)
    assert moment_total(mm1, 2) == p * (1 + p) / (1 - p) ** 2 == 3


def test_alt_equals_main_n_model(n_model):
    for n in range(1, 5):
        assert moment_total(n_model, n) == moment_total_alt(n_model, n)


def test_single_type_third_moment_series_oracle():
    model = SystemModel(mu=(F(1),), lam=F(1, 3), job_types=(frozenset({1}),), p=(F(1),))
    # brute-force series sum of the geometric law, truncated at 10^4 terms
    rho = F(1, 3)
    series = sum(n ** 3 * (1 - rho) * rho ** n for n in range(10_000))
    assert abs(float(moment_total(model, 3)) - float(series)) < 1e-12
    assert moment_total_alt(model, 3) == moment_total(model, 3)


def test_eulerian_triangle():
    assert eulerian(3, 1) == 4
    assert eulerian(0, 0) == 1
    assert eulerian(2, 5) == 0


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 9))
def test_eulerian_row_sum_and_symmetry(k):
    assert sum(eulerian(k, l) for l in range(k)) == math.factorial(k)
    for i in range(k):
        assert eulerian(k, i) == eulerian(k, k - i - 1)


def test_moments_identity_k1():
    for num in range(1, 10):
        p = F(num, 10)
        lhs, rhs = moments_identity(1, p)
        assert lhs == rhs == p / (1 - p)


def test_moments_identity_k2_half():
    lhs, rhs = moments_identity(2, F(1, 2))
    assert lhs == rhs == F(3, 2)


def test_moments_identity_sweep():
    for k in range(1, 9):
        for num in range(1, 10):
            lhs, rhs = moments_identity(k, F(num, 10))
            assert lhs == rhs


def test_alt_equals_main_random_models(rng):
    for _ in range(15):
        model = generators.random_stable_model(rng, max_servers=5, max_types=4)
        for n in range(1, 5):
            assert moment_total(model, n) == moment_total_alt(model, n)


def test_limit_moment_total_values(mm1, four_server, n_model):
    assert limit_moment_total(_ctx(mm1)[0].depth_K, 1) == 1
    assert limit_moment_total(_ctx(four_server)[0].depth_K, 2) == 12  # 4!/2! with K = 3
    report, _ = _ctx(n_model)
    assert limit_moment_total(report.depth_K, 1) == 2
    eps = F(1, 1000)
    val = scaled_total_moment(n_model, report.lambda_star, eps, 1)
    assert abs(val - 2) / 2 < 2 * eps


def test_limit_moment_total_is_erlang_moment(four_server):
    report, dag = _ctx(four_server)
    k = report.depth_K
    for n in range(1, 5):
        assert limit_moment_total(k, n) == math.factorial(n + k - 1) // math.factorial(k - 1)


def test_limit_moments_match_sample_limit(four_server):
    from redundancy_ht.analytic import limit_law, sample_limit

    report, dag = _ctx(four_server)
    x = sample_limit(limit_law(dag), 200_000, seed=21)
    total = x.sum(axis=1)
    for n in (1, 2):
        target = limit_moment_total(report.depth_K, n)
        se = (total ** n).std() / math.sqrt(len(total))
        assert abs((total ** n).mean() - target) < 4 * se


def test_limit_moment_type_strong_crp():
    model = SystemModel(mu=(F(1), F(1)), lam=F(1, 2),
                        job_types=(frozenset({1, 2}), frozenset({2})), p=(F(3, 4), F(1, 4)))
    _, dag = _ctx(model)
    assert _limit_type(model, dag, 0, 1) == F(3, 4)
    assert _limit_type(model, dag, 1, 1) == F(1, 4)


def test_limit_moment_type_four_server(four_server):
    _, dag = _ctx(four_server)
    # type {1,2,3} draws only (1/4) U3: first moment 1/4
    assert _limit_type(four_server, dag, 1, 1) == F(1, 4)
    # type {1}: E[(U1 + U3/4)^2] via the independent-exponential oracle
    oracle = linear_exponential_moment((F(1), F(1, 4)), 2)
    assert oracle == F(1) + F(1, 16) + (F(5, 4)) ** 2  # sum a^2 + (sum a)^2
    assert _limit_type(four_server, dag, 0, 2) == oracle


def test_limit_moment_type_noncritical_is_zero():
    model = SystemModel(mu=(F(1), F(1)), lam=F(1, 2),
                        job_types=(frozenset({1, 2}), frozenset({2})), p=(F(1, 4), F(3, 4)))
    _, dag = _ctx(model)
    assert _limit_type(model, dag, 0, 1) == 0


def test_limit_moment_type_matches_mixture_oracle(rng):
    from redundancy_ht.oracles import mixture_law, sigma_aggregate

    for _ in range(10):
        model, report, dag = generators.random_laminar_model(rng, max_servers=4,
                                                             max_types=4, max_k=3)
        mix = sigma_aggregate(mixture_law(model, report), dag)
        for t in model.type_indices:
            direct = sum(w * linear_exponential_moment([row[t] for row in coeffs], 2)
                         for (w, coeffs, _) in mix.atoms)
            assert _limit_type(model, dag, t, 2) == direct


def test_response_time_values(mm1, four_server, n_model):
    report, _ = _ctx(four_server)
    assert limit_response_time(report, four_server) == F(3, 4)
    report, _ = _ctx(mm1)
    assert limit_response_time(report, mm1) == 1  # 1/lambda* with K = N = 1
    report, _ = _ctx(n_model)
    assert limit_response_time(report, n_model) == 1  # K/(N mu) = 2/2


def test_cos_sandwich(n_model):
    # E[Qtilde^n] <= E[Q^n] <= E[(Qtilde + N)^n], and both scaled ends converge
    n_srv = n_model.n_servers
    for n in (1, 2):
        for lam in (F(5, 10), F(8, 10)):
            model = n_model.with_lambda(lam)
            lower = moment_total(model, n, "cos")
            mid = moment_total(model, n, "coc")
            upper = sum(math.comb(n, k) * n_srv ** (n - k) *
                        (moment_total(model, k, "cos") if k else 1)
                        for k in range(n + 1))
            assert lower <= mid <= upper
    report, _ = _ctx(n_model)
    for n in (1, 2):
        target = limit_moment_total(report.depth_K, n)
        gaps = []
        for eps in (F(1, 10), F(1, 100), F(1, 1000)):
            lo = scaled_total_moment(n_model, report.lambda_star, eps, n, "cos")
            hi = scaled_total_moment(n_model, report.lambda_star, eps, n, "coc")
            gaps.append((abs(lo - target), abs(hi - target)))
        assert all(a[0] > b[0] and a[1] > b[1] for a, b in zip(gaps, gaps[1:]))


def test_moment_order_cap(n_model):
    with pytest.raises(DomainError):
        moment_total(n_model, 13)


def test_moment_request_dispatch(n_model, four_server):
    assert moment(n_model, 1) == moment_total(n_model, 1)
    assert moment(n_model, 1, discipline="cos") == moment_total(n_model, 1, "cos")
    _, dag = _ctx(four_server)
    assert moment(four_server, 1, "type:1", limit=True, dag=dag) == F(1, 4)
    assert moment(n_model, 1, "type:0") == 2
    for limit in (False, True):
        with pytest.raises(DomainError, match="unknown type index 2"):
            moment(n_model, 1, "type:2", limit=limit, dag=_ctx(n_model)[1])
    with pytest.raises(DomainError):
        moment(n_model, 0)
