import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from redundancy_ht import SystemModel, generators
from redundancy_ht.criticality import critical_rate_and_subsets_bruteforce, crp_components
from redundancy_ht.errors import CapExceeded, DomainError
from redundancy_ht.model import TrajectorySpec, model_at_trajectory
from redundancy_ht.moments import moment_total
from redundancy_ht.prelimit import config_distribution, expected_type_counts
from redundancy_ht.simulator import (MIN_BATCHES, T975, config_marginals_from_oracle,
                                     ctmc_oracle, ks_two_sample, scaled_law_check, simulate)


def test_mm1_time_average(mm1):
    est = simulate(mm1, "coc", horizon_events=400_000, seed=1)
    assert abs(est.time_avg_total - 1.0) < max(3 * est.half_width[0], 0.05)


def test_strong_crp_type_split():
    # complete sharing: per-type time-average proportions approach p_S
    model = SystemModel(mu=(F(1), F(1)), lam=F(9, 10),
                        job_types=(frozenset({1, 2}), frozenset({2})), p=(F(3, 4), F(1, 4)))
    est = simulate(model, "coc", horizon_events=400_000, seed=2)
    share = est.time_avg / est.time_avg.sum()
    assert abs(share[0] - 0.75) < 0.05


def test_sim_total_matches_moment(n_model):
    est = simulate(n_model, "coc", horizon_events=600_000, seed=3)
    expected = float(moment_total(n_model, 1))
    assert abs(est.time_avg_total - expected) < 3 * est.half_width.sum()


def test_sim_per_type_matches_exact_means(n_model):
    est = simulate(n_model, "coc", horizon_events=600_000, seed=4)
    for t, target in enumerate(expected_type_counts(n_model)):
        assert abs(est.time_avg[t] - float(target)) < 4 * max(est.half_width[t], 0.02)


def test_literal_copies_agrees_with_aggregated(four_server):
    a = simulate(four_server, "coc", horizon_events=300_000, seed=5)
    b = simulate(four_server, "coc", horizon_events=300_000, seed=6, literal_copies=True)
    for t in range(4):
        tol = 3 * (a.half_width[t] + b.half_width[t])
        assert abs(a.time_avg[t] - b.time_avg[t]) < max(tol, 0.05)


def test_debug_checks_run(n_model, four_server):
    for model in (n_model, four_server):
        simulate(model, "coc", horizon_events=5_000, seed=7, debug_checks=True)
        simulate(model, "coc", horizon_events=5_000, seed=7, debug_checks=True,
                 literal_copies=True)
        simulate(model, "cos", horizon_events=5_000, seed=8, debug_checks=True)


def test_literal_copies_follow_the_same_path():
    # for a fixed seed the per-copy queues and the aggregated central queue
    # make the same draws, so their sample paths coincide
    rng = random.Random(2024)
    for _ in range(30):
        model = generators.random_stable_model(rng, max_servers=5, max_types=6)
        seed = rng.randrange(1000)
        a = simulate(model, "coc", horizon_events=2_000, seed=seed, sample_every=7)
        b = simulate(model, "coc", horizon_events=2_000, seed=seed, sample_every=7,
                     literal_copies=True)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.time_avg, b.time_avg)
        assert np.array_equal(a.half_width, b.half_width)


def test_no_table_over_all_type_subsets():
    # 18 types on 5 servers: a table over all 2^18 type masks would need
    # well over 100 MB before the first event
    subsets = [s for k in range(1, 6) for s in itertools.combinations(range(1, 6), k)]
    model = SystemModel(mu=(F(1),) * 5, lam=F(1, 2),
                        job_types=tuple(frozenset(s) for s in subsets[-18:]),
                        p=(F(1, 18),) * 18)
    tracemalloc.start()
    try:
        simulate(model, "coc", horizon_events=1_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


def test_cos_waiting_matches_moment(n_model):
    est = simulate(n_model, "cos", horizon_events=600_000, seed=9)
    expected = float(moment_total(n_model, 1, "cos"))
    assert abs(est.time_avg_total - expected) < 3 * est.half_width.sum()
    assert est.time_avg_in_service is not None
    # servers are busy most of the time at this load
    assert 1.0 < est.time_avg_in_service.sum() <= 2.0


def test_unstable_requires_override():
    model = SystemModel(mu=(F(1),), lam=F(2), job_types=(frozenset({1}),), p=(F(1),))
    with pytest.raises(DomainError):
        simulate(model, "coc", horizon_events=100)
    with pytest.warns(UserWarning):
        simulate(model, "coc", horizon_events=100, allow_unstable=True)


def test_oracle_mm1_geometric(mm1):
    pi, pf, tv = ctmc_oracle(mm1, "coc", truncation_len=50)
    assert tv < 1e-10
    rho = 0.5
    norm = sum(rho ** k for k in range(51))
    for k in (0, 1, 5, 20):
        assert abs(pi[tuple([0] * k)] - rho ** k / norm) < 1e-10


def test_oracle_n_model_product_form(n_model):
    nmod = n_model.with_lambda(F(1, 2))
    pi, pf, tv = ctmc_oracle(nmod, "coc", truncation_len=12)
    assert tv < 1e-6


def test_oracle_config_marginals_match_prelimit(n_model):
    nmod = n_model.with_lambda(F(1, 2))
    entries_list, probs = config_distribution(nmod)

    def worst_error(truncation):
        pi, _, _ = ctmc_oracle(nmod, "coc", truncation_len=truncation)
        marg = config_marginals_from_oracle(nmod, pi)
        return max(abs(marg.get(entries, 0.0) - float(prob))
                   for entries, prob in zip(entries_list, probs))

    coarse, fine = worst_error(8), worst_error(14)
    assert fine < coarse  # the gap is truncation error and shrinks with the cap
    assert fine < 2.5e-4  # boundary mass ~ 2^-14 spread over the marginals


def test_oracle_refuses_cos(n_model):
    with pytest.raises(DomainError):
        ctmc_oracle(n_model, "cos", truncation_len=5)


def test_oracle_state_cap(four_server):
    with pytest.raises(CapExceeded):
        ctmc_oracle(four_server, "coc", truncation_len=12)


def test_ks_two_sample_critical_value():
    rng = np.random.default_rng(0)
    a, b = rng.exponential(1, 2000), rng.exponential(1, 2000)
    stat, crit = ks_two_sample(a, b)
    assert stat < crit
    assert abs(crit - 1.6276 * math.sqrt(2 / 2000)) < 1e-3


def test_t_table_is_scipy_quantile():
    import scipy.stats

    assert len(T975) == MIN_BATCHES - 1
    for dof, value in enumerate(T975, start=1):
        assert value == float(scipy.stats.t.ppf(0.975, dof)), dof


def _ks_pairs():
    """Sample pairs for the KS differential test: continuous and tied (scaled
    integer counts) values, n == m and n != m, sizes on both sides of the
    10,000 where scipy stops rounding to a multiple of 1/lcm(n, m)."""
    rng = np.random.default_rng(7)
    sizes = [(1, 1), (1, 7), (5, 5), (37, 91), (300, 300), (480, 2000), (999, 1000),
             (10_000, 10_000), (10_000, 9_999), (10_001, 10_000), (70, 100_000),
             (4_000, 12_000)]
    for n, m in sizes:
        yield rng.exponential(1.0, n), rng.exponential(1.2, m)
        eps = rng.choice([0.02, 0.1, 1 / 3])
        yield rng.poisson(3.0, n) * eps, rng.geometric(0.3, m) * eps
        yield rng.integers(0, 4, n), rng.integers(0, 4, m)
    for _ in range(300):
        n, m = rng.integers(1, 200, 2)
        yield rng.normal(size=n).round(1), rng.normal(0.2, 1.0, m).round(1)


@pytest.mark.filterwarnings("ignore:ks_2samp:RuntimeWarning")  # scipy's exact p-value can give up
def test_ks_two_sample_is_scipy_statistic():
    import scipy.stats

    for a, b in _ks_pairs():
        want = float(scipy.stats.ks_2samp(a, b).statistic)
        assert ks_two_sample(a, b)[0] == want, (len(a), len(b))
        assert ks_two_sample(list(a), list(b))[0] == want


def test_ks_two_sample_needs_two_samples():
    with pytest.raises(DomainError):
        ks_two_sample([], [1.0])


def test_cli_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, redundancy_ht.cli; "
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_scaled_law_check_runs(n_model):
    from redundancy_ht.analytic import limit_law

    report = critical_rate_and_subsets_bruteforce(n_model)
    dag = crp_components(n_model, report.lambda_star)
    rows = scaled_law_check(n_model, report.lambda_star, limit_law(dag), "coc",
                            eps_values=[0.2, 0.1], events_per_eps=60_000, seed=11,
                            keep_samples=True)
    assert len(rows) == 2
    assert rows[0].scaled_samples.shape[1] == 2
    assert rows[1].ks_total < rows[0].ks_total


def test_scaled_law_check_follows_the_trajectory(n_model):
    # gamma = (3/2, 1/2) gives limit means 1/2 and 5/2, where the plain
    # lambda = (1-eps) lambda* ray would converge to 1/2 and 3/2
    from redundancy_ht.analytic import limit_law

    traj = TrajectorySpec(gamma=(F(3, 2), F(1, 2)), epsilon=F(1, 50))
    law = limit_law(crp_components(n_model), traj)
    assert [sum(row[t] for row in law.coeffs) for t in range(2)] == [F(1, 2), F(5, 2)]
    rows = scaled_law_check(n_model, F(1), law, "coc", eps_values=[0.1, 0.05],
                            events_per_eps=[200_000, 400_000], seed=5, law_samples=1_000,
                            traj=traj)
    for row, eps in zip(rows, (F(1, 10), F(1, 20))):
        pre = model_at_trajectory(n_model, TrajectorySpec(traj.gamma, eps), F(1))
        exact = [float(x * eps) for x in expected_type_counts(pre)]
        assert abs(row.mean_scaled[0] - exact[0]) < 0.08
        assert abs(row.mean_scaled[1] - exact[1]) < 0.6
    assert abs(rows[-1].mean_scaled[1] - 2.5) < 0.6


def test_cos_scaled_waiting_vector_approaches_same_law(n_model):
    # the waiting-count vector under cancel-on-start obeys the identical
    # K = 2 limit law; at moderate eps the simulated scaled means must match
    # the exact pre-limit waiting means, and the law distance must shrink
    from redundancy_ht.analytic import limit_law
    from redundancy_ht.criticality import crp_components as components

    report = critical_rate_and_subsets_bruteforce(n_model)
    dag = components(n_model, report.lambda_star)
    rows = scaled_law_check(n_model, report.lambda_star, limit_law(dag), "cos",
                            eps_values=[0.1, 0.05],
                            events_per_eps=[600_000, 1_500_000], seed=17)
    for row, eps_frac in zip(rows, (F(1, 10), F(1, 20))):
        pre = n_model.with_lambda((1 - eps_frac) * report.lambda_star)
        exact = [float(x * eps_frac) for x in expected_type_counts(pre, "cos")]
        for got, want in zip(row.mean_scaled, exact):
            assert abs(got - want) < 0.06
    assert rows[1].ks_total < rows[0].ks_total


def test_total_one_sample_ks_vs_erlang_cdf(n_model):
    # scaled total vs the analytic Erlang(1,2) CDF; the distance target
    # scales with eps (systematic O(eps) plus sampling noise)
    import scipy.stats

    report = critical_rate_and_subsets_bruteforce(n_model)
    eps = 0.02
    pre = n_model.as_float().with_lambda((1 - eps) * float(report.lambda_star))
    est = simulate(pre, "coc", horizon_events=10_000_000, seed=19, sample_every=100)
    totals = est.samples.sum(axis=1) * eps
    stat = scipy.stats.kstest(totals, scipy.stats.gamma(a=2, scale=1.0).cdf).statistic
    assert stat < 0.05


def test_complete_partitioning_marginals_exponential():
    n = 3
    model = SystemModel(mu=tuple(F(1) for _ in range(n)), lam=F(1, 2),
                        job_types=tuple(frozenset({i + 1}) for i in range(n)),
                        p=tuple(F(1, n) for _ in range(n)))
    report = critical_rate_and_subsets_bruteforce(model)
    eps = 0.05
    pre = model.as_float().with_lambda((1 - eps) * float(report.lambda_star))
    est = simulate(pre, "coc", horizon_events=2_000_000, seed=12, sample_every=3000)
    scaled = est.samples * eps
    rng = np.random.default_rng(13)
    for t in range(n):
        stat, crit = ks_two_sample(scaled[:, t], rng.exponential(1.0, 50_000))
        assert stat < 2 * crit  # close to independent unit exponentials
