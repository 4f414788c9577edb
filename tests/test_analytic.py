import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.stats

from redundancy_ht import SystemModel, TrajectorySpec, default_trajectory, generators
from redundancy_ht.analytic import (LIMIT_BLOCK, LimitLaw, MixtureLaw, _draw_counts, limit_law,
                                    limiting_laplace, limiting_transform, pgf_coc, pgf_cos,
                                    sample_limit, sigma_mixture)
from redundancy_ht.criticality import crp_components
from redundancy_ht.errors import CapExceeded, DomainError, PoleError
from redundancy_ht.oracles import (beta_hat, beta_hat_sigma_k,
                                   critical_rate_and_subsets_bruteforce, enumerate_k_critical,
                                   h_term, laplace_of_mixture, mixture_law,
                                   nested_sum_identity, ordered_vector, p_star,
                                   sigma_aggregate, sigma_weight_formula)


def _ctx(model):
    report = critical_rate_and_subsets_bruteforce(model)
    dag = crp_components(model, report.lambda_star)
    return report, dag


# --- h terms and PGFs --------------------------------------------------------

def test_h_term_mm1(mm1):
    assert h_term(mm1, (0,), [F(1)]) == 1


def test_h_term_empty(mm1):
    assert h_term(mm1, (), [F(1)]) == 1


def test_h_term_n_model(n_model):
    assert h_term(n_model, (1, 0), [F(1), F(1)]) == 8


def test_h_term_pole():
    model = SystemModel(mu=(F(1),), lam=F(1), job_types=(frozenset({1}),), p=(F(1),))
    with pytest.raises(PoleError):
        h_term(model, (0,), [F(1)])


def test_pgf_mm1_closed_form(mm1):
    for z in (F(0), F(1, 3), F(9, 10), F(1)):
        assert pgf_coc(mm1, [z]) == (1 - F(1, 2)) / (1 - F(1, 2) * z)


def test_pgf_at_one(n_model, four_server):
    assert pgf_coc(n_model, [F(1), F(1)]) == 1
    assert pgf_coc(four_server, [F(1)] * 4) == 1
    assert pgf_cos(n_model, [F(1), F(1)]) == 1


def test_pgf_rejects_unstable():
    model = SystemModel(mu=(F(1),), lam=F(2), job_types=(frozenset({1}),), p=(F(1),))
    with pytest.raises(DomainError):
        pgf_coc(model, [F(1, 2)])


@pytest.mark.parametrize("pgf", [pgf_coc, pgf_cos])
def test_pgf_refuses_z_outside_its_domain(pgf, n_model):
    # E[prod z_t^Q_t] is finite iff N lam sum_{t in A} p_t |z_t| < mu(A) for
    # every type set A; here N lam = 8/5 and mu = 2, 1, 2 on {0}, {1}, {0, 1}
    outside = [(10, 10), (-1, 2), (3, 1), (F(5, 2), 1), (-3, 1), (2, 1), (-2, 1)]
    for z in outside:
        with pytest.raises(PoleError, match="beyond a pole"):
            pgf(n_model, [F(x) for x in z])
    with pytest.raises(PoleError):
        pgf(n_model.as_float(), [2.0, 1.0])
    for z in [(F(5, 4), 1), (F(6, 5), F(6, 5)), (F(-1, 2), F(1, 2))]:
        assert 0 < abs(pgf(n_model, [F(x) for x in z])) < math.inf
    assert pgf_coc(n_model, [F(5, 4), F(1)]) == 2


def test_pgf_first_moment_cross_module(n_model):
    from redundancy_ht.moments import moment_total

    fm = n_model.as_float()
    h = 1e-6
    fd = (pgf_coc(fm, [1.0, 1.0]) - pgf_coc(fm, [1.0 - h, 1.0 - h])) / h
    assert abs(fd - float(moment_total(n_model, 1))) < 1e-4


def test_pgf_cos_first_moment_cross_module(n_model):
    from redundancy_ht.moments import moment_total

    fm = n_model.as_float()
    h = 1e-6
    fd = (pgf_cos(fm, [1.0, 1.0]) - pgf_cos(fm, [1.0 - h, 1.0 - h])) / h
    assert abs(fd - float(moment_total(n_model, 1, "cos"))) < 1e-4


def test_pgf_cos_mm1_matches_waiting_jobs(mm1):
    # single server: waiting jobs are geometric with an atom; check against
    # the closed form g(z)/g(1) computed by hand:
    # g(z) = [1 + rho z/(1 - rho z)] + (mu/lambda) * 1 = 1/(1-rho z) + 2
    rho = F(1, 2)
    for z in (F(0), F(1, 2), F(1)):
        expected = (1 / (1 - rho * z) + 2) / (1 / (1 - rho) + 2)
        assert pgf_cos(mm1, [z]) == expected


# --- beta weights and k-critical enumeration ---------------------------------

def test_p_star_table(four_server):
    report, _ = _ctx(four_server)
    vecs = {v.entries: v for v in enumerate_k_critical(four_server, report, 3)}
    assert p_star(four_server, report, vecs[(0, 2, 3, 1)]) == F(4, 9)
    assert p_star(four_server, report, vecs[(3, 2, 0, 1)]) == F(1, 9)
    assert sum(p_star(four_server, report, v) for v in vecs.values()) == 1


def test_p_star_requires_k_critical(four_server):
    report, _ = _ctx(four_server)
    vec = ordered_vector(four_server, (0,), report.critical_subsets)
    with pytest.raises(DomainError):
        p_star(four_server, report, vec)


def test_enumerate_k_critical_scenario_iii(n_model):
    report, _ = _ctx(n_model)
    n2 = [v.entries for v in enumerate_k_critical(n_model, report, 2)]
    assert n2 == [(1, 0)]
    n0 = [v.entries for v in enumerate_k_critical(n_model, report, 0)]
    assert n0 == [(), (0,)]
    n1 = [v.entries for v in enumerate_k_critical(n_model, report, 1)]
    assert sorted(n1) == [(1,), (0, 1)][::-1] or sorted(n1) == [(0, 1), (1,)]


def test_nk_size_four_server(four_server):
    report, _ = _ctx(four_server)
    assert len(enumerate_k_critical(four_server, report, 3)) == 4


def test_nk_partition_into_sigma_classes(four_server):
    # the K-critical vectors split exactly into the sigma-ordered families
    report, dag = _ctx(four_server)
    vecs = {v.entries for v in enumerate_k_critical(four_server, report, 3)}
    by_sigma = {
        (0, 1, 2): {(0, 2, 3, 1), (0, 3, 2, 1)},
        (1, 0, 2): {(2, 3, 0, 1), (3, 2, 0, 1)},
    }
    assert set.union(*by_sigma.values()) == vecs


def test_enumeration_cap():
    types = tuple(frozenset({i + 1}) for i in range(9))
    model = SystemModel(mu=tuple(F(1) for _ in range(9)), lam=F(1, 2),
                        job_types=types, p=tuple(F(1, 9) for _ in range(9)))
    report = critical_rate_and_subsets_bruteforce(model)
    with pytest.raises(CapExceeded):
        enumerate_k_critical(model, report, 1)


# --- limiting Laplace transforms ---------------------------------------------

def test_laplace_at_zero(four_server):
    _, dag = _ctx(four_server)
    assert limiting_laplace(dag, [F(0)] * 4) == 1


def test_laplace_erlang_diagonal(four_server, n_model):
    for model, k in ((four_server, 3), (n_model, 2)):
        _, dag = _ctx(model)
        for t in (F(1, 2), F(1), F(3)):
            assert limiting_laplace(dag, [t] * model.n_types) == (1 + t) ** -k


def test_laplace_hand_value(four_server):
    _, dag = _ctx(four_server)
    assert limiting_laplace(dag, [F(1), F(0), F(0), F(0)]) == F(2, 5)


def test_mixture_table_components(four_server):
    report, _ = _ctx(four_server)
    mix = mixture_law(four_server, report)
    atoms = {label: (w, coeffs) for (w, coeffs, label) in mix.atoms}
    expected_coeffs = (
        (F(1), 0, 0, 0),
        (F(1, 3), 0, F(2, 9), F(4, 9)),
        (F(1, 4), F(1, 4), F(1, 6), F(1, 3)),
    )
    for label in ((0, 2, 3, 1), (0, 3, 2, 1)):
        w, coeffs = atoms[label]
        assert coeffs == expected_coeffs
    assert atoms[(0, 2, 3, 1)][0] == F(4, 9)
    assert atoms[(0, 3, 2, 1)][0] == F(2, 9)


def test_laplace_mixture_equals_product_exact(four_server):
    report, dag = _ctx(four_server)
    mix = mixture_law(four_server, report)
    grid = [F(0), F(1), F(2), F(3), F(4)]
    for t in itertools.product(grid, repeat=4):
        assert laplace_of_mixture(mix, t) == limiting_laplace(dag, t)


def test_sigma_aggregate_four_server(four_server):
    report, dag = _ctx(four_server)
    agg = sigma_aggregate(mixture_law(four_server, report), dag)
    weights = {label: w for (w, _, label) in agg.atoms}
    assert weights == {(0, 1, 2): F(2, 3), (1, 0, 2): F(1, 3)}
    assert beta_hat(dag, (0, 1, 2)) == F(16, 3)
    assert beta_hat(dag, (1, 0, 2)) == F(8, 3)
    assert beta_hat_sigma_k(dag) == 8
    for sigma, w in weights.items():
        assert w == beta_hat(dag, sigma) / beta_hat_sigma_k(dag)
        assert w == sigma_weight_formula(dag, sigma)


def test_sigma_weights_general_trajectory(four_server):
    report, dag = _ctx(four_server)
    traj = TrajectorySpec(gamma=(F(3, 2), F(1, 2), F(1, 3), F(2, 3)), epsilon=F(1, 100))
    agg = sigma_aggregate(mixture_law(four_server, report, traj), dag)
    for (w, _, sigma) in agg.atoms:
        assert w == sigma_weight_formula(dag, sigma, traj)
    assert sum(w for (w, _, _) in agg.atoms) == 1


def test_sigma_aggregate_single_component(mm1):
    report, dag = _ctx(mm1)
    agg = sigma_aggregate(mixture_law(mm1, report), dag)
    assert len(agg.atoms) == 1
    assert agg.atoms[0][0] == 1


def test_sigma_aggregate_with_noncritical_trailing():
    # weak CRP: N_K holds [{2}] and [{2},{1,2}]; both merge into one atom
    model = SystemModel(mu=(F(1), F(1)), lam=F(1, 2),
                        job_types=(frozenset({1, 2}), frozenset({2})), p=(F(1, 4), F(3, 4)))
    report, dag = _ctx(model)
    vecs = [v.entries for v in enumerate_k_critical(model, report, report.depth_K)]
    assert sorted(vecs) == [(1,), (1, 0)]
    agg = sigma_aggregate(mixture_law(model, report), dag)
    assert len(agg.atoms) == 1 and agg.atoms[0][0] == 1
    # the non-critical type has zero limiting coefficient
    assert all(row[0] == 0 for row in agg.atoms[0][1])


# --- nested-sum identity -------------------------------------------------------

def test_nested_sum_isolated_pair():
    dag = crp_components(generators.forest_model({}, 2))
    lhs, rhs = nested_sum_identity([F(1), F(1)], dag)
    assert lhs == rhs == 1


def test_nested_sum_line():
    # unique topological order: one term, telescoping product
    dag = crp_components(generators.forest_model({0: 1}, 2))
    assert len(dag.topo_orders) == 1
    lhs, rhs = nested_sum_identity([F(2), F(5)], dag)
    assert lhs == rhs


def test_nested_sum_random_forests(rng):
    for _ in range(60):
        dag = generators.random_forest_dag(rng, max_k=6)
        c = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(dag.K)]
        lhs, rhs = nested_sum_identity(c, dag)
        assert lhs == rhs


def test_nested_sum_fails_off_forest(diamond):
    # two incomparable roots sharing a descendant: lhs != rhs in general
    _, dag = _ctx(diamond)
    lhs, rhs = nested_sum_identity([F(1), F(1), F(1)], dag)
    assert lhs != rhs


# --- limit laws ----------------------------------------------------------------

def test_limit_law_scenario_iii(n_model):
    _, dag = _ctx(n_model)
    law = limit_law(dag)
    # canonical component order puts the {2}-subsystem first; up to relabeling
    # of the exponentials this is (p1 U, p2 U + U')
    assert law.coeffs == ((0, F(1)), (F(1, 2), F(1, 2)))


def test_limit_law_four_server(four_server):
    _, dag = _ctx(four_server)
    assert limit_law(dag).coeffs == (
        (F(1), 0, 0, 0),
        (0, 0, F(1, 3), F(2, 3)),
        (F(1, 4), F(1, 4), F(1, 6), F(1, 3)))


def test_limit_law_trajectory_variant(n_model):
    report, dag = _ctx(n_model)
    delta = F(3, 10)
    traj = TrajectorySpec(gamma=(1 + delta, 1 - delta), epsilon=F(1, 100))
    law = limit_law(dag, traj)
    # the {2}-only exponential picks up the factor mu2/(mu2 - delta)
    assert law.coeffs[0] == (0, F(1) / (1 - delta))
    assert law.coeffs[1] == (F(1, 2), F(1, 2))


def test_limit_law_strong_crp_single_row():
    model = SystemModel(mu=(F(1), F(1)), lam=F(1, 2),
                        job_types=(frozenset({1, 2}), frozenset({2})), p=(F(3, 4), F(1, 4)))
    _, dag = _ctx(model)
    law = limit_law(dag)
    assert len(law.coeffs) == 1
    assert law.coeffs == ((F(3, 4), F(1, 4)),)


def test_default_direction_beyond_lambda_star(n_model):
    # only gamma = N*lambda* p is read, so a model file with lambda > lambda*
    # gets the same limit objects as a stable one
    _, dag = _ctx(n_model)
    over = n_model.with_lambda(F(3, 2))
    _, dag_over = _ctx(over)
    assert limit_law(dag_over) == limit_law(dag)
    t = [F(1), F(2)]
    assert limiting_transform(dag_over, t) == limiting_transform(dag, t)


def test_row_sums_one_fixed_direction(four_server, n_model):
    for model in (four_server, n_model):
        _, dag = _ctx(model)
        for row in limit_law(dag).coeffs:
            assert sum(row) == 1


# --- sampling -------------------------------------------------------------------

def test_sample_limit_identity_matrix():
    law = LimitLaw(coeffs=((1, 0), (0, 1)))
    x = sample_limit(law, 100_000, seed=3)
    for col in range(2):
        assert abs(x[:, col].mean() - 1.0) < 3 / math.sqrt(100_000)


def test_sample_limit_total_erlang(four_server):
    _, dag = _ctx(four_server)
    x = sample_limit(limit_law(dag), 100_000, seed=4)
    total = x.sum(axis=1)
    assert abs(total.mean() - 3.0) < 3 * math.sqrt(3.0 / 100_000)


def _concatenated_sample_limit(law, n, seed):
    """sample_limit as one (count, K) draw per atom, concatenated: the
    differential oracle of its blocks."""
    rng = np.random.default_rng(seed)
    counts = _draw_counts(rng, n, [w for (w, _, _) in law.atoms])
    out = []
    for (count, (_, coeffs, _)) in zip(counts, law.atoms):
        if count == 0:
            continue
        a = np.asarray(coeffs, dtype=float)
        u = rng.exponential(1.0, size=(count, a.shape[0]))
        out.append(u @ a)
    return np.concatenate(out, axis=0)


@pytest.mark.parametrize("n", [1, LIMIT_BLOCK - 1, LIMIT_BLOCK, LIMIT_BLOCK + 1,
                               3 * LIMIT_BLOCK + 5, 100_000])
def test_sample_limit_matches_the_concatenated_sampler(n, four_server, diamond):
    product = limit_law(_ctx(four_server)[1])
    mixture = sigma_mixture(_ctx(diamond)[1])
    assert len(mixture.atoms) == 2
    coeffs = product.coeffs
    # an atom that is drawn 0 times, between two that are drawn
    zero = MixtureLaw(atoms=((F(1, 2), coeffs, None), (0, coeffs, None), (F(1, 2), coeffs, None)))
    for law in (product, mixture, zero):
        for seed in (0, 17):
            got = sample_limit(law, n, seed)
            assert np.array_equal(got, _concatenated_sample_limit(law, n, seed))


def test_sample_mixture_vs_sigma_aggregation(four_server):
    report, dag = _ctx(four_server)
    mix = mixture_law(four_server, report)
    agg = sigma_aggregate(mix, dag)
    a = sample_limit(mix, 100_000, seed=5)
    b = sample_limit(agg, 100_000, seed=6)
    for col in range(4):
        stat = scipy.stats.ks_2samp(a[:, col], b[:, col]).statistic
        crit = 1.628 * math.sqrt(2 / 100_000)
        assert stat < crit


# --- c.o.s. limit ---------------------------------------------------------------

def test_cos_general_t_zero(n_model):
    report, dag = _ctx(n_model)
    traj = default_trajectory(n_model, report.lambda_star)
    assert limiting_transform(dag, [F(0), F(0)], traj)[0] == 1


def test_cos_general_equals_coc_all_servers_busy(four_server):
    # every server is compatible with some type in every K-critical vector,
    # so the idle-vector sets are trivial and the c.o.s. form reduces to c.o.c.
    report, dag = _ctx(four_server)
    traj = default_trajectory(four_server, report.lambda_star)
    mix = mixture_law(four_server, report, traj)
    for t in ([F(1), F(0), F(0), F(0)], [F(1, 2)] * 4, [F(2), F(1), F(0), F(3)]):
        assert limiting_transform(dag, t, traj) == [laplace_of_mixture(mix, t)]


def test_cos_general_matches_product_n_model(n_model):
    report, dag = _ctx(n_model)
    traj = default_trajectory(n_model, report.lambda_star)
    grid = [F(i, 2) for i in range(5)]
    for t in itertools.product(grid, repeat=2):
        a = limiting_laplace(dag, t, traj)
        b = limiting_transform(dag, t, traj)[0]
        assert a == b


def test_cos_general_weak_crp_with_idle_servers():
    # type {1,2} is non-critical: server 1 can idle, E(T) is nontrivial for T=[{2}]
    model = SystemModel(mu=(F(1), F(1)), lam=F(1, 2),
                        job_types=(frozenset({1, 2}), frozenset({2})), p=(F(1, 4), F(3, 4)))
    report, dag = _ctx(model)
    traj = default_trajectory(model, report.lambda_star)
    for t in ([F(0), F(1)], [F(1), F(2)], [F(3), F(1, 2)]):
        a = limiting_laplace(dag, t, traj)
        b = limiting_transform(dag, t, traj)[0]
        assert a == b


# --- the product form needs laminar subtrees ------------------------------------

def test_diamond_mixture_is_the_true_limit(diamond):
    report, dag = _ctx(diamond)
    assert not dag.subtrees_laminar
    mix = mixture_law(diamond, report)
    t = [F(1), F(0), F(0)]
    mixture_value = laplace_of_mixture(mix, t)
    product_value = limiting_laplace(dag, t)
    assert mixture_value == F(5, 8)
    assert product_value == F(2, 3)
    assert mixture_value != product_value
    # the exact pre-limit PGF converges to the mixture value, not the product
    lam_star = float(report.lambda_star)
    errs_mix, errs_prod = [], []
    for eps in (1e-2, 1e-3, 1e-4):
        pre = diamond.as_float().with_lambda((1 - eps) * lam_star)
        z = [math.exp(-eps * float(ts)) for ts in t]
        val = pgf_coc(pre, z)
        errs_mix.append(abs(val - float(mixture_value)))
        errs_prod.append(abs(val - float(product_value)))
    assert errs_mix[0] > errs_mix[1] > errs_mix[2]
    assert errs_mix[-1] < 1e-3
    assert errs_prod[-1] > 0.04  # stays bounded away from the product form


def test_cos_general_equals_mixture_off_laminar(diamond):
    # the two disciplines coincide at the mixture level even when the
    # product form does not apply
    report, dag = _ctx(diamond)
    traj = default_trajectory(diamond, report.lambda_star)
    mix = mixture_law(diamond, report, traj)
    for t in ([F(1), F(0), F(0)], [F(1), F(2), F(3)], [F(1, 2), F(0), F(1)]):
        assert limiting_transform(dag, t, traj) == [laplace_of_mixture(mix, t)]


def test_cos_general_equals_mixture_random_models(rng):
    for _ in range(15):
        model = generators.random_stable_model(rng, max_servers=4, max_types=4,
                                               cover_all_servers=True)
        report = critical_rate_and_subsets_bruteforce(model)
        dag = crp_components(model, report.lambda_star)
        traj = default_trajectory(model, report.lambda_star)
        mix = mixture_law(model, report, traj)
        for _ in range(3):
            t = [rng.uniform(0.0, 3.0) for _ in model.type_indices]
            a = float(limiting_transform(dag, t, traj)[0])
            b = float(laplace_of_mixture(mix, t))
            assert abs(a - b) < 1e-10


def test_diamond_sigma_weights_disagree_with_beta_hat(diamond):
    report, dag = _ctx(diamond)
    agg = sigma_aggregate(mixture_law(diamond, report), dag)
    weights = {label: w for (w, _, label) in agg.atoms}
    assert sum(weights.values()) == 1
    formula = {sigma: beta_hat(dag, sigma) / beta_hat_sigma_k(dag)
               for sigma in dag.topo_orders}
    assert weights != formula  # the closed form is a laminar-only identity


# --- convergence of the pre-limit PGF -------------------------------------------

def test_pgf_converges_to_limit(n_model):
    report, dag = _ctx(n_model)
    t = [0.7, 1.3]
    target = float(limiting_laplace(dag, t))
    errs = []
    for ratio in (0.9, 0.99, 0.999):
        pre = n_model.as_float().with_lambda(ratio * float(report.lambda_star))
        z = [math.exp(-(1 - ratio) * ts) for ts in t]
        errs.append(abs(pgf_coc(pre, z) - target))
    assert errs[0] > errs[1] > errs[2]
