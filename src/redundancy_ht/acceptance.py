"""The acceptance battery: one self-contained check per shipped guarantee.

Each criterion returns (passed, detail); `run_criteria` times them and
prints one PASS/FAIL line per criterion. The pytest suite drives the same
functions, so `rht verify` and `pytest tests/test_acceptance.py` exercise
identical code.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction as F

from . import analytic, criticality, generators, moments, oracles, prelimit, simulator
from .model import SystemModel, default_trajectory


# --- reference systems ------------------------------------------------------

def four_server_example() -> SystemModel:
    """Four unit-speed servers; types {1},{1,2,3},{3},{3,4} with p=(1/4,1/4,1/6,1/3)."""
    return SystemModel(
        mu=(F(1), F(1), F(1), F(1)),
        lam=F(1, 2),
        job_types=(frozenset({1}), frozenset({1, 2, 3}), frozenset({3}), frozenset({3, 4})),
        p=(F(1, 4), F(1, 4), F(1, 6), F(1, 3)),
    )


def n_model_scenario_iii(lam=F(8, 10)) -> SystemModel:
    """Two unit-speed servers; types {1,2} and {2} with equal fractions (K=2)."""
    return SystemModel(mu=(F(1), F(1)), lam=lam,
                       job_types=(frozenset({1, 2}), frozenset({2})), p=(F(1, 2), F(1, 2)))


def _context(model):
    report = oracles.critical_rate_and_subsets_bruteforce(model)
    dag = criticality.crp_components(model, report.lambda_star)
    return report, dag


# --- criteria ----------------------------------------------------------------

def criterion_mixture_weights():
    """Four-server example: the K-critical mixture weights are exactly {4/9, 2/9, 2/9, 1/9}."""
    model = four_server_example()
    report, _ = _context(model)
    vecs = oracles.enumerate_k_critical(model, report, report.depth_K)
    got = {v.entries: oracles.p_star(model, report, v) for v in vecs}
    expected = {
        (0, 2, 3, 1): F(4, 9),
        (0, 3, 2, 1): F(2, 9),
        (2, 3, 0, 1): F(2, 9),
        (3, 2, 0, 1): F(1, 9),
    }
    ok = got == expected and sum(got.values()) == 1
    return ok, f"weights {sorted(got.values(), reverse=True)}"


def criterion_limit_law_matrix():
    """Four-server example: the limit-law matrix is exactly the known rational matrix."""
    _, dag = _context(four_server_example())
    law = analytic.limit_law(dag)
    expected = (
        (F(1), 0, 0, 0),
        (0, 0, F(1, 3), F(2, 3)),
        (F(1, 4), F(1, 4), F(1, 6), F(1, 3)),
    )
    ok = law.coeffs == expected
    return ok, f"rows {law.coeffs}"


def criterion_sigma_aggregation():
    """Sigma-aggregated weights {2/3, 1/3} with beta-hat values 16/3, 8/3 and 8."""
    model = four_server_example()
    report, dag = _context(model)
    mix = oracles.mixture_law(model, report)
    agg = oracles.sigma_aggregate(mix, dag)
    weights = {label: w for (w, _, label) in agg.atoms}
    bh = {sigma: oracles.beta_hat(dag, sigma) for sigma in dag.topo_orders}
    bhk = oracles.beta_hat_sigma_k(dag)
    ok = (weights == {(0, 1, 2): F(2, 3), (1, 0, 2): F(1, 3)}
          and bh == {(0, 1, 2): F(16, 3), (1, 0, 2): F(8, 3)}
          and bhk == F(8)
          and all(weights[s] == bh[s] / bhk for s in bh))
    return ok, f"weights {weights}, beta_hat {bh}, beta_hat(Sigma_K) {bhk}"


def criterion_laplace_equality():
    """Mixture and product Laplace forms: exact on a 5^4 rational grid, 1e-10 on random models."""
    model = four_server_example()
    report, dag = _context(model)
    mix = oracles.mixture_law(model, report)
    grid = [F(i) for i in range(5)]
    checked = 0
    for t in itertools.product(grid, repeat=4):
        a = oracles.laplace_of_mixture(mix, t)
        b = analytic.limiting_laplace(dag, t)
        if a != b:
            return False, f"exact mismatch at t={t}: {a} vs {b}"
        checked += 1
    rng = random.Random(20240)
    worst = 0.0
    for _ in range(50):
        m, rep, dg = generators.random_laminar_model(rng, max_servers=5, max_types=5, max_k=4)
        mx = oracles.mixture_law(m, rep)
        for _ in range(5):
            t = [rng.uniform(0.0, 4.0) for _ in m.type_indices]
            diff = abs(float(oracles.laplace_of_mixture(mx, t))
                       - float(analytic.limiting_laplace(dg, t)))
            worst = max(worst, diff)
    ok = worst < 1e-10
    return ok, f"{checked} exact grid points equal; float worst diff {worst:.2e} over 50 models"


def criterion_construction_equivalence():
    """Brute-force and construction critical-subset sets agree on 200 random stable models."""
    rng = random.Random(31337)
    for i in range(200):
        model = generators.random_stable_model(rng, max_servers=6, max_types=6)
        report = oracles.critical_rate_and_subsets_bruteforce(model)
        dag = criticality.crp_components(model, report.lambda_star)
        built = criticality.critical_subsets_via_construction(dag)
        if built != report.critical_subsets:
            return False, f"mismatch on model #{i}: {model}"
        if dag.K != report.depth_K:
            return False, f"component count {dag.K} != depth {report.depth_K} on model #{i}"
    return True, "200 random models, exact equality (and K == depth)"


def criterion_nested_sum_identity():
    """Exact prefix-sum identity on 200 random (forest DAG, rational c) instances."""
    rng = random.Random(4242)
    for i in range(200):
        dag = generators.random_forest_dag(rng, max_k=6)
        c = [F(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(dag.K)]
        lhs, rhs = oracles.nested_sum_identity(c, dag)
        if lhs != rhs:
            return False, f"identity failed on instance #{i} (K={dag.K})"
    return True, "200 random forest DAGs, exact equality"


def criterion_moment_identities():
    """Geometric-moment identity for k <= 8 and total-moment formulation equivalence."""
    for k in range(1, 9):
        for num in range(1, 10):
            lhs, rhs = oracles.moments_identity(k, F(num, 10))
            if lhs != rhs:
                return False, f"identity failed at k={k}, p={num}/10"
    rng = random.Random(99)
    for i in range(50):
        model = generators.random_stable_model(rng, max_servers=5, max_types=4)
        for n in range(1, 5):
            a = moments.moment_total(model, n)
            b = oracles.moment_total_alt(model, n)
            if a != b:
                return False, f"formulations disagree on model #{i}, n={n}: {a} vs {b}"
    return True, "k <= 8 identity and 50 random models (n <= 4), exact"


def criterion_erlang_moments():
    """Scenario-III scaled total moments approach (n+1)! with error < 5*eps at eps=1e-3."""
    model = n_model_scenario_iii()
    report, _ = _context(model)
    lam_star = report.lambda_star
    details = []
    for n in (1, 2, 3):
        target = moments.limit_moment_total(report.depth_K, n)
        rels = []
        for eps in (F(1, 10), F(1, 100), F(1, 1000)):
            val = moments.scaled_total_moment(model, lam_star, eps, n)
            rels.append(abs(val - target) / target)
        if not (rels[0] > rels[1] > rels[2]):
            return False, f"n={n}: error sequence not decreasing: {[float(r) for r in rels]}"
        if not rels[2] < F(5, 1000):
            return False, f"n={n}: relative error {float(rels[2])} >= 5e-3"
        details.append(f"n={n}: {float(rels[2]):.2e}")
    return True, "; ".join(details) + " (rel. err at eps=1e-3)"


def criterion_pgf_convergence():
    """|pgf - limiting Laplace| decreases along lam/lam* in {0.9, 0.99, 0.999}."""
    rng = random.Random(5150)
    for name, model in (("n-model", n_model_scenario_iii()),
                        ("four-server", four_server_example())):
        report, dag = _context(model)
        lam_star = float(report.lambda_star)
        tpoints = [[rng.uniform(0.1, 3.0) for _ in model.type_indices] for _ in range(10)]
        for t in tpoints:
            target = float(analytic.limiting_laplace(dag, t))
            errs = []
            for ratio in (0.9, 0.99, 0.999):
                eps = 1.0 - ratio
                pre = model.as_float().with_lambda(ratio * lam_star)
                z = [math.exp(-eps * ts) for ts in t]
                errs.append(abs(float(analytic.pgf_coc(pre, z)) - target))
            if not errs[0] > errs[1] > errs[2]:
                return False, f"{name}: errors not monotone at t={t}: {errs}"
    return True, "monotone at 10 t-points for both reference systems"


def criterion_simulation_convergence():
    """Scenario III at eps=0.02: scaled means within 10%, total KS below critical,
    KS sequence decreasing over eps in {0.1, 0.05, 0.02}."""
    _, dag = _context(n_model_scenario_iii())
    rows = simulator.scaled_law_check(dag, "coc", eps_values=[0.1, 0.05, 0.02],
                                      events_per_eps=[400_000, 1_600_000, 40_000_000], seed=7)
    final = rows[-1]
    mean_12, mean_2 = final.mean_scaled
    if abs(mean_12 - 0.5) > 0.05:
        return False, f"E[eps*Q_{{1,2}}] = {mean_12:.4f} not within 10% of 0.5"
    if abs(mean_2 - 1.5) > 0.15:
        return False, f"E[eps*Q_{{2}}] = {mean_2:.4f} not within 10% of 1.5"
    if final.ks_total >= final.ks_total_critical:
        return False, (f"total KS {final.ks_total:.4f} >= critical "
                       f"{final.ks_total_critical:.4f} at eps=0.02")
    seq = [r.ks_total for r in rows]
    if not (seq[0] > seq[1] > seq[2]):
        return False, f"KS sequence not decreasing: {seq}"
    return True, (f"means ({mean_12:.3f}, {mean_2:.3f}); KS sequence "
                  + " > ".join(f"{k:.4f}" for k in seq)
                  + f"; critical {final.ks_total_critical:.4f}")


def criterion_product_form_oracle():
    """Truncated-CTMC solve vs product form (TV < 1e-6) plus exact segment parameters."""
    nmod = n_model_scenario_iii(lam=F(1, 2))
    _, _, tv = oracles.ctmc_oracle(nmod, "coc", truncation_len=12)
    if not tv < 1e-6:
        return False, f"total-variation distance {tv:.2e} >= 1e-6"
    model = four_server_example()  # lam = mu/2
    law = prelimit.segment_law(model, (0, 2, 3, 1))
    ok_seg = (law.segment_params[1] == F(5, 12)  # 5*lam/(6*mu) at lam/mu = 1/2
              and law.type_params[2][0] == F(1, 4))  # lam/(3*mu - 2*lam)
    h = oracles.h_term(model, (0, 2, 3, 1), [F(1)] * 4)
    ok_h = h == F(2, 63)
    ok = ok_seg and ok_h
    return ok, (f"TV {tv:.2e}; segment params ({law.segment_params[1]}, "
                f"{law.type_params[2][0]}); unnormalized config weight {h}")


def criterion_coc_cos_coincidence():
    """c.o.c. product form equals the c.o.s. limiting transform on t-grids."""
    model = n_model_scenario_iii()
    report, dag = _context(model)
    traj = default_trajectory(model, report.lambda_star)
    grid = [F(i, 2) for i in range(5)]
    worst = 0.0
    for t in itertools.product(grid, repeat=2):
        a = analytic.limiting_laplace(dag, t, traj)
        b = analytic.limiting_transform(dag, t, traj)[0]
        worst = max(worst, abs(float(a - b)))
    rng = random.Random(777)
    while True:
        m, rep, dg = generators.random_laminar_model(rng, max_servers=4, max_types=4,
                                                     max_k=2, cover_all_servers=True)
        if rep.depth_K == 2:
            break
    tr = default_trajectory(m, rep.lambda_star)
    for _ in range(25):
        t = [rng.uniform(0.0, 4.0) for _ in m.type_indices]
        a = float(analytic.limiting_laplace(dg, t, tr))
        b = float(analytic.limiting_transform(dg, t, tr)[0])
        worst = max(worst, abs(a - b))
    ok = worst < 1e-10
    return ok, f"worst |coc - cos| = {worst:.2e} (n-model grid + random K=2 model)"


CRITERIA = (
    ("mixture-weights", criterion_mixture_weights),
    ("limit-law-matrix", criterion_limit_law_matrix),
    ("sigma-aggregation", criterion_sigma_aggregation),
    ("laplace-equality", criterion_laplace_equality),
    ("construction-equivalence", criterion_construction_equivalence),
    ("nested-sum-identity", criterion_nested_sum_identity),
    ("moment-identities", criterion_moment_identities),
    ("erlang-moments", criterion_erlang_moments),
    ("pgf-convergence", criterion_pgf_convergence),
    ("simulation-convergence", criterion_simulation_convergence),
    ("product-form-oracle", criterion_product_form_oracle),
    ("coc-cos-coincidence", criterion_coc_cos_coincidence),
)


def run_criteria(names=None, out=print):
    """Run the requested criteria (all by default); returns the failure count."""
    failures = 0
    for name, fn in CRITERIA:
        if names and name not in names:
            continue
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        out(f"{status} {name} ({elapsed:.1f}s): {detail}")
        failures += 0 if ok else 1
    return failures
