"""Discrete-event simulation against the analytics, at desk scale.

Simulates the n-model under both redundancy variants, checks the
time-average queue lengths against the exact stationary means, runs the
truncated-chain oracle against the product form, and watches the scaled
queue vector approach its limit law along an epsilon-grid.
"""
from fractions import Fraction as F

import numpy as np

from redundancy_ht import (SystemModel, critical_rate_and_subsets_bruteforce,
                           crp_components, ctmc_oracle, scaled_law_check, simulate)
from redundancy_ht.moments import moment_total
from redundancy_ht.prelimit import expected_type_counts

model = SystemModel(mu=(F(1), F(1)), lam=F(8, 10),
                    job_types=(frozenset({1, 2}), frozenset({2})), p=(F(1, 2), F(1, 2)))
report = critical_rate_and_subsets_bruteforce(model)
dag = crp_components(model, report.lambda_star)

print("=== time averages at lambda = 0.8 ===")
for discipline in ("coc", "cos"):
    est = simulate(model, discipline, horizon_events=300_000, seed=1)
    exact = float(moment_total(model, 1, discipline))
    print(f"{discipline}: simulated total {est.time_avg_total:.3f} "
          f"(exact {exact:.3f}), per type {np.round(est.time_avg, 3)} "
          f"+- {np.round(est.half_width, 3)}")
print("exact per-type means (coc):",
      [round(float(x), 3) for x in expected_type_counts(model)])

print("\n=== truncated-chain oracle vs product form (lambda = 1/2) ===")
pi, pf, tv = ctmc_oracle(model.with_lambda(F(1, 2)), "coc", truncation_len=12)
print(f"total-variation distance over {len(pi)} states: {tv:.2e}")

print("\n=== scaled queue vector vs the K=2 limit law ===")
rows = scaled_law_check(dag, "coc", eps_values=[0.2, 0.1, 0.05],
                        events_per_eps=[150_000, 300_000, 800_000], seed=3)
for r in rows:
    print(f"eps={r.eps}: KS(total vs Erlang(1,2) draws) = {r.ks_total:.4f} "
          f"(critical {r.ks_total_critical:.4f}), scaled means {np.round(r.mean_scaled, 3)}")
print("limit says scaled means -> (0.5, 1.5) and KS distances shrink with eps")
