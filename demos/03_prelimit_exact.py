"""Exact pre-limit structure: configurations, geometric segments, moments.

The stationary queue vector decomposes by the ordered vector of first type
occurrences; conditionally, segments are independent geometrics split
multinomially. We print the segment parameters, cross-check the two
total-moment formulations, and compare exact samples against them.
"""
from fractions import Fraction as F

from redundancy_ht import SystemModel
from redundancy_ht.moments import moment_total
from redundancy_ht.oracles import config_prob, moment_total_alt, moments_identity
from redundancy_ht.prelimit import expected_type_counts, sample_prelimit, segment_law

model = SystemModel(
    mu=(F(1),) * 4, lam=F(1, 2),
    job_types=(frozenset({1}), frozenset({1, 2, 3}), frozenset({3}), frozenset({3, 4})),
    p=(F(1, 4), F(1, 4), F(1, 6), F(1, 3)))

T = (0, 2, 3, 1)  # first occurrences: {1}, {3}, {3,4}, {1,2,3}
print("configuration", [model.labels()[t] for t in T])
print("P(T) =", config_prob(model, T))
law = segment_law(model, T)
print("segment totals are geometric with parameters:",
      [str(b) for b in law.segment_params])
print("type marginal in segment 3 for the oldest type:", law.type_params[2][0])

print("\nn-th moments of the total number of jobs (two formulations):")
for n in (1, 2, 3):
    a, b = moment_total(model, n), moment_total_alt(model, n)
    print(f"  n={n}: {a} == {b}: {a == b}")

print("\nthe geometric-moment identity behind the equivalence, k=3, p=2/5:")
lhs, rhs = moments_identity(3, F(2, 5))
print(f"  Eulerian form {lhs} == composition form {rhs}")

x = sample_prelimit(model, "coc", 100_000, seed=7)
print("\nexact-sampler means per type:", [round(float(m), 3) for m in x.mean(axis=0)])
print("stationary means          :",
      [round(float(m), 3) for m in expected_type_counts(model)])
print("total: sampled", round(x.sum(axis=1).mean(), 3),
      " exact", round(float(moment_total(model, 1)), 3))
