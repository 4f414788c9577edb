"""Walk through the criticality analysis of two reference systems.

For each system we compute the critical arrival rate lambda*, list the
critical subsets of job types by brute force, and rebuild the same
collection from the max-flow component construction: components, overflow
DAG, topological orders and rooted subtrees.
"""
from fractions import Fraction as F

from redundancy_ht import (SystemModel, check_stability, critical_rate,
                           critical_rate_and_subsets_bruteforce, crp_components,
                           critical_subsets_via_construction)

systems = {
    "n-model (scenario III)": SystemModel(
        mu=(F(1), F(1)), lam=F(8, 10),
        job_types=(frozenset({1, 2}), frozenset({2})), p=(F(1, 2), F(1, 2))),
    "four-server system": SystemModel(
        mu=(F(1), F(1), F(1), F(1)), lam=F(1, 2),
        job_types=(frozenset({1}), frozenset({1, 2, 3}), frozenset({3}), frozenset({3, 4})),
        p=(F(1, 4), F(1, 4), F(1, 6), F(1, 3))),
}

for name, model in systems.items():
    print(f"\n=== {name} ===")
    print("types:", model.labels(), " p =", [str(x) for x in model.p])
    stable, witness = check_stability(model)
    print(f"stable at lambda={model.lam}: {stable}")

    report = critical_rate_and_subsets_bruteforce(model)
    print(f"lambda* = {report.lambda_star} (brute force) "
          f"= {critical_rate(model)} (parametric max-flow)")
    print(f"K = {report.depth_K}, class = {report.crp_class.value}")
    print("critical subsets (type indices):",
          sorted(sorted(s) for s in report.critical_subsets))

    dag = crp_components(model, report.lambda_star)
    for k, (comp, v) in enumerate(zip(dag.components, dag.subtree_types)):
        print(f"  component {k}: types {sorted(comp.types)} <-> servers {sorted(comp.servers)}"
              f"   subtree V_{k} = {sorted(v)} (p(V_{k}) = {model.p_of(v)})")
    print("overflow edges:", sorted(dag.edges))
    print("topological orders:", dag.topo_orders)
    built = critical_subsets_via_construction(dag)
    print("construction reproduces the brute-force collection:",
          built == report.critical_subsets)
