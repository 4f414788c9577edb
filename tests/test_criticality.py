import itertools
import math
import random
from fractions import Fraction as F

import pytest

from redundancy_ht import SystemModel, generators
from redundancy_ht.criticality import (ComponentDag, CrpClass, _FlowNet, _saturate,
                                       critical_rate, critical_subsets_via_construction,
                                       crp_components, require_stable)
from redundancy_ht.errors import CapExceeded, DomainError
from redundancy_ht.oracles import check_stability, critical_rate_and_subsets_bruteforce


def _report_and_dag(model):
    report = critical_rate_and_subsets_bruteforce(model)
    return report, crp_components(model, report.lambda_star)


def test_stability_n_model_stable():
    model = SystemModel(mu=(F(1), F(1)), lam=F(9, 10),
                        job_types=(frozenset({1, 2}), frozenset({2})), p=(F(1, 2), F(1, 2)))
    stable, witness = check_stability(model)
    assert stable and witness is None


def test_stability_boundary_unstable():
    model = SystemModel(mu=(F(1), F(1)), lam=F(1),
                        job_types=(frozenset({1, 2}), frozenset({2})), p=(F(1, 2), F(1, 2)))
    stable, witness = check_stability(model)
    assert not stable
    assert witness == frozenset({1})  # the type-{2} singleton hits equality first


def test_stability_mm1(mm1):
    assert check_stability(mm1) == (True, None)


def test_bruteforce_four_server(four_server):
    report = critical_rate_and_subsets_bruteforce(four_server)
    assert report.lambda_star == 1
    assert report.depth_K == 3
    assert report.crp_class is CrpClass.NON_CRP
    expected = {frozenset({0}), frozenset({2, 3}), frozenset({0, 2, 3}),
                frozenset({0, 1, 2, 3})}
    assert report.critical_subsets == expected


def test_bruteforce_strong_crp():
    # scenario I: complete sharing keeps the whole set as the only critical subset
    model = SystemModel(mu=(F(1), F(1)), lam=F(1, 2),
                        job_types=(frozenset({1, 2}), frozenset({2})), p=(F(3, 4), F(1, 4)))
    report = critical_rate_and_subsets_bruteforce(model)
    assert report.crp_class is CrpClass.STRONG_CRP
    assert report.lambda_star == 1  # mu_bar
    assert report.depth_K == 1
    assert report.critical_subsets == {frozenset({0, 1})}


def test_bruteforce_scenario_iii(n_model):
    report = critical_rate_and_subsets_bruteforce(n_model)
    assert report.critical_subsets == {frozenset({1}), frozenset({0, 1})}
    assert report.depth_K == 2
    assert report.crp_class is CrpClass.NON_CRP


def test_bruteforce_cap():
    types = tuple(frozenset(s) for k in (1, 2, 3)
                  for s in itertools.combinations(range(1, 8), k))[:21]
    model = SystemModel(mu=tuple(F(1) for _ in range(7)), lam=F(1, 100),
                        job_types=types, p=tuple(F(1, 21) for _ in types))
    with pytest.raises(CapExceeded):
        critical_rate_and_subsets_bruteforce(model)


def test_dinkelbach_matches_bruteforce(rng):
    for _ in range(60):
        model = generators.random_stable_model(rng, max_servers=6, max_types=6)
        report = critical_rate_and_subsets_bruteforce(model)
        assert critical_rate(model) == report.lambda_star


def _max_flow_says_stable(model):
    try:
        require_stable(model)
    except DomainError:
        return False
    return True


def test_require_stable_matches_subset_scan(rng):
    for _ in range(60):
        model = generators.random_stable_model(rng, max_servers=6, max_types=6)
        lam_star = critical_rate(model)
        cases = [model.with_lambda(lam_star)]
        for load in (F(1, 2), F(999, 1000), F(1001, 1000)):
            exact = model.with_lambda(load * lam_star)
            cases += [exact, exact.as_float()]
        for case in cases:
            assert _max_flow_says_stable(case) == check_stability(case)[0]


def test_require_stable_decides_floats_exactly(rng):
    # at float(lambda*) a float subset scan depends on rounding; the decision
    # must equal the scan of the float inputs taken exactly
    for _ in range(30):
        fm = generators.random_stable_model(rng, max_servers=5, max_types=5).as_float()
        lam = float(critical_rate(fm))
        for case in (fm.with_lambda(x) for x in (math.nextafter(lam, 0), lam,
                                                 math.nextafter(lam, 2 * lam))):
            n = case.n_servers
            exact_scan = all(
                n * F(case.lam) * sum(F(case.p[t]) for t in sub)
                < sum(F(case.mu[s - 1]) for s in case.servers_of(sub))
                for k in range(1, case.n_types + 1)
                for sub in itertools.combinations(case.type_indices, k))
            assert _max_flow_says_stable(case) == exact_scan


def test_components_four_server(four_server):
    report, dag = _report_and_dag(four_server)
    comps = {(tuple(sorted(c.types)), tuple(sorted(c.servers))) for c in dag.components}
    assert comps == {((0,), (1,)), ((2, 3), (3, 4)), ((1,), (2,))}
    assert sorted(dag.edges) == [(2, 0), (2, 1)]
    assert dag.topo_orders == ((0, 1, 2), (1, 0, 2))
    assert [sorted(v) for v in dag.subtree_types] == [[0], [2, 3], [0, 1, 2, 3]]
    assert dag.subtrees_laminar


def test_components_scenario_iii(n_model):
    report, dag = _report_and_dag(n_model)
    comps = [(tuple(sorted(c.types)), tuple(sorted(c.servers))) for c in dag.components]
    assert comps == [((1,), (2,)), ((0,), (1,))]
    assert dag.edges == frozenset({(1, 0)})
    assert dag.topo_orders == ((0, 1),)  # the {2}-component must come first


def test_components_complete_partitioning():
    n = 4
    model = SystemModel(mu=tuple(F(1) for _ in range(n)), lam=F(1, 2),
                        job_types=tuple(frozenset({i + 1}) for i in range(n)),
                        p=tuple(F(1, n) for _ in range(n)))
    report, dag = _report_and_dag(model)
    assert dag.K == n
    assert not dag.edges
    assert len(dag.topo_orders) == math.factorial(n)
    assert all(len(v) == 1 for v in dag.subtree_types)


def test_construction_four_server(four_server):
    report, dag = _report_and_dag(four_server)
    assert critical_subsets_via_construction(dag) == report.critical_subsets


def test_construction_scenario_iii(n_model):
    report, dag = _report_and_dag(n_model)
    assert critical_subsets_via_construction(dag) == {frozenset({1}), frozenset({0, 1})}


def test_construction_single_component(mm1):
    report, dag = _report_and_dag(mm1)
    assert dag.K == 1
    assert critical_subsets_via_construction(dag) == {frozenset({0})}


def test_prefix_nesting_and_full_set(four_server):
    report, dag = _report_and_dag(four_server)
    for sigma in dag.topo_orders:
        prefixes = []
        acc = set()
        for i in sigma:
            acc |= dag.components[i].types
            prefixes.append(frozenset(acc))
        for a, b in zip(prefixes, prefixes[1:]):
            assert a < b
        # lambda* equals mu_bar here, so the last prefix is the full type set
        assert prefixes[-1] == frozenset(four_server.type_indices)


def test_intersection_closure(rng):
    for _ in range(40):
        model = generators.random_stable_model(rng, max_servers=5, max_types=5)
        report = critical_rate_and_subsets_bruteforce(model)
        for a in report.critical_subsets:
            for b in report.critical_subsets:
                inter = a & b
                assert not inter or inter in report.critical_subsets


def test_crp_class_iff_depth_one(rng):
    for _ in range(60):
        model = generators.random_stable_model(rng, max_servers=5, max_types=5)
        report = critical_rate_and_subsets_bruteforce(model)
        assert (report.crp_class in (CrpClass.STRONG_CRP, CrpClass.WEAK_CRP)) == \
            (report.depth_K == 1)


def _relabelled(model, rng):
    """The model with its type order and server ids shuffled, and the maps
    from the new type indices and server ids back to the old ones."""
    old_type = list(model.type_indices)
    rng.shuffle(old_type)
    new_server = list(range(1, model.n_servers + 1))
    rng.shuffle(new_server)  # new_server[srv - 1] is old server srv's id
    old_server = {new: old for old, new in enumerate(new_server, start=1)}
    relabelled = SystemModel(
        mu=tuple(model.mu[old_server[srv] - 1] for srv in range(1, model.n_servers + 1)),
        lam=model.lam,
        job_types=tuple(frozenset(new_server[srv - 1] for srv in model.job_types[t])
                        for t in old_type),
        p=tuple(model.p[t] for t in old_type))
    return relabelled, old_type, old_server


def _flow_solution(model, lam):
    """Max flow at arrival rates N*lam*p_S: its value and positive type->server flows."""
    net = _saturate(model, lam)[0]
    # reverse capacity == pushed flow
    value = sum(net.cap[(("t", t), "src")] for t in model.type_indices)
    pushed = {(t, srv): net.cap[(("s", srv), ("t", t))]
              for t in model.type_indices for srv in model.job_types[t]}
    return value, {edge: f for edge, f in pushed.items() if f > 0}


def test_flow_choice_invariance(rng):
    # relabelling changes the order in which the max flow augments, and so
    # often the flow it finds, but never the component partition
    flows_differ = 0
    for _ in range(200):
        model = generators.random_stable_model(rng, max_servers=6, max_types=6)
        relabelled, old_type, old_server = _relabelled(model, rng)
        lam_star = critical_rate(model)
        assert critical_rate(relabelled) == lam_star
        value, flows = _flow_solution(model, lam_star)
        other_value, other_flows = _flow_solution(relabelled, lam_star)
        assert other_value == value
        flows_differ += {(old_type[t], old_server[srv]): f
                         for (t, srv), f in other_flows.items()} != flows
        parts = {(c.types, c.servers) for c in crp_components(model, lam_star).components}
        other_parts = {(frozenset(old_type[t] for t in c.types),
                        frozenset(old_server[srv] for srv in c.servers))
                       for c in crp_components(relabelled, lam_star).components}
        assert other_parts == parts
    assert flows_differ > 0


def test_non_critical_type_joins_no_component():
    # weak CRP: only the {2}-singleton is critical; type {1,2} joins no component
    model = SystemModel(mu=(F(1), F(1)), lam=F(1, 2),
                        job_types=(frozenset({1, 2}), frozenset({2})), p=(F(1, 4), F(3, 4)))
    report, dag = _report_and_dag(model)
    assert report.crp_class is CrpClass.WEAK_CRP
    assert dag.K == 1
    assert dag.components[0].types == frozenset({1})
    assert all(0 not in v for v in dag.subtree_types)


def test_diamond_not_laminar(diamond):
    report, dag = _report_and_dag(diamond)
    assert report.depth_K == 3 and dag.K == 3
    assert critical_subsets_via_construction(dag) == report.critical_subsets
    assert not dag.subtrees_laminar


def test_requires_exact_model(n_model):
    with pytest.raises(Exception):
        critical_rate_and_subsets_bruteforce(n_model.as_float())


def test_topo_orders_match_permutation_filter(rng):
    """The maximal chains of the down-set lattice are exactly the permutations
    that put every overflow target first, in the same lexicographic order."""
    dags = [generators.random_forest_dag(rng, max_k=6) for _ in range(30)]
    dags += [crp_components(generators.random_stable_model(rng, max_servers=5, max_types=5))
             for _ in range(30)]
    for dag in dags:
        want = tuple(sigma for sigma in itertools.permutations(range(dag.K))
                     if all(sigma.index(j) < sigma.index(i) for (i, j) in dag.edges))
        assert dag.topo_orders == want
        assert len(dag.down_sets) == len({frozenset(sigma[:m]) for sigma in want
                                          for m in range(dag.K + 1)})
    assert max(dag.K for dag in dags) >= 4


def _tie_heavy_model(rng):
    """3-6 servers of speed 1 or 2, 2-7 distinct types of 1-3 servers and
    uniform p at 4/5 lambda*: equal ratios make several components common."""
    n = rng.randint(3, 6)
    n_types = rng.randint(2, 7)
    types = set()
    while len(types) < n_types:
        types.add(frozenset(rng.sample(range(1, n + 1), rng.randint(1, 3))))
    probe = SystemModel(mu=tuple(F(rng.choice((1, 1, 2))) for _ in range(n)), lam=F(1),
                        job_types=tuple(sorted(types, key=sorted)),
                        p=tuple(F(1, n_types) for _ in types))
    return probe.with_lambda(F(4, 5) * critical_rate(probe))


def test_components_match_critical_subset_definition():
    # V(t) is the smallest critical subset holding t; the component of t is
    # V(t) less the critical subsets strictly inside it, with the servers
    # only V(t) uses, and V(t) is that component's rooted subtree
    rng = random.Random(11)
    several = 0
    for _ in range(300):
        model = _tie_heavy_model(rng)
        report = critical_rate_and_subsets_bruteforce(model)
        dag = crp_components(model, report.lambda_star)
        want = set()
        for t in frozenset().union(*report.critical_subsets):
            v = frozenset.intersection(*(a for a in report.critical_subsets if t in a))
            inner = frozenset().union(*(a for a in report.critical_subsets if a < v))
            want.add((v - inner, model.servers_of(v) - model.servers_of(inner), v))
        assert {(comp.types, comp.servers, v)
                for comp, v in zip(dag.components, dag.subtree_types)} == want
        several += dag.K >= 2
    assert several >= 100  # 103 of these 300 models have K >= 2


def test_dag_fields_match_their_definitions():
    # on the same 300 models: edges are the type-to-server compatibility
    # relation between components, each subtree_types entry is the union of
    # the components inside it, and the components ascend by (subtree size,
    # smallest type)
    rng = random.Random(11)
    for _ in range(300):
        model = _tie_heavy_model(rng)
        dag = crp_components(model, critical_rate(model))
        comps = dag.components
        assert dag.edges == {(i, j) for i, ci in enumerate(comps) for j, cj in enumerate(comps)
                             if i != j and model.servers_of(ci.types) & cj.servers}
        inside = [[c for c in comps if c.types <= v] for v in dag.subtree_types]
        assert all(frozenset().union(*(c.types for c in cs)) == v
                   for cs, v in zip(inside, dag.subtree_types))
        keys = [(len(cs), min(comp.types)) for cs, comp in zip(inside, comps)]
        assert keys == sorted(keys)


def test_dag_stores_edges_and_subtree_types_only():
    # precedence masks and subtree component sets are derived from these
    assert ComponentDag._fields == ("model", "lambda_star", "components", "edges",
                                    "subtree_types")


def test_components_search_the_residual_graph_1_plus_2k_times(monkeypatch):
    calls = []
    real = _FlowNet.reachable
    monkeypatch.setattr(_FlowNet, "reachable", lambda net, start, backward=False:
                        calls.append(start) or real(net, start, backward))
    rng = random.Random(12)
    shared = 0
    for _ in range(60):
        model = _tie_heavy_model(rng)
        lam_star = critical_rate(model)
        del calls[:]
        dag = crp_components(model, lam_star)
        assert len(calls) == 1 + 2 * dag.K
        shared += any(len(comp.types) > 1 for comp in dag.components)
    assert shared > 0  # one search per critical type would miss the count here


def test_saturate_cuts_off_the_critical_types():
    # the residual test against the subset scan: at lambda* the flow routes
    # and cuts off the union of the critical subsets, just below it it cuts
    # off nothing, and just above it it does not route
    rng = random.Random(13)
    models = [generators.random_stable_model(rng, max_servers=6, max_types=6)
              for _ in range(60)] + [_tie_heavy_model(rng) for _ in range(60)]
    for model in models:
        report = critical_rate_and_subsets_bruteforce(model)
        lam_star = report.lambda_star
        _, routed, cut_off = _saturate(model, lam_star)
        assert routed and cut_off == frozenset().union(*report.critical_subsets)
        assert _saturate(model, lam_star * (1 - F(1, 1000)))[1:] == (True, frozenset())
        assert not _saturate(model, lam_star * (1 + F(1, 1000)))[1]


def test_one_max_flow_per_question(monkeypatch):
    # crp_components reads the components from Dinkelbach's last flow, and
    # require_stable decides a stable model with one flow
    flows = []
    real = _FlowNet.max_flow
    monkeypatch.setattr(_FlowNet, "max_flow", lambda net: flows.append(net) or real(net))
    rng = random.Random(14)
    iterations = []
    for _ in range(80):
        model = generators.random_stable_model(rng, max_servers=6, max_types=6)
        del flows[:]
        critical_rate(model)
        iterations.append(len(flows))
        del flows[:]
        crp_components(model)
        assert len(flows) == iterations[-1]
        del flows[:]
        require_stable(model)
        assert len(flows) == 1
    assert max(iterations) >= 2  # so the count covers more than one Dinkelbach step
