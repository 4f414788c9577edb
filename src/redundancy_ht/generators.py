"""Random instance generators for property tests and acceptance sweeps.

All generated models are exact-rational and stable by construction
(lambda is placed strictly inside the stability region).
"""
from __future__ import annotations

import random
from fractions import Fraction

from .criticality import ComponentDag, critical_rate, crp_components, report_from_construction
from .model import SystemModel


def random_stable_model(rng: random.Random, max_servers: int = 6, max_types: int = 6,
                        cover_all_servers: bool = False, load=Fraction(4, 5)) -> SystemModel:
    """A random stable system with rational rates and distinct job types."""
    n = rng.randint(2, max_servers)
    n_types = rng.randint(2, min(max_types, 2 ** n - 1))
    pool = list(range(1, n + 1))
    types = set()
    guard = 0
    while len(types) < n_types and guard < 500:
        guard += 1
        size = rng.randint(1, n)
        types.add(frozenset(rng.sample(pool, size)))
    types = sorted(types, key=lambda s: (len(s), sorted(s)))
    if cover_all_servers:
        covered = set().union(*types)
        missing = [s for s in pool if s not in covered]
        if missing:
            types.append(frozenset(missing))
    weights = [rng.randint(1, 9) for _ in types]
    total = sum(weights)
    p = tuple(Fraction(w, total) for w in weights)
    mu = tuple(Fraction(rng.randint(1, 8), rng.choice((1, 2))) for _ in range(n))
    probe = SystemModel(mu=mu, lam=Fraction(1), job_types=tuple(types), p=p)
    return probe.with_lambda(load * critical_rate(probe))


def random_laminar_model(rng: random.Random, max_servers: int = 5, max_types: int = 5,
                         max_k: int = 4, cover_all_servers: bool = False):
    """Sample stable models until the component subtrees are laminar and K <= max_k.

    Returns (model, report, dag).
    """
    while True:
        model = random_stable_model(rng, max_servers, max_types, cover_all_servers)
        dag = crp_components(model)
        if dag.K <= max_k and dag.subtrees_laminar:
            return model, report_from_construction(model, dag), dag


def forest_model(parent: dict, n_components: int, lam=Fraction(1, 2)) -> SystemModel:
    """A system whose component DAG realizes a given forest.

    One server and one job type per component; the type of component k is
    compatible with its own server and the servers of the components it
    overflows into (its children in `parent`: parent[j] = k means edge k->j).
    Unit speeds and uniform fractions make every type critical with
    lambda* = 1, each alone in a component with its own server.
    """
    children = {k: [] for k in range(n_components)}
    for child, par in parent.items():
        children[par].append(child)
    types = []
    for k in range(n_components):
        types.append(frozenset({k + 1} | {c + 1 for c in children[k]}))
    p = tuple(Fraction(1, n_components) for _ in range(n_components))
    mu = tuple(Fraction(1) for _ in range(n_components))
    return SystemModel(mu=mu, lam=lam, job_types=tuple(types), p=p)


def random_forest_dag(rng: random.Random, max_k: int = 6) -> ComponentDag:
    """A genuine ComponentDag whose overflow DAG is a random rooted forest."""
    k = rng.randint(1, max_k)
    parent = {}
    for j in range(k - 1):
        if rng.random() < 0.75:
            parent[j] = rng.randint(j + 1, k - 1)
    model = forest_model(parent, k)
    return crp_components(model)
