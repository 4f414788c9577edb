"""Criticality analysis: stability, lambda*, critical subsets, CRP components and their DAG.

Every criticality question is one residual test on one maximum flow
(`_saturate`): which job types cannot reach the sink. At the model's lambda
it decides stability (`require_stable`); in Dinkelbach iteration
(`critical_rate`) their ratio is the next guess for lambda*; at lambda* they
are the critical types, and `crp_components` reads the CRP components and
their rooted subtrees from searches in that same residual graph. One
breadth-first search (`_FlowNet._search`) finds both the flow's augmenting
paths and those reachable sets. The down-sets of the component DAG give the
critical subsets, and topological orders are listed on demand.

The scans of all 2^|S|-1 nonempty type subsets (`check_stability`,
`critical_rate_and_subsets_bruteforce`) are the literal definitions; they
live in `oracles`, for the tests, the demos and the acceptance battery.

All structural decisions (equalities like N*lambda* p(T) = mu(T)) are made in
exact rational arithmetic. `critical_rate` and `require_stable` take float
models exactly (each number through Fraction(x)); the component construction
and the brute-force scan reject them.
"""
from __future__ import annotations

import itertools
from collections import deque
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import CapExceeded, ConsistencyError, DomainError, ModelError
from .model import Record, Scalar, SystemModel

ORDER_CAP = 10_000  # refuse listing more topological orders of the component DAG
SUBSET_CAP = 14  # refuse lattices of more than 2^SUBSET_CAP type, server or down-sets


class CrpClass(Enum):
    STRONG_CRP = "StrongCRP"
    WEAK_CRP = "WeakCRP"
    NON_CRP = "NonCRP"


class CriticalityReport(Record):
    lambda_star: Scalar
    critical_subsets: frozenset  # frozenset of frozensets of type indices
    depth_K: int
    crp_class: CrpClass


class CrpComponent(Record):
    types: frozenset  # job-type indices C_k
    servers: frozenset  # server ids Z_k


class ComponentDag(Record):
    """CRP components with overflow edges, precedence masks and rooted subtrees.

    Components are canonically ordered ascending by (subtree size, min type
    index), which is itself a valid reverse-topological order: every edge
    (i, j) has j < i.
    """

    model: SystemModel
    lambda_star: Scalar
    components: tuple  # tuple of CrpComponent
    edges: frozenset  # (i, j): some type in C_i is compatible with a server in Z_j
    before: tuple  # per component i: bitmask of the j with (i, j) in edges, which sigma puts first
    subtree_nodes: tuple  # per component: frozenset of component indices in its rooted subtree
    subtree_types: tuple  # per component: V_k as frozenset of type indices

    @property
    def K(self) -> int:
        return len(self.components)

    def p_subtree(self, k: int) -> Scalar:
        return self.model.p_of(self.subtree_types[k])

    def gamma_subtree(self, k: int, traj) -> Scalar:
        return traj.gamma_of(self.subtree_types[k])

    @cached_property
    def down_sets(self) -> tuple:
        """Every down-set (holding before[i] for each of its i), the sets of
        components some sigma places first, as bitmasks by size then value;
        breadth-first, refusing beyond 2^SUBSET_CAP sets."""
        level, out = [0], [0]
        while level:
            level = sorted({d | 1 << i for d in level for i in range(self.K)
                            if not d >> i & 1 and self.before[i] & ~d == 0})
            out += level
            if len(out) > 1 << SUBSET_CAP:
                raise CapExceeded(f"K={self.K} components have more than 2^{SUBSET_CAP} down-sets")
        return tuple(out)

    @cached_property
    def topo_orders(self) -> tuple:
        """Every sigma in Sigma_K (a maximal chain of the down-set lattice) in
        lexicographic order; refuses beyond ORDER_CAP (K independent
        components have K! orders)."""
        ideals, chains = set(self.down_sets), [((), 0)]
        for _ in range(self.K):  # a chain's prefixes: each extends to at least one order
            chains = [(sigma + (i,), d | 1 << i) for sigma, d in chains
                      for i in range(self.K) if not d >> i & 1 and d | 1 << i in ideals]
            if len(chains) > ORDER_CAP:
                raise CapExceeded(
                    f"K={self.K} components have more than {ORDER_CAP} topological orders")
        return tuple(sigma for sigma, _ in chains)

    @property
    def subtrees_laminar(self) -> bool:
        """True when any two rooted subtrees are nested or disjoint.

        The subtree product form of the limit law (and the nested-sum
        identity behind it) is valid exactly in this case; two incomparable
        components sharing a descendant break it.
        """
        sets = self.subtree_nodes
        for a, b in itertools.combinations(sets, 2):
            inter = a & b
            if inter and inter != a and inter != b:
                return False
        return True


def _require_exact(model: SystemModel, what: str):
    if not model.exact:
        raise ModelError(f"{what} requires an exact-rational model (criticality is an equality test)")


def _classify(critical_subsets, n_types: int) -> CrpClass:
    if len(critical_subsets) > 1:
        return CrpClass.NON_CRP
    (only,) = critical_subsets
    return CrpClass.STRONG_CRP if len(only) == n_types else CrpClass.WEAK_CRP


# ---------------------------------------------------------------------------
# Exact max flow (Edmonds-Karp on rational capacities) and its residual cut
# ---------------------------------------------------------------------------

_SRC, _SNK = "src", "snk"


class _FlowNet:
    def __init__(self):
        self.adj = {}  # node -> list of neighbor nodes
        self.cap = {}  # (u, v) -> residual capacity

    def add_edge(self, u, v, capacity):
        self.adj.setdefault(u, []).append(v)
        self.adj.setdefault(v, []).append(u)
        self.cap[(u, v)] = capacity
        self.cap[(v, u)] = Fraction(0)

    def _search(self, start, backward=False):
        """The breadth-first tree, child -> parent, of the nodes reachable from
        start over arcs of positive residual capacity (backward=True: of the
        nodes from which start is reachable)."""
        tree = {start: None}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in self.adj.get(u, ()):
                if v not in tree and self.cap[(v, u) if backward else (u, v)]:
                    tree[v] = u
                    queue.append(v)
        return tree

    def max_flow(self):
        """Edmonds-Karp: augment along the tree's source-sink path while there is one."""
        total = Fraction(0)
        while True:
            tree = self._search(_SRC)
            if _SNK not in tree:
                return total
            path, v = [], _SNK
            while v != _SRC:
                path.append((tree[v], v))
                v = tree[v]
            bottleneck = min(self.cap[e] for e in path)
            for (u, v) in path:
                self.cap[(u, v)] -= bottleneck
                self.cap[(v, u)] += bottleneck
            total += bottleneck

    def reachable(self, start, backward=False):
        """The nodes of the search tree from start."""
        return set(self._search(start, backward))


def _saturate(model: SystemModel, lam: Scalar):
    """(net, routed, cut_off): a maximum flow at arrival rates N*lam*p_S, each
    number through Fraction, whether it routes every arrival, and the job
    types that cannot reach the sink in its residual graph.

    A type->server arc holds more than all arrivals, so no minimum cut
    crosses one. The cut-off types are the source side of the largest
    minimum cut: the union of the T that maximise N*lam*p(T) - mu(T)
    (Picard & Queyranne 1980). Unrouted, they have ratio mu(T)/(N p(T)) <
    lam; routed, they are the largest T with N*lam*p(T) = mu(T), empty
    exactly when lam < lambda*.
    """
    n, lam = model.n_servers, Fraction(lam)
    rates = [n * lam * Fraction(p) for p in model.p]
    total = sum(rates)
    net = _FlowNet()
    for t in model.type_indices:
        net.add_edge(_SRC, ("t", t), rates[t])
        for srv in model.job_types[t]:
            net.add_edge(("t", t), ("s", srv), total + 1)
    for srv in range(1, n + 1):
        net.add_edge(("s", srv), _SNK, Fraction(model.mu[srv - 1]))
    routed = net.max_flow() == total
    feeds_sink = net.reachable(_SNK, backward=True)
    return net, routed, frozenset(t for t in model.type_indices if ("t", t) not in feeds_sink)


def _dinkelbach(model: SystemModel):
    """(lambda*, net, critical types): Dinkelbach iteration from the best
    singleton ratio to the ratio of the cut-off types while the flow does not
    route, ending on the `_saturate` at lambda*. The ratios strictly decrease
    and stay >= lambda*, so the loop ends at the exact minimum."""
    n = model.n_servers

    def ratio(types):
        mu = sum(Fraction(model.mu[s - 1]) for s in model.servers_of(types))
        return mu / (n * sum(Fraction(model.p[t]) for t in types))

    lam = min(ratio({t}) for t in model.type_indices)
    while True:
        net, routed, cut_off = _saturate(model, lam)
        if routed:
            return lam, net, cut_off
        if not cut_off or ratio(cut_off) >= lam:
            raise ConsistencyError("Dinkelbach iteration failed to decrease")
        lam = ratio(cut_off)


def critical_rate(model: SystemModel) -> Fraction:
    """Exact lambda* (see `_dinkelbach`). Float models are taken exactly, each
    number through Fraction(x); their p then need not sum to exactly 1, so a
    flow routes when it carries the whole arrival rate N*lam*p(S)."""
    return _dinkelbach(model)[0]


def require_stable(model: SystemModel):
    """Raise DomainError unless lambda < lambda*: one maximum flow at lambda
    must route every arrival and cut off no type.

    The test is exact for float models too (see critical_rate), so the
    decision never depends on floating-point rounding.
    """
    _, routed, cut_off = _saturate(model, model.lam)
    if not routed or cut_off:
        raise DomainError(f"model is unstable: lambda = {model.lam} >= "
                          f"lambda* = {critical_rate(model)}")


def crp_components(model: SystemModel, lam_star: Scalar = None) -> ComponentDag:
    """CRP components, their DAG and rooted subtrees at lambda = lambda*.

    They are read from the residual graph of the maximum flow at lambda*
    that `_dinkelbach` ends on, or, given lam_star, of one `_saturate` there.
    The critical types are the cut-off ones. A type-server edge carries flow
    in some maximum flow iff its two ends reach each other (Picard &
    Queyranne 1980), so a component is the types and servers of one
    strongly connected piece around a critical type, and its rooted subtree
    is the types that type reaches.
    """
    _require_exact(model, "crp_components")
    if lam_star is None:
        lam_star, net, critical = _dinkelbach(model)
    else:
        net, routed, critical = _saturate(model, lam_star)
        if not routed:
            raise ConsistencyError("max flow at lambda* failed to route all arrivals")
    if not critical:
        raise ConsistencyError("no critical job types at lambda*")
    return _assemble_dag(model, lam_star, *_component_partition(model, lam_star, net, critical))


def _component_partition(model: SystemModel, lam_star, net, critical):
    """The components and their subtrees' types: 2K residual searches."""
    n = model.n_servers

    def types_in(nodes):
        return frozenset(t for t in model.type_indices if ("t", t) in nodes)

    comps, subtrees, placed = [], [], set()
    for t in sorted(critical):
        if t in placed:
            continue
        down = net.reachable(("t", t))  # holds the source too, over t's reverse arc
        piece = down & net.reachable(("t", t), backward=True)
        servers = frozenset(srv for srv in range(1, n + 1) if ("s", srv) in piece)
        comp = CrpComponent(types=types_in(piece), servers=servers)
        if n * lam_star * model.p_of(comp.types) != sum(model.mu[srv - 1] for srv in comp.servers):
            raise ConsistencyError(f"component balance N*lam*p(C)=mu(Z) violated for {comp}")
        placed |= comp.types
        comps.append(comp)
        subtrees.append(types_in(down))
    return comps, subtrees


def _assemble_dag(model: SystemModel, lam_star, comps, subtrees) -> ComponentDag:
    """The DAG with its components in canonical order, ascending by (the
    number of components in the rooted subtree, the smallest type)."""
    comps, subtrees = zip(*sorted(zip(comps, subtrees), key=lambda cv: (
        sum(c.types <= cv[1] for c in comps), min(cv[0].types))))
    edges = frozenset((i, j) for i, ci in enumerate(comps) for j, cj in enumerate(comps)
                      if i != j and any(model.job_types[t] & cj.servers for t in ci.types))
    if any(not j < i for (i, j) in edges):
        raise ConsistencyError("canonical component order is not topological")
    return ComponentDag(
        model=model,
        lambda_star=lam_star,
        components=comps,
        edges=edges,
        before=tuple(sum(1 << j for (a, j) in edges if a == i) for i in range(len(comps))),
        # rooted subtree of i = the components whose types i's types reach
        subtree_nodes=tuple(frozenset(j for j, c in enumerate(comps) if c.types <= v)
                            for v in subtrees),
        subtree_types=subtrees,
    )


def critical_subsets_via_construction(dag: ComponentDag) -> frozenset:
    """The type sets of the nonempty down-sets: all unions of topological prefixes."""
    return frozenset(frozenset(t for i, comp in enumerate(dag.components) if d >> i & 1
                               for t in comp.types) for d in dag.down_sets[1:])


def report_from_construction(model: SystemModel, dag: ComponentDag) -> CriticalityReport:
    """A CriticalityReport built from the construction route (no subset scan)."""
    critical = critical_subsets_via_construction(dag)
    return CriticalityReport(
        lambda_star=dag.lambda_star,
        critical_subsets=critical,
        depth_K=dag.K,
        crp_class=_classify(critical, model.n_types),
    )
