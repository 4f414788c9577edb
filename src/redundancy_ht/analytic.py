"""Exact pre-limit PGFs and the heavy-traffic limit objects.

Pre-limit: the joint PGF of per-type job counts is a normalized sum of
products over ordered vectors of distinct job types (cancel-on-completion),
or additionally over ordered idle-server vectors (cancel-on-start). Each
factor of a product depends only on a prefix set and its newest element,
so one recursion over the subsets of types (_prefix_table), weighted by
one over the subsets of servers (_idle_sums), computes these sums as power
series in s; the PGFs, the pre-limit moments, the per-type means and the
exact sampler read it.

Limit: as the arrival-rate vector approaches the stability boundary along
a trajectory lambda_S(eps) = N*lambda* p_S - eps*gamma_S, the scaled queue
vector converges to a mixture over the K-critical ordered vectors of linear
combinations of K independent unit-mean exponentials. Vectors sharing a
topological order sigma of the component DAG share their coefficients, and
their weights take the same recursion between sigma's critical prefixes, the
DAG's down-sets, over which limiting_transform sums. When the rooted subtrees
are laminar, the mixture collapses to the product form with one exponential
per component, coefficient N*lambda* p_S / gamma(V_k) on the subtree V_k. The
mixture is what the PGF converges to in all cases; the product form is a
simplification valid in the laminar case (see ComponentDag.subtrees_laminar).

The functions that list ordered vectors (iter_ordered_type_tuples,
enumerate_k_critical, h_term, mixture_law, p_star, sigma_aggregate) give
the same results term by term, as the paper writes them; they serve as
oracles and in the acceptance battery, and no command calls them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .criticality import SUBSET_CAP, ComponentDag, CriticalityReport, require_stable
from .errors import CapExceeded, ConsistencyError, DomainError, PoleError
from .model import Scalar, SystemModel, TrajectorySpec, default_trajectory

ENUM_CAP = 8  # listing ordered type vectors refuses beyond this many types


# ---------------------------------------------------------------------------
# Ordered type vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderedTypeVector:
    """An ordered vector of distinct job types with its prefix aggregates.

    cr_indices holds the 1-based positions j at which the prefix
    {T_1, ..., T_j} is a critical subset; k = len(cr_indices).
    """

    entries: tuple
    cr_indices: tuple
    prefix_p: tuple
    prefix_mu: tuple

    @property
    def k(self) -> int:
        return len(self.cr_indices)

    def position_of(self, t: int):
        """1-based position of type t, or None if absent."""
        try:
            return self.entries.index(t) + 1
        except ValueError:
            return None

    def prefix_gamma(self, traj: TrajectorySpec, j: int) -> Scalar:
        return sum(traj.gamma[t] for t in self.entries[:j])


def ordered_vector(model: SystemModel, entries, critical_subsets) -> OrderedTypeVector:
    entries = tuple(entries)
    if len(set(entries)) != len(entries):
        raise DomainError("ordered vector entries must be distinct")
    prefix_p, prefix_mu, crs = [], [], []
    acc = set()
    for j, t in enumerate(entries, start=1):
        acc.add(t)
        prefix_p.append(model.p_of(acc))
        prefix_mu.append(model.mu_of(acc))
        if frozenset(acc) in critical_subsets:
            crs.append(j)
    return OrderedTypeVector(entries=entries, cr_indices=tuple(crs),
                             prefix_p=tuple(prefix_p), prefix_mu=tuple(prefix_mu))


def iter_ordered_type_tuples(model: SystemModel):
    """All ordered vectors of distinct job types (the empty one included)."""
    if model.n_types > ENUM_CAP:
        raise CapExceeded(
            f"{model.n_types} job types exceeds the ordered-vector enumeration cap {ENUM_CAP}")
    yield ()
    for m in range(1, model.n_types + 1):
        yield from itertools.permutations(model.type_indices, m)


def enumerate_k_critical(model: SystemModel, report: CriticalityReport, k: int) -> list:
    """All ordered vectors of distinct types whose prefixes hit exactly k critical subsets."""
    if not 0 <= k <= report.depth_K:
        raise DomainError(f"k={k} outside 0..K={report.depth_K}")
    crit = report.critical_subsets
    out = []
    for entries in iter_ordered_type_tuples(model):
        vec = ordered_vector(model, entries, crit)
        if vec.k == k:
            out.append(vec)
    return out


# ---------------------------------------------------------------------------
# Pre-limit PGFs: the prefix-set engine
# ---------------------------------------------------------------------------

def h_term(model: SystemModel, entries, z) -> Scalar:
    """One ordered-vector term of the PGF numerator, at the model's own lambda.

    prod_j [N lam p_{T_j} z_{T_j} / mu(T,j)] * [1 - (N lam / mu(T,j)) sum_{i<=j} p_{T_i} z_{T_i}]^-1
    with the empty product equal to 1.
    """
    n, lam = model.n_servers, model.lam
    val = 1
    servers = frozenset()
    pz = 0
    for t in entries:
        servers = servers | model.job_types[t]
        mu_pref = sum(model.mu[s - 1] for s in servers)
        pz = pz + model.p[t] * z[t]
        denom = 1 - n * lam * pz / mu_pref
        if denom == 0:
            raise PoleError(f"PGF pole at prefix ending in type index {t}")
        val = val * (n * lam * model.p[t] * z[t] / mu_pref) / denom
    return val


def _bits(mask: int) -> list:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _server_mask(servers) -> int:
    """Server set as a bitmask: bit s-1 stands for server s."""
    return sum(1 << (s - 1) for s in servers)


def _idle_sums(model: SystemModel) -> list:
    """kappa(U) = sum over idle-server sets I within U of K(I), for every server mask U.

    K(I) sums prod_l mu_{u_l} / (N lam compat(u_1..u_l)) over the orderings
    u of I, compat being the arrival fraction of the types compatible with
    a server in the prefix (the FCFS-ALIS product form). By set:
    K({}) = 1 and K(I) = sum_{u in I} mu_u K(I - {u}) / (N lam compat(I)).
    """
    n = model.n_servers
    if n > SUBSET_CAP:
        raise CapExceeded(f"{n} servers exceeds the subset-lattice cap {SUBSET_CAP}")
    nlam = n * model.lam
    type_masks = [_server_mask(s) for s in model.job_types]
    kappa = [1] * (1 << n)
    for idle in range(1, 1 << n):
        compat = sum(p for p, m in zip(model.p, type_masks) if m & idle)
        if compat == 0:
            raise DomainError(
                f"servers {[u + 1 for u in _bits(idle)]} have no compatible job type")
        kappa[idle] = sum(model.mu[u] * kappa[idle ^ 1 << u] for u in _bits(idle)) \
            / (nlam * compat)
    for u in range(n):  # subset sums: kappa(U) = sum_{I within U} K(I)
        for idle in range(1 << n):
            if idle >> u & 1:
                kappa[idle] = kappa[idle] + kappa[idle ^ 1 << u]
    return kappa


def _free_idle_sum(model: SystemModel, kappa: list, types) -> Scalar:
    """kappa of the servers compatible with no type in `types`."""
    return kappa[((1 << model.n_servers) - 1) ^ _server_mask(model.servers_of(types))]


def _prefix_table(model: SystemModel, z, base: int = 0, top: int = None,
                  open_top: bool = False) -> dict:
    """F_base(A) for every set A of job types with base <= A <= top, as power series in s.

    Type sets are bitmasks over type indices (top defaults to all types),
    and the table is keyed by them in increasing order. z[t] holds the
    coefficients of z_t as a series in s, and every entry has as many. F
    is the normalising-constant recursion of order-independent queues,
    F_base(base) = 1 and
    F_base(A) = (N lam / mu(A)) / (1 - N lam pz(A) / mu(A)) * sum_{t in A - base} p_t z_t F_base(A - {t}),
    so that F_0(A) sums h_term over the orderings of A. With open_top the
    entry at top leaves out its stay factor 1 / (1 - N lam pz(top) / mu(top)),
    which diverges where top is critical at lambda.
    """
    if model.n_types > SUBSET_CAP:
        raise CapExceeded(
            f"{model.n_types} job types exceeds the subset-lattice cap {SUBSET_CAP}")
    top = (1 << model.n_types) - 1 if top is None else top
    nlam = model.n_servers * model.lam
    degrees = range(len(z[0]))
    pz = [[model.p[t] * c for c in z[t]] for t in model.type_indices]
    type_masks = [_server_mask(s) for s in model.job_types]
    f = {base: [1] + [0] * (len(degrees) - 1)}
    pz_sum = {base: [sum(pz[t][k] for t in _bits(base)) for k in degrees]}
    servers = {base: _server_mask(model.servers_of(_bits(base)))}
    rates = {}  # N lam / mu by server mask, which many type sets share
    free, sub = top & ~base, 0
    while sub != free:
        sub = (sub - free) & free  # the next subset of free, in increasing order
        a = base | sub
        low = sub & -sub
        srv = servers[a] = servers[a ^ low] | type_masks[low.bit_length() - 1]
        pz_sum[a] = [x + y for x, y in zip(pz_sum[a ^ low], pz[low.bit_length() - 1])]
        if srv not in rates:
            rates[srv] = nlam / sum(model.mu[u] for u in _bits(srv))
        rate = rates[srv]
        arrivals = [sum(pz[t][i] * f[a ^ 1 << t][k - i] for t in _bits(sub) for i in range(k + 1))
                    for k in degrees]
        if open_top and a == top:
            f[a] = [rate * x for x in arrivals]
            continue
        stay = 1 - rate * pz_sum[a][0]
        if stay == 0:
            raise PoleError(f"PGF pole at the set of type indices {_bits(a)}")
        # F (1 - rate pz(A)) = rate sum_t p_t z_t F(A - {t}), solved degree by degree
        fa = []
        for k in degrees:
            fa.append(rate * (arrivals[k] + sum(pz_sum[a][i] * fa[k - i] for i in range(1, k + 1)))
                      / stay)
        f[a] = fa
    return f


def _set_weights(model: SystemModel, table: dict, kappa: list = None) -> list:
    """F(A) * kappa(free(A)) for every set A of the table, in its order: the
    servers free(A) are compatible with no type in A, and kappa = None
    (c.o.c.) stands for kappa = 1."""
    if kappa is None:
        return list(table.values())
    return [[_free_idle_sum(model, kappa, _bits(a)) * c for c in fa] for a, fa in table.items()]


def _prefix_series(model: SystemModel, z, kappa: list = None) -> list:
    """sum over the sets A of job types of F(A) * kappa(free(A)), a power series in s.

    F is _prefix_table's; kappa comes from _idle_sums (c.o.s.), and None
    stands for kappa = 1 (c.o.c.).
    """
    total = [0] * len(z[0])
    for fa in _set_weights(model, _prefix_table(model, z), kappa):
        total = [x + y for x, y in zip(total, fa)]
    return total


def _pgf(model: SystemModel, z, kappa) -> Scalar:
    one = [[1]] * model.n_types
    return _prefix_series(model, [[x] for x in z], kappa)[0] / _prefix_series(model, one, kappa)[0]


def pgf_coc(model: SystemModel, z) -> Scalar:
    """Joint PGF of per-type job counts under cancel-on-completion: f(z)/f(1),
    with f(z) the sum of h_term over all ordered vectors of distinct types."""
    require_stable(model)
    return _pgf(model, z, None)


def pgf_cos(model: SystemModel, z) -> Scalar:
    """Joint PGF of per-type *waiting* job counts under cancel-on-start: g(z)/g(1).

    g(z) sums h_term(T, z) times the ordered-idle-server weights of the
    servers compatible with no type in T.
    """
    require_stable(model)
    return _pgf(model, z, _idle_sums(model))


# ---------------------------------------------------------------------------
# beta weights and limiting state-configuration probabilities
# ---------------------------------------------------------------------------

def beta_weight(model: SystemModel, vec: OrderedTypeVector, lam_star: Scalar) -> Scalar:
    """Limiting weight of an ordered vector: rate factors at lambda*, with the
    divergent critical-prefix factors excluded symbolically."""
    n = model.n_servers
    cr = set(vec.cr_indices)
    val = 1
    for j, t in enumerate(vec.entries, start=1):
        val = val * (n * lam_star * model.p[t] / vec.prefix_mu[j - 1])
        if j not in cr:
            denom = 1 - n * lam_star * vec.prefix_p[j - 1] / vec.prefix_mu[j - 1]
            val = val / denom
    return val


def omega_weight(model: SystemModel, vec: OrderedTypeVector, lam_star: Scalar,
                 traj: TrajectorySpec) -> Scalar:
    """General-trajectory weight: beta(T) * prod_{j in CR(T)} mu(T,j)/gamma(T,j)."""
    val = beta_weight(model, vec, lam_star)
    for j in vec.cr_indices:
        val = val * vec.prefix_mu[j - 1] / vec.prefix_gamma(traj, j)
    return val


def p_star(model: SystemModel, report: CriticalityReport, vec: OrderedTypeVector) -> Scalar:
    """Limiting probability of a K-critical ordered vector: beta(T)/beta(N_K)."""
    if vec.k != report.depth_K:
        raise DomainError(f"vector is {vec.k}-critical, not K={report.depth_K}-critical")
    lam_star = report.lambda_star
    norm = sum(beta_weight(model, v, lam_star)
               for v in enumerate_k_critical(model, report, report.depth_K))
    return beta_weight(model, vec, lam_star) / norm


def _direction(model: SystemModel, lam_star: Scalar, traj: TrajectorySpec) -> TrajectorySpec:
    """traj, or else the default trajectory's gamma = N*lambda* p; taken at the
    limit point, since only gamma is read, so that lambda > lambda* is no error."""
    if traj is not None:
        return traj
    return default_trajectory(model.with_lambda(lam_star), lam_star)


# ---------------------------------------------------------------------------
# Limit laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitLaw:
    """Y_S = sum_k coeffs[k][S] * U_k with U_k i.i.d. unit-mean exponential."""

    coeffs: tuple  # K rows, one per component, each a tuple over job types

    @property
    def K(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class MixtureLaw:
    """Atoms (weight, coeffs, label); conditionally on an atom the law is
    sum_k coeffs[k][S] * U_k. Labels identify the source vector or sigma."""

    atoms: tuple

    @property
    def K(self) -> int:
        return len(self.atoms[0][1])

    @property
    def weights(self) -> tuple:
        return tuple(w for (w, _, _) in self.atoms)


def limit_law(dag: ComponentDag, traj: TrajectorySpec = None) -> LimitLaw:
    """Coefficient matrix of the collapsed K-exponential law.

    Row k covers the types of the subtree V_k with coefficient
    N*lambda* p_S / gamma(V_k); with the default trajectory this is
    p_S / p(V_k). Identical for c.o.c. and c.o.s. Distributionally valid
    whenever the subtrees are laminar (the general object is mixture_law).
    """
    model = dag.model
    n = model.n_servers
    traj = _direction(model, dag.lambda_star, traj)
    rows = []
    for k in range(dag.K):
        gv = dag.gamma_subtree(k, traj)
        row = tuple(
            (n * dag.lambda_star * model.p[t] / gv) if t in dag.subtree_types[k] else 0
            for t in model.type_indices)
        rows.append(row)
    return LimitLaw(coeffs=tuple(rows))


def mixture_law(model: SystemModel, report: CriticalityReport,
                traj: TrajectorySpec = None) -> MixtureLaw:
    """One atom per K-critical vector T: weight P*(T) (or its omega analog on a
    general trajectory) and coefficients N*lambda* p_S / gamma(T, i_k) for types
    placed by position i_k."""
    lam_star = report.lambda_star
    n = model.n_servers
    vecs = enumerate_k_critical(model, report, report.depth_K)
    if traj is None:
        weights = [beta_weight(model, v, lam_star) for v in vecs]
        gamma_pref = lambda v, j: n * lam_star * v.prefix_p[j - 1]
    else:
        weights = [omega_weight(model, v, lam_star, traj) for v in vecs]
        gamma_pref = lambda v, j: v.prefix_gamma(traj, j)
    norm = sum(weights)
    atoms = []
    for vec, w in zip(vecs, weights):
        rows = []
        for i_k in vec.cr_indices:
            g = gamma_pref(vec, i_k)
            row = []
            for t in model.type_indices:
                pos = vec.position_of(t)
                row.append(n * lam_star * model.p[t] / g
                           if pos is not None and pos <= i_k else 0)
            rows.append(tuple(row))
        atoms.append((w / norm, tuple(rows), vec.entries))
    return MixtureLaw(atoms=tuple(atoms))


def _sigma_of_atom(dag: ComponentDag, entries) -> tuple:
    """Recover the topological order underlying a K-critical vector's block structure."""
    comp_of = {}
    for idx, comp in enumerate(dag.components):
        for t in comp.types:
            comp_of[t] = idx
    sigma, seen = [], set()
    for t in entries:
        if t not in comp_of:
            break  # trailing non-critical types
        c = comp_of[t]
        if c not in seen:
            seen.add(c)
            sigma.append(c)
    if len(sigma) != dag.K:
        raise ConsistencyError(f"vector {entries} does not cover all components")
    return tuple(sigma)


def sigma_aggregate(mixture: MixtureLaw, dag: ComponentDag) -> MixtureLaw:
    """Merge atoms sharing a topological order; their coefficient matrices must agree.

    Merged weights are direct sums of atom weights, which keeps this exact for
    every DAG; on laminar DAGs they equal beta_hat(sigma)/beta_hat(Sigma_K).
    """
    groups = {}
    for (w, coeffs, entries) in mixture.atoms:
        sigma = _sigma_of_atom(dag, entries)
        if sigma in groups:
            w0, coeffs0 = groups[sigma]
            if coeffs0 != coeffs:
                raise ConsistencyError(
                    f"atoms within sigma={sigma} disagree on coefficients")
            groups[sigma] = (w0 + w, coeffs0)
        else:
            groups[sigma] = (w, coeffs)
    atoms = tuple((w, coeffs, sigma) for sigma, (w, coeffs) in sorted(groups.items()))
    return MixtureLaw(atoms=atoms)


@lru_cache(maxsize=64)
def _lattice(dag: ComponentDag, traj: TrajectorySpec, key: str) -> tuple:
    """(nodes, total): nodes maps each nonempty down-set d, by size, with type
    set A, to row(A) (N*lambda* p_S / gamma(A) on A) and the weight of each
    step from a down-set d - {i}: F_(A - C_i)(A) at lambda* without the
    divergent stay factor at A (open_top), times mu(A) / gamma(A) (1 by
    default). total sums the weight products over sigma. key = repr(traj)
    keeps exact and float trajectories apart in the cache."""
    model = dag.model
    at_limit = model.with_lambda(dag.lambda_star)
    nlam = model.n_servers * dag.lambda_star
    traj = _direction(model, dag.lambda_star, traj)
    ones = [[1]] * model.n_types
    comp_masks = [sum(1 << t for t in comp.types) for comp in dag.components]
    ideals, nodes, paths = set(dag.down_sets), {}, {0: 1}
    for d in dag.down_sets[1:]:
        hi = sum(m for i, m in enumerate(comp_masks) if d >> i & 1)
        g = traj.gamma_of(_bits(hi))
        steps = {d ^ 1 << i: _prefix_table(at_limit, ones, hi ^ m, hi, open_top=True)[hi][0]
                 * model.mu_of(_bits(hi)) / g
                 for i, m in enumerate(comp_masks) if d >> i & 1 and d ^ 1 << i in ideals}
        nodes[d] = (tuple(nlam * model.p[t] / g if hi >> t & 1 else 0
                          for t in model.type_indices), steps)
        paths[d] = sum(paths[lo] * w for lo, w in steps.items())
    return nodes, paths[d]


def sigma_mixture(dag: ComponentDag, traj: TrajectorySpec = None) -> MixtureLaw:
    """The limit law as one atom per topological order sigma, from type sets alone.

    The K-critical vectors of sigma pass through the critical prefixes
    A_k = C_sigma(1) u ... u C_sigma(k) and then list non-critical types
    only. Their beta weights sum to the product over k of the step weights
    of _lattice, times a sum over the non-critical tail. A_K holds every
    critical type whatever sigma is, so that tail sum, and under c.o.s. its
    idle-server weight, is the same for every sigma and cancels: the law is
    one for both disciplines. On a trajectory each weight gains the omega
    factor prod_k mu(A_k) / gamma(A_k). The result equals
    sigma_aggregate(mixture_law(...)) without listing a vector.
    """
    orders = dag.topo_orders  # listed first: the ORDER_CAP refusal then costs no lattice
    nodes, _ = _lattice(dag, traj, repr(traj))
    atoms = []
    for sigma in orders:
        weight, rows, lo = 1, [], 0
        for i in sigma:
            row, steps = nodes[lo | 1 << i]
            weight = weight * steps[lo]
            rows.append(row)
            lo |= 1 << i
        atoms.append((weight, tuple(rows), sigma))
    norm = sum(w for (w, _, _) in atoms)
    return MixtureLaw(atoms=tuple((w / norm, rows, sigma) for (w, rows, sigma) in atoms))


def limiting_transform(dag: ComponentDag, t, traj: TrajectorySpec = None, c=None,
                       n: int = 0) -> list:
    """E[exp(s c.Y - t.Y)] up to s^n, for Y the limit law on traj (c = 0 by default).

    Entry 0 is the Laplace transform at t; at t = 0, n! times entry n is
    E[(c.Y)^n]. Given sigma, row k gives a factor 1 / (1 + row_k.t - (row_k.c) s)
    that depends on A_k alone, so the sum over sigma runs forward over the
    down-sets (_lattice): G(A) = A's factor times sum_lo G(lo) w(lo, A).
    """
    nodes, total = _lattice(dag, traj, repr(traj))
    c = [0] * len(t) if c is None else c
    g = {0: [1] + [0] * n}
    for d, (row, steps) in nodes.items():
        b = _laplace_denominator(row, t)
        a = sum(x * y for x, y in zip(c, row))
        into = [sum(g[lo][j] * w for lo, w in steps.items()) for j in range(n + 1)]
        g[d] = [into[0] / b]
        for x in into[1:]:  # times 1 / (b - a s), degree by degree
            g[d].append((x + a * g[d][-1]) / b)
    return [x / total for x in g[d]]


def beta_hat(dag: ComponentDag, sigma) -> Scalar:
    """prod_k 1 / p(C_{sigma(1)} u ... u C_{sigma(k)})."""
    model = dag.model
    val = 1
    acc = set()
    for i in sigma:
        acc |= dag.components[i].types
        val = val / model.p_of(acc)
    return val


def beta_hat_sigma_k(dag: ComponentDag) -> Scalar:
    """prod_k 1 / p(V_k)."""
    val = 1
    for k in range(dag.K):
        val = val / dag.p_subtree(k)
    return val


def sigma_weight_formula(dag: ComponentDag, sigma, traj: TrajectorySpec = None) -> Scalar:
    """Closed-form merged weight prod_k gamma(V_k)/gamma(C_{sigma(1)}..C_{sigma(k)}).

    Reduces to beta_hat(sigma)/beta_hat(Sigma_K) on the default trajectory.
    Valid on laminar DAGs; sigma_aggregate's direct sums hold in general.
    """
    model = dag.model
    traj = _direction(model, dag.lambda_star, traj)
    val = 1
    acc = set()
    for i in sigma:
        acc |= dag.components[i].types
        val = val / traj.gamma_of(acc)
    for k in range(dag.K):
        val = val * dag.gamma_subtree(k, traj)
    return val


def nested_sum_identity(c, dag: ComponentDag):
    """(lhs, rhs) of the prefix-sum identity over topological orders.

    lhs = sum_sigma prod_k (c_{sigma(1)} + ... + c_{sigma(k)})^-1,
    rhs = prod_k (sum_{j in subtree of k} c_j)^-1.
    Equal whenever the rooted subtrees are laminar.
    """
    if len(c) != dag.K:
        raise DomainError("need one constant per component")
    if any(x <= 0 for x in c):
        raise DomainError("constants must be positive")
    lhs = 0
    for sigma in dag.topo_orders:
        acc = 0
        term = 1
        for i in sigma:
            acc = acc + c[i]
            term = term / acc
        lhs = lhs + term
    rhs = 1
    for k in range(dag.K):
        rhs = rhs / sum(c[j] for j in dag.subtree_nodes[k])
    return lhs, rhs


# ---------------------------------------------------------------------------
# Limiting Laplace transforms
# ---------------------------------------------------------------------------

def limiting_laplace(dag: ComponentDag, t, traj: TrajectorySpec = None) -> Scalar:
    """Product form prod_k (1 + sum_{S in V_k} t_S N*lambda* p_S / gamma(V_k))^-1."""
    law = limit_law(dag, traj)
    return laplace_of_limit_law(law, t)


def _laplace_denominator(row, t) -> Scalar:
    """1 + sum_S t_S a_S for a row a; the transform diverges where it is <= 0."""
    d = 1 + sum(ts * a for ts, a in zip(t, row))
    if d <= 0:
        raise DomainError(f"the Laplace transform diverges at t: a row has 1 + t.row = {d} <= 0")
    return d


def laplace_of_limit_law(law: LimitLaw, t) -> Scalar:
    val = 1
    for row in law.coeffs:
        val = val / _laplace_denominator(row, t)
    return val


def laplace_of_mixture(mixture: MixtureLaw, t) -> Scalar:
    """sum_T P*(T) prod_{i in CR(T)} (1 + ...)^-1, evaluated from the atom coefficients."""
    total = 0
    for (w, coeffs, _) in mixture.atoms:
        term = w
        for row in coeffs:
            term = term / (1 + sum(ts * a for ts, a in zip(t, row)))
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_limit(law, n: int, seed) -> np.ndarray:
    """Monte-Carlo draws from a LimitLaw or MixtureLaw; returns (n, |S|) floats."""
    if n < 1:
        raise DomainError("need n >= 1 samples")
    rng = np.random.default_rng(seed)
    if isinstance(law, LimitLaw):
        a = np.asarray(law.coeffs, dtype=float)
        u = rng.exponential(1.0, size=(n, a.shape[0]))
        return u @ a
    pv = np.asarray([float(w) for w in law.weights])
    counts = rng.multinomial(n, pv / pv.sum())
    out = []
    for (count, (_, coeffs, _)) in zip(counts, law.atoms):
        if count == 0:
            continue
        a = np.asarray(coeffs, dtype=float)
        u = rng.exponential(1.0, size=(count, a.shape[0]))
        out.append(u @ a)
    return np.concatenate(out, axis=0)
