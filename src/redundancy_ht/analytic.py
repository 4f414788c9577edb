"""Exact pre-limit PGFs and the heavy-traffic limit objects.

Pre-limit: the joint PGF of per-type job counts is a normalized sum of
products over ordered vectors of distinct job types (cancel-on-completion),
or additionally over ordered idle-server vectors (cancel-on-start).

Limit: as the arrival-rate vector approaches the stability boundary along
a trajectory lambda_S(eps) = N*lambda* p_S - eps*gamma_S, the scaled queue
vector converges to a mixture over the K-critical ordered vectors of linear
combinations of K independent unit-mean exponentials. When the component
DAG's rooted subtrees are laminar, the mixture collapses to the product
form with one exponential per component, coefficient N*lambda* p_S /
gamma(V_k) on the subtree V_k. The mixture is what the PGF converges to in
all cases; the product form is a simplification valid in the laminar case
(see ComponentDag.subtrees_laminar).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .criticality import ComponentDag, CriticalityReport, require_stable
from .errors import CapExceeded, ConsistencyError, DomainError, PoleError
from .model import Scalar, SystemModel, TrajectorySpec, cache_by_backend

ENUM_CAP = 8  # full ordered-vector enumeration refuses beyond this many types
COS_SERVER_CAP = 8  # idle-server vector enumeration refuses beyond this many servers


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


def iter_ordered_type_tuples(model: SystemModel, allowed=None, cap: int = ENUM_CAP):
    """All ordered vectors of distinct job types (the empty one included)."""
    allowed = list(model.type_indices) if allowed is None else list(allowed)
    if len(allowed) > cap:
        raise CapExceeded(
            f"{len(allowed)} job types exceeds the ordered-vector enumeration cap {cap}")
    yield ()
    for m in range(1, len(allowed) + 1):
        yield from itertools.permutations(allowed, m)


def enumerate_k_critical(model: SystemModel, report: CriticalityReport, k: int,
                         cap: int = ENUM_CAP) -> list:
    """All ordered vectors of distinct types whose prefixes hit exactly k critical subsets."""
    if not 0 <= k <= report.depth_K:
        raise DomainError(f"k={k} outside 0..K={report.depth_K}")
    crit = report.critical_subsets
    out = []
    for entries in iter_ordered_type_tuples(model, cap=cap):
        vec = ordered_vector(model, entries, crit)
        if vec.k == k:
            out.append(vec)
    return out


# ---------------------------------------------------------------------------
# Pre-limit PGFs
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


def _sum_h_terms(model: SystemModel, z, allowed) -> Scalar:
    """sum of h_term over all ordered vectors of distinct types from `allowed` (incl. empty)."""
    n, lam = model.n_servers, model.lam
    mu_cache = {}

    def mu_of(servers):
        if servers not in mu_cache:
            mu_cache[servers] = sum(model.mu[s - 1] for s in servers)
        return mu_cache[servers]

    total = [1]  # the empty vector contributes 1

    def rec(servers, pz, prod, remaining):
        for idx, t in enumerate(remaining):
            servers2 = servers | model.job_types[t]
            mu_pref = mu_of(servers2)
            pz2 = pz + model.p[t] * z[t]
            denom = 1 - n * lam * pz2 / mu_pref
            if denom == 0:
                raise PoleError(f"PGF pole at prefix ending in type index {t}")
            prod2 = prod * (n * lam * model.p[t] * z[t] / mu_pref) / denom
            total[0] += prod2
            rec(servers2, pz2, prod2, remaining[:idx] + remaining[idx + 1:])

    rec(frozenset(), 0, 1, tuple(allowed))
    return total[0]


def pgf_coc(model: SystemModel, z, cap: int = ENUM_CAP) -> Scalar:
    """Joint PGF of per-type job counts under cancel-on-completion: f(z)/f(1)."""
    require_stable(model)
    if model.n_types > cap:
        raise CapExceeded(f"{model.n_types} job types exceeds the PGF cap {cap}")
    one = [1] * model.n_types
    return _sum_h_terms(model, z, model.type_indices) / _sum_h_terms(model, one, model.type_indices)


def iter_idle_server_tuples(model: SystemModel, allowed=None):
    servers = list(range(1, model.n_servers + 1)) if allowed is None else sorted(allowed)
    yield ()
    for length in range(1, len(servers) + 1):
        yield from itertools.permutations(servers, length)


def idle_vector_weight(model: SystemModel, u) -> Scalar:
    """prod_l mu_{u_l} / lambda_C(u_1..u_l): rate ratio for an ordered idle-server vector."""
    val = 1
    n, lam = model.n_servers, model.lam
    for l in range(1, len(u) + 1):
        head = set(u[:l])
        compat = sum(model.p[t] for t in model.type_indices
                     if model.job_types[t] & head)
        if compat == 0:
            raise DomainError(f"servers {sorted(head)} have no compatible job type")
        val = val * model.mu[u[l - 1] - 1] / (n * lam * compat)
    return val


def pgf_cos(model: SystemModel, z, cap: int = ENUM_CAP) -> Scalar:
    """Joint PGF of per-type *waiting* job counts under cancel-on-start: g(z)/g(1)."""
    require_stable(model)
    if model.n_types > cap:
        raise CapExceeded(f"{model.n_types} job types exceeds the PGF cap {cap}")
    if model.n_servers > COS_SERVER_CAP:
        raise CapExceeded(
            f"{model.n_servers} servers exceeds the idle-vector enumeration cap {COS_SERVER_CAP}")
    one = [1] * model.n_types
    return _g_value(model, z) / _g_value(model, one)


def _g_value(model: SystemModel, z) -> Scalar:
    # Group ordered idle vectors by their set: the inner type sum only
    # depends on which servers are idle.
    weight_by_set = {}
    for u in iter_idle_server_tuples(model):
        key = frozenset(u)
        weight_by_set[key] = weight_by_set.get(key, 0) + idle_vector_weight(model, u)
    inner_cache = {}
    total = 0
    for idle_set, w in weight_by_set.items():
        allowed = tuple(t for t in model.type_indices
                        if not (model.job_types[t] & idle_set))
        if allowed not in inner_cache:
            inner_cache[allowed] = _sum_h_terms(model, z, allowed)
        total += w * inner_cache[allowed]
    return total


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


@cache_by_backend
def _nk_vectors(model: SystemModel, report: CriticalityReport) -> tuple:
    return tuple(enumerate_k_critical(model, report, report.depth_K))


def p_star(model: SystemModel, report: CriticalityReport, vec: OrderedTypeVector) -> Scalar:
    """Limiting probability of a K-critical ordered vector: beta(T)/beta(N_K)."""
    if vec.k != report.depth_K:
        raise DomainError(f"vector is {vec.k}-critical, not K={report.depth_K}-critical")
    lam_star = report.lambda_star
    norm = sum(beta_weight(model, v, lam_star) for v in _nk_vectors(model, report))
    return beta_weight(model, vec, lam_star) / norm


def fixed_direction(model: SystemModel, lam_star: Scalar) -> TrajectorySpec:
    """gamma = N*lambda* p (plain lambda scaling), positioned at the limit point."""
    n = model.n_servers
    return TrajectorySpec(gamma=tuple(n * lam_star * ps for ps in model.p), epsilon=0)


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
    if traj is None:
        traj = fixed_direction(model, dag.lambda_star)
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
    vecs = _nk_vectors(model, report)
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
    if traj is None:
        traj = fixed_direction(model, dag.lambda_star)
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


def laplace_of_limit_law(law: LimitLaw, t) -> Scalar:
    val = 1
    for row in law.coeffs:
        val = val / (1 + sum(ts * a for ts, a in zip(t, row)))
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


def limiting_laplace_cos_general(model: SystemModel, report: CriticalityReport,
                                 dag: ComponentDag, traj: TrajectorySpec, t) -> Scalar:
    """Limiting Laplace transform of the scaled waiting-job vector under c.o.s.

    Sums alpha(u)*omega(T) over K-critical vectors T and ordered vectors u of
    idle servers not compatible with any type in T, normalized by the same
    double sum; each (T, u) term carries the critical-prefix factors
    (1 + sum_{j<=i} t_{T_j} N*lambda* p_{T_j} / gamma(T,i))^-1.
    """
    if model.n_servers > COS_SERVER_CAP:
        raise CapExceeded(
            f"{model.n_servers} servers exceeds the idle-vector enumeration cap {COS_SERVER_CAP}")
    if traj is None:
        traj = fixed_direction(model, report.lambda_star)
    lam_star = report.lambda_star
    at_critical = model.with_lambda(lam_star)
    n = model.n_servers
    num = 0
    norm = 0
    for vec in _nk_vectors(model, report):
        w = omega_weight(model, vec, lam_star, traj)
        used = model.servers_of(vec.entries)
        free = [srv for srv in range(1, n + 1) if srv not in used]
        k_weight = 0
        for u in iter_idle_server_tuples(model, allowed=free):
            k_weight = k_weight + idle_vector_weight(at_critical, u)
        factor = 1
        for i in vec.cr_indices:
            g = vec.prefix_gamma(traj, i)
            tsum = sum(t[tt] * n * lam_star * model.p[tt] for tt in vec.entries[:i])
            factor = factor / (1 + tsum / g)
        num = num + k_weight * w * factor
        norm = norm + k_weight * w
    return num / norm


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
