"""Exact pre-limit PGFs and the heavy-traffic limit objects.

Pre-limit: the joint PGF of per-type job counts is a normalized sum of
products over ordered vectors of distinct job types (cancel-on-completion),
or additionally over ordered idle-server vectors (cancel-on-start). Each
factor of a product depends only on a prefix set and its newest element,
so one recursion over the subsets of types (_prefix_table), weighted by
one over the subsets of servers (_idle_sums), computes these sums as power
series in s; the PGFs, the pre-limit moments and the exact sampler read
it.

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

The paper's sums as written, over ordered vectors (h_term, mixture_law,
p_star) and over topological orders (sigma_aggregate, beta_hat), are in
`oracles`, against which the tests check this module exactly.
"""
from __future__ import annotations

import numbers
from functools import lru_cache

from .criticality import SUBSET_CAP, ComponentDag, require_stable
from .errors import CapExceeded, DomainError, PoleError
from .model import Record, Scalar, SystemModel, TrajectorySpec, default_trajectory


# ---------------------------------------------------------------------------
# Pre-limit PGFs: the prefix-set engine
# ---------------------------------------------------------------------------

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
    so that F_0(A) sums oracles.h_term over the orderings of A. With open_top the
    entry at top leaves out its stay factor 1 / (1 - N lam pz(top) / mu(top)),
    which diverges where top is critical at lambda; any other stay factor
    with a denominator <= 0 raises PoleError.
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
        if stay <= 0:
            raise PoleError(f"z is at or beyond a pole of the PGF (outside its domain) "
                            f"at the set of type indices {_bits(a)}")
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
    # E[prod z_t^Q_t] converges absolutely where the series in |z| does: where
    # every stay factor at |z| is positive, as stability gives when all |z_t| <= 1
    if any(abs(x) > 1 for x in z):
        _prefix_table(model, [[abs(x)] for x in z])
    one = [[1]] * model.n_types
    return _prefix_series(model, [[x] for x in z], kappa)[0] / _prefix_series(model, one, kappa)[0]


def pgf_coc(model: SystemModel, z) -> Scalar:
    """Joint PGF of per-type job counts under cancel-on-completion: f(z)/f(1),
    with f(z) the sum of oracles.h_term over all ordered vectors of distinct types."""
    require_stable(model)
    return _pgf(model, z, None)


def pgf_cos(model: SystemModel, z) -> Scalar:
    """Joint PGF of per-type *waiting* job counts under cancel-on-start: g(z)/g(1).

    g(z) sums oracles.h_term(T, z) times the ordered-idle-server weights of the
    servers compatible with no type in T.
    """
    require_stable(model)
    return _pgf(model, z, _idle_sums(model))


# ---------------------------------------------------------------------------
# Limit laws
# ---------------------------------------------------------------------------

def _direction(model: SystemModel, lam_star: Scalar, traj: TrajectorySpec) -> TrajectorySpec:
    """traj, or else the default trajectory's gamma = N*lambda* p; taken at the
    limit point, since only gamma is read, so that lambda > lambda* is no error."""
    if traj is not None:
        return traj
    return default_trajectory(model.with_lambda(lam_star), lam_star)


class LimitLaw(Record):
    """Y_S = sum_k coeffs[k][S] * U_k with U_k i.i.d. unit-mean exponential."""

    coeffs: tuple  # K rows, one per component, each a tuple over job types

    @property
    def K(self) -> int:
        return len(self.coeffs)

    @property
    def atoms(self) -> tuple:
        """The law as a MixtureLaw's single atom (weight 1, no label)."""
        return ((1, self.coeffs, None),)


class MixtureLaw(Record):
    """Atoms (weight, coeffs, label); conditionally on an atom the law is
    sum_k coeffs[k][S] * U_k. Labels identify the source vector or sigma."""

    atoms: tuple


def limit_law(dag: ComponentDag, traj: TrajectorySpec = None) -> LimitLaw:
    """Coefficient matrix of the collapsed K-exponential law.

    Row k covers the types of the subtree V_k with coefficient
    N*lambda* p_S / gamma(V_k); with the default trajectory this is
    p_S / p(V_k). Identical for c.o.c. and c.o.s. Distributionally valid
    whenever the subtrees are laminar (the general object is sigma_mixture).
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
    oracles.sigma_aggregate(oracles.mixture_law(...)) without listing a vector.
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


# ---------------------------------------------------------------------------
# Limiting Laplace transforms
# ---------------------------------------------------------------------------

def limiting_laplace(dag: ComponentDag, t, traj: TrajectorySpec = None) -> Scalar:
    """Product form prod_k (1 + sum_{S in V_k} t_S N*lambda* p_S / gamma(V_k))^-1."""
    val = 1
    for row in limit_law(dag, traj).coeffs:
        val = val / _laplace_denominator(row, t)
    return val


def _laplace_denominator(row, t) -> Scalar:
    """1 + sum_S t_S a_S for a row a; the transform diverges where it is <= 0."""
    d = 1 + sum(ts * a for ts, a in zip(t, row))
    if d <= 0:
        raise DomainError(f"the Laplace transform diverges at t: a row has 1 + t.row = {d} <= 0")
    return d


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _check_seed(seed) -> int:
    """The seed of a sampler or simulation as an int: an integer >= 0, else DomainError."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"a seed is an integer >= 0, got {seed!r}")
    return int(seed)


def _draw_counts(rng, n, weights):
    """Split n draws multinomially, in proportion to the exact weights."""
    import numpy as np

    fw = np.asarray([float(w) for w in weights])
    return rng.multinomial(n, fw / fw.sum())


def sample_limit(law, n: int, seed) -> numpy.ndarray:
    """Monte-Carlo draws from a LimitLaw or MixtureLaw; returns (n, |S|) floats."""
    if n < 1:
        raise DomainError("need n >= 1 samples")
    seed = _check_seed(seed)
    import numpy as np

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
