"""Exact pre-limit PGFs and the heavy-traffic limit objects.

Pre-limit: the joint PGF of per-type job counts is a normalized sum of
products over ordered vectors of distinct job types (cancel-on-completion),
or additionally over ordered idle-server vectors (cancel-on-start). Each
factor of a product depends only on a prefix set and its newest element,
so one recursion over the subsets of types (_prefix_table), weighted by
one over the subsets of servers (_idle_sums), computes these sums as power
series in s. The PGFs, the pre-limit moments, the exact sampler and
oracles.config_distribution all enter through _kappa: it checks the
arguments, puts the model in floats unless it and every value are exact,
and alone decides a discipline's weights (ones for c.o.c., _free_weights
for c.o.s.). A table never mixes backends: on an exact model
both recursions run in Python integers, as numerators over a denominator,
and equal the recursions written over Fractions (tests/prefix_reference.py);
on a float model they run in floats over the denominator 1.

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

import math
import numbers
from fractions import Fraction
from functools import lru_cache

from .criticality import SUBSET_CAP, ComponentDag, require_stable
from .errors import CapExceeded, DomainError, PoleError
from .model import Record, Scalar, SystemModel, TrajectorySpec, default_trajectory, is_exact


# ---------------------------------------------------------------------------
# Pre-limit PGFs: the prefix-set engine
# ---------------------------------------------------------------------------

def _bits(mask: int) -> list:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _server_mask(servers) -> int:
    """Server set as a bitmask: bit s-1 stands for server s."""
    return sum(1 << (s - 1) for s in servers)


def _scaled(values) -> tuple:
    """(L, [L x for x in values]) for the least integer L that makes every L x
    an integer; the values are exact."""
    scale = math.lcm(*(x.denominator for x in values))
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def _idle_sums(model: SystemModel) -> tuple:
    """kappa(U) = sum over idle-server sets I within U of K(I), for every server
    mask U, as a pair (numerators by server mask, one denominator).

    K(I) sums prod_l mu_{u_l} / (N lam compat(u_1..u_l)) over the orderings
    u of I, compat being the arrival fraction of the types compatible with
    a server in the prefix (the FCFS-ALIS product form). By set:
    K({}) = 1 and K(I) = sum_{u in I} mu_u K(I - {u}) / (N lam compat(I)).

    On an exact model each K(I) is an integer numerator over a denominator,
    with mu_u = m_u / M, p_t = w_t / W and N lam = a / b scaled to integers:
    K(I) = b W sum_u m_u K(I - {u}) / (a M w(I)). The subset sums then run
    in integers over one common denominator; a float model runs the
    recursion as written, in floats over the denominator 1.
    """
    n = model.n_servers
    if n > SUBSET_CAP:
        raise CapExceeded(f"{n} servers exceeds the subset-lattice cap {SUBSET_CAP}")
    type_masks = [_server_mask(s) for s in model.job_types]
    exact = model.exact
    if exact:
        nlam = n * model.lam
        p_scale, weights = _scaled(model.p)
        speed, mu = _scaled(model.mu)
        above, below = nlam.denominator * p_scale, nlam.numerator * speed
    else:
        nlam, weights, mu = n * model.lam, model.p, model.mu
    num, den = [1] * (1 << n), [1] * (1 << n)
    for idle in range(1, 1 << n):
        compat = sum(w for w, m in zip(weights, type_masks) if m & idle)
        if compat == 0:
            raise DomainError(
                f"servers {[u + 1 for u in _bits(idle)]} have no compatible job type")
        rest = {u: idle ^ 1 << u for u in _bits(idle)}
        if not exact:
            num[idle] = sum(mu[u] * num[r] for u, r in rest.items()) / (nlam * compat)
            continue
        common = math.lcm(*(den[r] for r in rest.values()))
        x = above * sum(mu[u] * num[r] * (common // den[r]) for u, r in rest.items())
        y = below * compat * common
        h = math.gcd(x, y)
        num[idle], den[idle] = x // h, y // h
    common = math.lcm(*den)  # every K(I) over one denominator, 1 on a float model
    num = [x * (common // y) for x, y in zip(num, den)]
    for u in range(n):  # subset sums: kappa(U) = sum_{I within U} K(I)
        for idle in range(1 << n):
            if idle >> u & 1:
                num[idle] = num[idle] + num[idle ^ 1 << u]
    return num, common


def _free_weights(model: SystemModel) -> tuple:
    """kappa(free(A)) for every set A of job types, keyed by bitmask, in
    _idle_sums' pair (numerators, denominator): free(A) holds the servers
    compatible with no type of A."""
    kappa, den = _idle_sums(model)
    type_masks = [_server_mask(s) for s in model.job_types]
    used = [0] * (1 << model.n_types)
    for a in range(1, len(used)):
        low = a & -a
        used[a] = used[a ^ low] | type_masks[low.bit_length() - 1]
    full = (1 << model.n_servers) - 1
    return [kappa[full ^ u] for u in used], den


DISCIPLINES = ("coc", "cos")


def _check_discipline(discipline: str):
    if discipline not in DISCIPLINES:
        raise DomainError(f"unknown discipline {discipline!r}; expected one of {DISCIPLINES}")


def _per_type(model: SystemModel, values, name: str):
    """values, once they hold one entry per job type of the model."""
    if len(values) != model.n_types:
        raise DomainError(f"need one {name} per job type, got {len(values)} for {model.n_types}")
    return values


def _kappa(model: SystemModel, discipline: str, values=None, name: str = None) -> tuple:
    """(model, values, kappa), the one entry of the weighted prefix-set sums.
    Checks the discipline, one `name` per type in values (if given) and
    stability on the model as given; the model and values come back in floats
    unless all are exact, kappa as (weights by type set, denominator):
    ([1] * 2^S, 1) for c.o.c., _free_weights for c.o.s."""
    _check_discipline(discipline)
    values = [] if values is None else _per_type(model, values, name)
    require_stable(model)
    full = _all_types(model)
    if not (model.exact and all(is_exact(x) for x in values)):
        model, values = model.as_float(), [float(x) for x in values]
    return model, values, _free_weights(model) if discipline == "cos" else ([1] * (full + 1), 1)


def _free_idle_sum(kappa: tuple, types) -> Scalar:
    """kappa of the servers compatible with no type in `types`, from _kappa's pair."""
    w, den = kappa[0][sum(1 << t for t in types)], kappa[1]
    return Fraction(w, den) if is_exact(w) else w / den


def _all_types(model: SystemModel) -> int:
    """The bitmask of all job types; CapExceeded beyond 2^SUBSET_CAP type sets."""
    if model.n_types > SUBSET_CAP:
        raise CapExceeded(
            f"{model.n_types} job types exceeds the subset-lattice cap {SUBSET_CAP}")
    return (1 << model.n_types) - 1


def _prefix_table(model: SystemModel, z) -> dict:
    """F(A) for every set A of job types, as power series in s.

    Type sets are bitmasks over type indices, and the table is keyed by them
    in increasing order. z[t] holds the coefficients of z_t as a series in
    s, and every entry has as many. F is the normalising-constant recursion
    of order-independent queues, F({}) = 1 and
    F(A) = (N lam / mu(A)) / (1 - N lam pz(A) / mu(A)) * sum_{t in A} p_t z_t F(A - {t}),
    so that F(A) sums oracles.h_term over the orderings of A; a stay factor
    with a denominator <= 0 raises PoleError.

    An entry is a pair (coefficients, denominator), in the model's backend:
    integer numerators over one positive integer on an exact model, whose z
    _kappa has left exact (_integer_table); floats over 1 on a float model.
    """
    full = _all_types(model)
    if model.exact:
        return _integer_table(model, z, 0, full, False)
    nlam = model.n_servers * model.lam
    degrees = range(len(z[0]))
    pz = [[model.p[t] * c for c in z[t]] for t in model.type_indices]
    type_masks = [_server_mask(s) for s in model.job_types]
    f = {0: [1] + [0] * (len(degrees) - 1)}
    pz_sum, servers = {0: [0] * len(degrees)}, {0: 0}
    rates = {}  # N lam / mu by server mask, which many type sets share
    for a in range(1, full + 1):
        low = a & -a
        srv = servers[a] = servers[a ^ low] | type_masks[low.bit_length() - 1]
        pz_sum[a] = [x + y for x, y in zip(pz_sum[a ^ low], pz[low.bit_length() - 1])]
        if srv not in rates:
            rates[srv] = nlam / sum(model.mu[u] for u in _bits(srv))
        rate = rates[srv]
        arrivals = [sum(pz[t][i] * f[a ^ 1 << t][k - i] for t in _bits(a) for i in range(k + 1))
                    for k in degrees]
        stay = 1 - rate * pz_sum[a][0]
        if stay <= 0:
            _pole(a)
        # F (1 - rate pz(A)) = rate sum_t p_t z_t F(A - {t}), solved degree by degree
        fa = []
        for k in degrees:
            fa.append(rate * (arrivals[k] + sum(pz_sum[a][i] * fa[k - i] for i in range(1, k + 1)))
                      / stay)
        f[a] = fa
    return {a: (fa, 1) for a, fa in f.items()}


def _pole(a: int):
    raise PoleError(f"z is at or beyond a pole of the PGF (outside its domain) "
                    f"at the set of type indices {_bits(a)}")


def _integer_table(model: SystemModel, z, base: int, top: int, open_top: bool) -> dict:
    """F_base(A) for base <= A <= top, an exact model at an exact z, in integers:
    _prefix_table's recursion from F_base(base) = 1, over t in A - base. With
    open_top the entry at top leaves out its stay factor, which diverges
    where top is critical at lambda (_lattice's steps).

    With g_t = L p_t z_t, mu_u = m_u / M and N lam = a / b scaled to
    integers, each set solves
    F(A) (b L m(A) - a M g(A)) = a M sum_{t in A - base} g_t F(A - {t})
    degree by degree: its entry's coefficients are integers over the least
    common multiple q of its predecessors' denominators times e^n, for
    e = b L m(A) - a M g_0(A) the scaled stay factor and n the number of
    coefficients, reduced by one gcd. The stay factor of A is <= 0 where
    e <= 0; open_top's entry at top has the denominator q b L m(top).
    """
    types = _bits(top)
    size = len(z[0])
    scale, flat = _scaled([model.p[t] * c for t in types for c in z[t]])
    g = {t: flat[j * size:(j + 1) * size] for j, t in enumerate(types)}
    speed, mu = _scaled(model.mu)
    nlam = model.n_servers * model.lam
    outflow, inflow = nlam.denominator * scale, nlam.numerator * speed  # b L and a M
    type_masks = {t: _server_mask(model.job_types[t]) for t in types}
    f = {base: ([1] + [0] * (size - 1), 1)}
    g_sum = {base: [sum(g[t][k] for t in _bits(base)) for k in range(size)]}
    servers = {base: _server_mask(model.servers_of(_bits(base)))}
    leads = {}  # b L m(A) by server mask, which many type sets share
    free, sub = top & ~base, 0
    while sub != free:
        sub = (sub - free) & free  # the next subset of free, in increasing order
        a = base | sub
        low = sub & -sub
        srv = servers[a] = servers[a ^ low] | type_masks[low.bit_length() - 1]
        ga = g_sum[a] = [x + y for x, y in zip(g_sum[a ^ low], g[low.bit_length() - 1])]
        if srv not in leads:
            leads[srv] = outflow * sum(mu[u] for u in _bits(srv))
        preds = [(g[t], f[a ^ 1 << t]) for t in _bits(sub)]
        common = math.lcm(*(d for _, (_, d) in preds))
        if size == 1:
            arrivals = [sum(gt[0] * fs[0] * (common // d) for gt, (fs, d) in preds)]
        else:
            arrivals = [0] * size
            for gt, (fs, d) in preds:
                up = common // d
                for k in range(size):
                    arrivals[k] += up * sum(gt[i] * fs[k - i] for i in range(k + 1))
        if open_top and a == top:
            nums, den = [inflow * x for x in arrivals], common * leads[srv]
        else:
            e = leads[srv] - inflow * ga[0]
            if e <= 0:
                _pole(a)
            # x_k = F_k q e^(k+1): x_k = a M (r_k e^k + sum_{i >= 1} g_i(A) x_(k-i) e^(i-1))
            powers = [e ** k for k in range(size + 1)]
            xs = []
            for k in range(size):
                xs.append(inflow * (arrivals[k] * powers[k]
                                    + sum(ga[i] * xs[k - i] * powers[i - 1]
                                          for i in range(1, k + 1))))
            nums = [x * powers[size - 1 - k] for k, x in enumerate(xs)]
            den = common * powers[size]
        h = math.gcd(den, *nums)
        f[a] = ([x // h for x in nums], den // h)
    return f


def _prefix_series(model: SystemModel, z, kappa: tuple) -> list:
    """sum over the sets A of job types of F(A) * kappa(free(A)), a power series in s.

    F is _prefix_table's and kappa _kappa's weight pair, both in the model's
    backend. Exact sums run over one common denominator, divided once at the
    end into Fractions; on a float model every denominator is 1.
    """
    table = _prefix_table(model, z)
    weights, q = kappa
    total, den = [0] * len(z[0]), 1
    for a, (fa, d) in table.items():
        h = math.gcd(den, d)
        total = [x * (d // h) + weights[a] * y * (den // h) for x, y in zip(total, fa)]
        den = den // h * d
    return [Fraction(x, den * q) for x in total] if model.exact else total


def _pgf(model: SystemModel, z, discipline: str) -> Scalar:
    model, z, kappa = _kappa(model, discipline, z, "z value")
    # E[prod z_t^Q_t] converges absolutely where the series in |z| does: where
    # every stay factor at |z| is positive, as stability gives when all |z_t| <= 1
    if any(abs(x) > 1 for x in z):
        _prefix_table(model, [[abs(x)] for x in z])
    one = [[1]] * model.n_types
    return _prefix_series(model, [[x] for x in z], kappa)[0] / _prefix_series(model, one, kappa)[0]


def pgf_coc(model: SystemModel, z) -> Scalar:
    """Joint PGF of per-type job counts under cancel-on-completion: f(z)/f(1),
    with f(z) the sum of oracles.h_term over all ordered vectors of distinct types."""
    return _pgf(model, z, "coc")


def pgf_cos(model: SystemModel, z) -> Scalar:
    """Joint PGF of per-type *waiting* job counts under cancel-on-start: g(z)/g(1).

    g(z) sums oracles.h_term(T, z) times the ordered-idle-server weights of the
    servers compatible with no type in T.
    """
    return _pgf(model, z, "cos")


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
    for v in dag.subtree_types:
        gv = traj.gamma_of(v)
        rows.append(tuple((n * dag.lambda_star * model.p[t] / gv) if t in v else 0
                          for t in model.type_indices))
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
    _all_types(model)  # the steps' intervals have the cap of the full lattice
    ones = [[1]] * model.n_types
    comp_masks = [sum(1 << t for t in comp.types) for comp in dag.components]
    ideals, nodes, paths = set(dag.down_sets), {}, {0: 1}
    for d in dag.down_sets[1:]:
        hi = sum(m for i, m in enumerate(comp_masks) if d >> i & 1)
        g = traj.gamma_of(_bits(hi))
        steps = {}
        for i, m in enumerate(comp_masks):
            if d >> i & 1 and d ^ 1 << i in ideals:
                (num,), den = _integer_table(at_limit, ones, hi ^ m, hi, True)[hi]
                steps[d ^ 1 << i] = Fraction(num, den) * model.mu_of(_bits(hi)) / g
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
    _per_type(dag.model, t, "t value")
    c = [0] * len(t) if c is None else _per_type(dag.model, c, "weight")
    nodes, total = _lattice(dag, traj, repr(traj))
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
    _per_type(dag.model, t, "t value")
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


LIMIT_BLOCK = 8192  # rows of limit-law draws _limit_blocks makes at a time, which bounds its memory


def _limit_blocks(law, n: int, seed):
    """`sample_limit`'s n draws, in order, as (rows, |S|) blocks of at most
    LIMIT_BLOCK rows. Each block is the same buffer, overwritten by the next,
    so a caller keeps what it needs of one before it asks for another. The
    arguments are checked at the call, before any draw.

    The atoms' counts are split multinomially; an atom's draws are then
    unit-mean exponentials, K a row, times its coefficient matrix. A block
    takes the exponentials of whole rows in stream order, so the draws are
    those of one (count, K) array per atom. A block holds one row only where
    its atom has one draw: numpy multiplies a single row as a vector, which
    rounds otherwise than the matrix product of more rows."""
    if n < 1:
        raise DomainError("need n >= 1 samples")
    seed = _check_seed(seed)
    import numpy as np

    rng = np.random.default_rng(seed)
    counts = _draw_counts(rng, n, [w for (w, _, _) in law.atoms])
    coeffs = [np.asarray(c, dtype=float) for (_, c, _) in law.atoms]
    buffer = np.empty((min(n, LIMIT_BLOCK), coeffs[0].shape[1]))
    # the exponentials of a block, reused too; atoms may differ in K
    exponentials = np.empty(min(n, LIMIT_BLOCK) * max(a.shape[0] for a in coeffs))

    def blocks():
        for count, a in zip(counts, coeffs):
            while count:
                rows = min(LIMIT_BLOCK, count)
                if count - rows == 1:  # leave no single row for last
                    rows -= 1
                count -= rows
                u = exponentials[:rows * a.shape[0]].reshape(rows, a.shape[0])
                rng.standard_exponential(out=u)
                yield np.matmul(u, a, out=buffer[:rows])

    return blocks()


def sample_limit(law, n: int, seed) -> numpy.ndarray:
    """Monte-Carlo draws from a LimitLaw or MixtureLaw; returns (n, |S|) floats,
    the rows of each atom together, in the order of the atoms (`_limit_blocks`)."""
    import numpy as np

    blocks = _limit_blocks(law, n, seed)
    out = np.empty((n, len(law.atoms[0][1][0])))
    row = 0
    for block in blocks:
        out[row:row + len(block)] = block
        row += len(block)
    return out
