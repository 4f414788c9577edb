"""The paper's formulas as written, term by term, kept as oracles.

Sums over ordered vectors of distinct job types, the sigma aggregation and
its closed forms, the Eulerian-number moments, the scans of all nonempty
type subsets and the truncated central-queue CTMC. The production modules
compute the same quantities by other routes and import nothing from here;
the tests, the demos and the acceptance battery compare the two exactly.
Each enumeration refuses (CapExceeded) beyond its cap.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .analytic import MixtureLaw, _check_discipline, _direction, _free_idle_sum, _kappa
from .criticality import ComponentDag, CriticalityReport, _classify, _require_exact
from .errors import CapExceeded, ConsistencyError, DomainError, PoleError
from .model import Record, Scalar, SystemModel, TrajectorySpec
from .prelimit import MOMENT_ORDER_CAP

ENUM_CAP = 8  # listing ordered type vectors refuses beyond this many types
BRUTEFORCE_CAP = 20  # refuse 2^|S| scans beyond this many job types
STATE_CAP = 2_000_000


# ---------------------------------------------------------------------------
# Ordered type vectors
# ---------------------------------------------------------------------------

class OrderedTypeVector(Record):
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


def config_distribution(model: SystemModel, discipline: str = "coc") -> tuple:
    """Stationary distribution over ordered first-occurrence vectors.

    Returns (entries_tuples, probabilities) aligned by index; the empty
    vector is included. c.o.c. weights are h(T, 1); c.o.s. weights carry the
    extra ordered-idle-server factor k(T), the idle-server sum over the
    servers compatible with no type in T. This lists every ordered vector
    and serves as the oracle of sample_prelimit's peeling probabilities.
    """
    model, _, kappa = _kappa(model, discipline)
    ones = [1] * model.n_types
    entries_list, weights = [], []
    for entries in iter_ordered_type_tuples(model):
        entries_list.append(entries)
        weights.append(h_term(model, entries, ones) * _free_idle_sum(kappa, entries))
    total = sum(weights)
    return tuple(entries_list), tuple(w / total for w in weights)


def config_prob(model: SystemModel, entries, discipline: str = "coc") -> Scalar:
    """Stationary probability that the first-occurrence vector equals `entries`."""
    entries = tuple(entries)
    all_entries, probs = config_distribution(model, discipline)
    try:
        return probs[all_entries.index(entries)]
    except ValueError:
        raise DomainError(f"{entries} is not an ordered vector of distinct types") from None


class RepresentationMatrices(Record):
    """P(T), W(T) and the indicator vector of the queue-vector representation.

    P is the |S| x |S| permutation aligning T-order rows to type order
    (absent types padded in ascending index order); W is |S| x k with
    W[i-1][l-1] = p_{T_i}/p(T, i_l) for i <= i_l; the conditional limit of
    the scaled queue vector given T is P W U with U the i.i.d. exponentials.
    """

    entries: tuple
    P: numpy.ndarray
    W: tuple
    indicator: numpy.ndarray


def representation_matrices(model: SystemModel, report: CriticalityReport,
                            entries) -> RepresentationMatrices:
    import numpy as np

    entries = tuple(entries)
    vec = ordered_vector(model, entries, report.critical_subsets)
    s = model.n_types
    perm = np.zeros((s, s), dtype=np.int64)
    tbar = [t for t in model.type_indices if t not in entries]
    for j, t in enumerate(entries):
        perm[t, j] = 1
    for j, t in enumerate(tbar, start=len(entries)):
        perm[t, j] = 1
    w_rows = []
    for i in range(1, s + 1):
        row = []
        for i_l in vec.cr_indices:
            if i <= i_l and i <= len(entries):
                row.append(model.p[entries[i - 1]] / vec.prefix_p[i_l - 1])
            else:
                row.append(0)
        w_rows.append(tuple(row))
    indicator = np.asarray([1 if t in entries else 0 for t in model.type_indices],
                           dtype=np.int64)
    return RepresentationMatrices(entries=entries, P=perm, W=tuple(w_rows),
                                  indicator=indicator)


# ---------------------------------------------------------------------------
# The K-critical mixture, its weights and its aggregation over orders sigma
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


def laplace_of_mixture(mixture: MixtureLaw, t) -> Scalar:
    """sum_T P*(T) prod_{i in CR(T)} (1 + ...)^-1, evaluated from the atom coefficients."""
    total = 0
    for (w, coeffs, _) in mixture.atoms:
        term = w
        for row in coeffs:
            term = term / (1 + sum(ts * a for ts, a in zip(t, row)))
        total = total + term
    return total


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
    for v in dag.subtree_types:
        val = val / dag.model.p_of(v)
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
    for v in dag.subtree_types:
        val = val * traj.gamma_of(v)
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
    for v in dag.subtree_types:
        rhs = rhs / sum(c[j] for j, comp in enumerate(dag.components) if comp.types <= v)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Moments: the Eulerian-number formulation and its identities
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def eulerian(k: int, l: int) -> int:
    """Eulerian number <k, l>: permutations of 1..k with exactly l ascents.

    <0,0> = 1; out-of-range l gives 0 (in particular l >= k >= 1).
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    if l < 0 or l > k:
        return 0
    if k == 0:
        return 1 if l == 0 else 0
    if l >= k:
        return 0
    return (l + 1) * eulerian(k - 1, l) + (k - l) * eulerian(k - 1, l - 1)


@lru_cache(maxsize=None)
def compositions_by_parts(k: int) -> tuple:
    """R(k): all m in N^k with 1*m_1 + 2*m_2 + ... + k*m_k = k."""
    if k == 0:
        return ((),)
    out = []

    def rec(j, remaining, acc):
        if j > k:
            if remaining == 0:
                out.append(tuple(acc))
            return
        for mj in range(remaining // j + 1):
            acc.append(mj)
            rec(j + 1, remaining - j * mj, acc)
            acc.pop()

    rec(1, k, [])
    return tuple(out)


def _multinomial(parts) -> int:
    total = sum(parts)
    val = 1
    for p in parts:
        val *= math.comb(total, p)
        total -= p
    return val


def geometric_moment_factor(k: int, b: Scalar) -> Scalar:
    """E[(Q)^k]/k! for Q geometric with parameter b, in composition-sum form.

    This is the inner factor of the total-moment formula: sum over m in R(k)
    of multinom(|m|; m) (1-b)^-|m| prod_j b^{m_j}/(j!)^{m_j}; equals 1 for k=0.
    """
    if k == 0:
        return 1
    total = 0
    for m in compositions_by_parts(k):
        card = sum(m)
        term = _multinomial(m) * (1 - b) ** (-card)
        for j, mj in enumerate(m, start=1):
            if mj:
                term = term * b ** mj / math.factorial(j) ** mj
        total = total + term
    return total


def geometric_moment_eulerian(k: int, b: Scalar) -> Scalar:
    """E[Q^k] for Q geometric with parameter b, via Eulerian numbers."""
    if k == 0:
        return 1
    val = (b / (1 - b)) ** k
    return val * sum(eulerian(k, l) * b ** (-l) for l in range(k + 1))


def moments_identity(k: int, p: Scalar):
    """(lhs, rhs): Eulerian form over k! versus the composition-sum form."""
    if not 0 < p < 1:
        raise DomainError("p must lie in (0,1)")
    lhs = geometric_moment_eulerian(k, p) / math.factorial(k) if k else 1
    rhs = geometric_moment_factor(k, p)
    return lhs, rhs


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def moment_total_alt(model: SystemModel, n: int) -> Scalar:
    """E[Q^n] via the Eulerian-number formulation (c.o.c. only)."""
    if not 1 <= n <= MOMENT_ORDER_CAP:
        raise DomainError(f"moment order must be in 1..{MOMENT_ORDER_CAP}")
    entries_list, probs = config_distribution(model, "coc")
    nn, lam = model.n_servers, model.lam
    total = 0
    for entries, prob in zip(entries_list, probs):
        if not entries:
            continue
        vec = ordered_vector(model, entries, frozenset())
        m = len(entries)
        bs = [nn * lam * vec.prefix_p[j] / vec.prefix_mu[j] for j in range(m)]
        acc = 0
        for ks in _compositions(n, m + 1):
            k0, rest = ks[0], ks[1:]
            term = _frac_or_float(m ** k0, math.factorial(k0), bs)
            for j, kj in enumerate(rest):
                term = term * geometric_moment_eulerian(kj, bs[j]) / math.factorial(kj)
            acc = acc + term
        total = total + acc * prob
    return math.factorial(n) * total


def _frac_or_float(num, den, sample):
    if sample and isinstance(sample[0], float):
        return num / den
    return Fraction(num, den)


def linear_exponential_moment(coeffs, n: int) -> Scalar:
    """E[(sum_k a_k U_k)^n] = n! sum_{|n|=n} prod a_k^{n_k} for independent unit exponentials."""
    total = 0
    for ks in _compositions(n, len(coeffs)):
        term = 1
        for a, k in zip(coeffs, ks):
            if k:
                term = term * a ** k
        total = total + term
    return math.factorial(n) * total


# ---------------------------------------------------------------------------
# Subset scans: stability and lambda* by definition
# ---------------------------------------------------------------------------

def _nonempty_subsets(n: int):
    for mask in range(1, 1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


def check_stability(model: SystemModel):
    """Return (stable, witness): stable iff N*lambda*p(T) < mu(T) for all nonempty T.

    On failure the witness is a violating subset of minimum cardinality
    (hence inclusion-minimal).
    """
    if model.n_types > BRUTEFORCE_CAP:
        raise CapExceeded(
            f"{model.n_types} job types exceeds the subset-scan cap {BRUTEFORCE_CAP}")
    n = model.n_servers
    best = None
    for sub in sorted(_nonempty_subsets(model.n_types), key=len):
        if n * model.lam * model.p_of(sub) >= model.mu_of(sub):
            best = sub
            break
    return (best is None), best


def critical_rate_and_subsets_bruteforce(model: SystemModel) -> CriticalityReport:
    """Scan all nonempty subsets for lambda* = (1/N) min mu(T)/p(T) and the argmin set."""
    _require_exact(model, "brute-force criticality")
    if model.n_types > BRUTEFORCE_CAP:
        raise CapExceeded(
            f"{model.n_types} job types exceeds the brute-force cap {BRUTEFORCE_CAP}; "
            "use the construction route (crp_components)")
    n = model.n_servers
    ratios = {sub: Fraction(model.mu_of(sub), n * model.p_of(sub))
              for sub in _nonempty_subsets(model.n_types)}
    lam_star = min(ratios.values())
    critical = frozenset(sub for sub, r in ratios.items() if r == lam_star)
    depth = _longest_nesting_chain(critical)
    return CriticalityReport(
        lambda_star=lam_star,
        critical_subsets=critical,
        depth_K=depth,
        crp_class=_classify(critical, model.n_types),
    )


def _longest_nesting_chain(subsets) -> int:
    order = sorted(subsets, key=len)
    best = {}
    for i, sub in enumerate(order):
        best[sub] = 1 + max((best[prev] for prev in order[:i] if prev < sub), default=0)
    return max(best.values())


# ---------------------------------------------------------------------------
# Truncated-CTMC oracle (cancel-on-completion)
# ---------------------------------------------------------------------------

def _enumerate_states(n_types: int, cap_len: int):
    # sum_k n_types^k states for k <= cap_len, counted before any is listed
    total, level = 0, 1
    for _ in range(cap_len + 1):
        total += level
        level *= n_types
        if total > STATE_CAP:
            raise CapExceeded(
                f"truncated state space exceeds {STATE_CAP} states; lower truncation_len")
    states = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for st in frontier:
            if len(st) < cap_len:
                for t in range(n_types):
                    nxt.append(st + (t,))
        states.extend(nxt)
        frontier = nxt
    return states


def ctmc_oracle(model: SystemModel, discipline: str = "coc", truncation_len: int = 10):
    """Solve the truncated central-queue chain and evaluate its product form.

    Truncation rejects arrivals once the list holds `truncation_len` jobs.
    Returns (pi_solve, pi_product, tv_distance) where both distributions are
    dicts over type-label tuples. Only cancel-on-completion has a central-
    queue product form; requesting "cos" raises DomainError. numpy and
    scipy.sparse are imported here, when called, so that importing the
    package loads neither.
    """
    import numpy as np
    import scipy.sparse
    import scipy.sparse.linalg

    _check_discipline(discipline)
    if discipline != "coc":
        raise DomainError("the central-queue product-form oracle exists for coc only")
    fmodel = model.as_float()
    states = _enumerate_states(fmodel.n_types, truncation_len)
    index = {st: i for i, st in enumerate(states)}
    n = fmodel.n_servers
    lam_total = n * fmodel.lam
    rows, cols, vals = [], [], []
    diag = np.zeros(len(states))

    def add(i, j, rate):
        rows.append(i)
        cols.append(j)
        vals.append(rate)
        diag[i] -= rate

    mu_cache = {}

    def mu_prefix(types_fs):
        if types_fs not in mu_cache:
            mu_cache[types_fs] = float(fmodel.mu_of(types_fs))
        return mu_cache[types_fs]

    for st, i in index.items():
        if len(st) < truncation_len:
            for t in range(fmodel.n_types):
                add(i, index[st + (t,)], lam_total * fmodel.p[t])
        prev = 0.0
        seen = set()
        for pos, t in enumerate(st):
            seen.add(t)
            cur = mu_prefix(frozenset(seen))
            rate = cur - prev
            prev = cur
            if rate > 0:
                add(i, index[st[:pos] + st[pos + 1:]], rate)
    m = len(states)
    rows.extend(range(m))
    cols.extend(range(m))
    vals.extend(diag)
    gen_t = scipy.sparse.csr_matrix((vals, (cols, rows)), shape=(m, m))
    # pi G = 0 with pi[0] pinned to 1: drop the redundant first balance
    # equation and move the first column to the right-hand side (keeps the
    # system sparse; a dense normalization row would destroy the solve).
    gen_csc = gen_t.tocsc()
    reduced = gen_csc[1:, 1:]
    rhs = -gen_csc[1:, 0].toarray().ravel()
    # BiCGSTAB converges in a few dozen steps where SuperLU's fill-in takes
    # seconds; its answer stands only at a relative residual below 1e-12
    reduced = reduced.tocsr()
    rest, info = scipy.sparse.linalg.bicgstab(reduced, rhs, rtol=1e-13)
    if info or np.linalg.norm(reduced @ rest - rhs) >= 1e-12 * np.linalg.norm(rhs):
        rest = scipy.sparse.linalg.spsolve(reduced, rhs)
    pi = np.concatenate(([1.0], rest))
    pi = np.maximum(pi, 0)
    pi = pi / pi.sum()

    pf = np.empty(m)
    for st, i in index.items():
        val = 1.0
        seen = set()
        for t in st:
            seen.add(t)
            val *= lam_total * fmodel.p[t] / mu_prefix(frozenset(seen))
        pf[i] = val
    pf = pf / pf.sum()
    tv = 0.5 * float(np.abs(pi - pf).sum())
    labels = [tuple(st) for st in states]
    return (dict(zip(labels, pi)), dict(zip(labels, pf)), tv)


def config_marginals_from_oracle(model: SystemModel, pi: dict) -> dict:
    """Aggregate an oracle distribution to first-occurrence vectors (for cross-checks)."""
    out = {}
    for st, prob in pi.items():
        seen = []
        for t in st:
            if t not in seen:
                seen.append(t)
        key = tuple(seen)
        out[key] = out.get(key, 0.0) + prob
    return out
