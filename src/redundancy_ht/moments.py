"""Closed-form moments of the queue lengths and their heavy-traffic limits.

The n-th pre-limit moment of the total number of jobs is n! times the
coefficient of s^n in the PGF at z_S = e^s for every type, read from the
prefix-set series of analytic._prefix_series (moment_total). The
Eulerian-number formula over ordered type vectors, built from the moments
of the geometric segment totals, computes the same value by enumeration
(moment_total_alt); its per-segment factors equal the composition-sum
factors by an exact polynomial identity, tested in moments_identity.

Limit moments are moments of the limit law along the trajectory, from
analytic.limiting_transform; on the default trajectory every row of it sums
to 1 and the total has the closed form (n+K-1)!/(K-1)!.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .analytic import _prefix_series, limiting_transform, ordered_vector
from .criticality import ComponentDag, CriticalityReport
from .errors import DomainError
from .model import Scalar, SystemModel, TrajectorySpec
from .prelimit import _kappa, config_distribution

MOMENT_ORDER_CAP = 12


@dataclass(frozen=True)
class MomentRequest:
    """What to compute: order n, total or a single type, and the discipline."""

    n: int
    target: str = "total"  # "total" or "type:<index>"
    discipline: str = "coc"
    limit: bool = False

    def __post_init__(self):
        if not 1 <= self.n <= MOMENT_ORDER_CAP:
            raise DomainError(f"moment order must be in 1..{MOMENT_ORDER_CAP}")
        kind, _, index = self.target.partition(":")
        if self.target != "total" and (kind != "type" or not index.isdecimal()):
            raise DomainError(f"target must be 'total' or 'type:<index>', got {self.target!r}")


def moment(model: SystemModel, req: MomentRequest, report: CriticalityReport = None,
           dag: ComponentDag = None, traj: TrajectorySpec = None) -> Scalar:
    """Dispatch a MomentRequest to the matching closed form.

    Pre-limit per-type moments are not exposed (only the total has a closed
    form for both disciplines); ask for the limit instead. Limits follow
    the trajectory traj, the default one when None.
    """
    if req.target == "total":
        if not req.limit:
            return moment_total(model, req.n, req.discipline)
        if traj is None:
            return limit_moment_total(_need(report, "report"), req.n)
        return _mixture_moment(_need(dag, "dag"), traj, req.n, [1] * model.n_types)
    idx = int(req.target.split(":", 1)[1])
    if not req.limit:
        raise DomainError("per-type moments are exposed in the limit only")
    return limit_moment_type(model, _need(report, "report"), _need(dag, "dag"), idx, req.n,
                             traj)


def _need(obj, name):
    if obj is None:
        raise DomainError(f"this request needs the {name} argument")
    return obj


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


def moment_total(model: SystemModel, n: int, discipline: str = "coc") -> Scalar:
    """E[Q^n] (c.o.c.) or E[Qtilde^n] (c.o.s.): n! [s^n] of the PGF at z_S = e^s."""
    if not 1 <= n <= MOMENT_ORDER_CAP:
        raise DomainError(f"moment order must be in 1..{MOMENT_ORDER_CAP}")
    kappa = _kappa(model, discipline)
    exp_s = [Fraction(1, math.factorial(k)) for k in range(n + 1)]
    series = _prefix_series(model, [exp_s] * model.n_types, kappa)
    return math.factorial(n) * series[n] / series[0]


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


def limit_moment_total(report_or_k, n: int) -> int:
    """Limit of E[((1 - lam/lam*) Q)^n]: (n+K-1)!/(K-1)! for both disciplines."""
    k = report_or_k.depth_K if isinstance(report_or_k, CriticalityReport) else int(report_or_k)
    if n < 1:
        raise DomainError("moment order must be >= 1")
    return math.factorial(n + k - 1) // math.factorial(k - 1)


def scaled_total_moment(model: SystemModel, lam_star: Scalar, eps: Scalar, n: int,
                        discipline: str = "coc") -> Scalar:
    """((1 - lam/lam*)^n) E[Q^n] evaluated at lam = (1-eps) lam*."""
    pre = model.with_lambda((1 - eps) * lam_star)
    return eps ** n * moment_total(pre, n, discipline)


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


def _mixture_moment(dag: ComponentDag, traj: TrajectorySpec, n: int, c) -> Scalar:
    """E[(c.Y)^n] for Y the limit law on traj: n! [s^n] E[exp(s c.Y)]."""
    return math.factorial(n) * limiting_transform(dag, [0] * len(c), traj, c, n)[n]


def limit_moment_type(model: SystemModel, report: CriticalityReport, dag: ComponentDag,
                      type_index: int, n: int, traj: TrajectorySpec = None) -> Scalar:
    """Limit of E[((1 - lam/lam*) Q_S)^n] for one job type (c.o.c. and c.o.s. alike).

    Sums over topological orders sigma with their limiting weights on the
    trajectory traj (the default one when None); within a sigma, type S
    draws coefficient N*lambda* p_S / gamma(prefix) from every component at
    or after the one containing S, and non-critical types get 0.
    """
    if type_index not in set(model.type_indices):
        raise DomainError(f"unknown type index {type_index}")
    if type_index in dag.non_critical_types:
        return 0
    return _mixture_moment(dag, traj, n, [int(t == type_index) for t in model.type_indices])


def limit_response_time(report: CriticalityReport, model: SystemModel) -> Scalar:
    """Limit of (1 - lam/lam*) E[R] via Little's law: K / (N lam*)."""
    return report.depth_K / (model.n_servers * report.lambda_star)
