"""Closed-form moments of the queue lengths and their heavy-traffic limits.

The n-th pre-limit moment of the total number of jobs is n! times the
coefficient of s^n in the PGF at z_S = e^s for every type, read from the
prefix-set series of analytic._prefix_series (moment_total). The
Eulerian-number formula over ordered type vectors, built from the moments
of the geometric segment totals, computes the same value by enumeration
(oracles.moment_total_alt); its per-segment factors equal the composition-sum
factors by an exact polynomial identity, tested in oracles.moments_identity.

Limit moments are moments of the limit law along the trajectory, from
analytic.limiting_transform; on the default trajectory every row of it sums
to 1 and the total has the closed form (n+K-1)!/(K-1)!.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analytic import _prefix_series, limiting_transform
from .criticality import ComponentDag, CriticalityReport
from .errors import DomainError
from .model import Scalar, SystemModel, TrajectorySpec
from .prelimit import _kappa

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


def moment(model: SystemModel, req: MomentRequest, dag: ComponentDag = None,
           traj: TrajectorySpec = None) -> Scalar:
    """Dispatch a MomentRequest to the matching closed form.

    Pre-limit per-type moments are not exposed (only the total has a closed
    form for both disciplines); ask for the limit instead. Limits follow
    the trajectory traj, the default one when None, and need the dag.
    """
    if not req.limit:
        if req.target != "total":
            raise DomainError("per-type moments are exposed in the limit only")
        return moment_total(model, req.n, req.discipline)
    if dag is None:
        raise DomainError("a limit moment needs the dag argument")
    if req.target != "total":
        return limit_moment_type(model, dag, int(req.target.split(":", 1)[1]), req.n, traj)
    if traj is None:
        return limit_moment_total(dag.K, req.n)
    return _mixture_moment(dag, traj, req.n, [1] * model.n_types)


def moment_total(model: SystemModel, n: int, discipline: str = "coc") -> Scalar:
    """E[Q^n] (c.o.c.) or E[Qtilde^n] (c.o.s.): n! [s^n] of the PGF at z_S = e^s."""
    if not 1 <= n <= MOMENT_ORDER_CAP:
        raise DomainError(f"moment order must be in 1..{MOMENT_ORDER_CAP}")
    kappa = _kappa(model, discipline)
    exp_s = [Fraction(1, math.factorial(k)) for k in range(n + 1)]
    series = _prefix_series(model, [exp_s] * model.n_types, kappa)
    return math.factorial(n) * series[n] / series[0]


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


def _mixture_moment(dag: ComponentDag, traj: TrajectorySpec, n: int, c) -> Scalar:
    """E[(c.Y)^n] for Y the limit law on traj: n! [s^n] E[exp(s c.Y)]."""
    return math.factorial(n) * limiting_transform(dag, [0] * len(c), traj, c, n)[n]


def limit_moment_type(model: SystemModel, dag: ComponentDag, type_index: int, n: int,
                      traj: TrajectorySpec = None) -> Scalar:
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
