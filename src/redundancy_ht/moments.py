"""Moments of linear functionals c.Q of the queue vector and their
heavy-traffic limits, for c = 1 (the total) or the indicator of one type.

The n-th pre-limit moment E[(c.Q)^n] is n! times the coefficient of s^n in
the PGF at z_t = e^{c_t s}, read from one prefix-set series by
prelimit.linear_moment; moment_total is its c = 1. For the total the
Eulerian-number formula over ordered type vectors, built from the moments
of the geometric segment totals, computes the same value by enumeration
(oracles.moment_total_alt); its per-segment factors equal the composition-sum
factors by an exact polynomial identity, tested in oracles.moments_identity.

The limit of eps^n E[(c.Q)^n] is E[(c.Y)^n] for Y the limit law along the
trajectory, from analytic.limiting_transform; it is 0 when c vanishes on
every critical type. On the default trajectory every row of the law sums
to 1 and the total has the closed form (n+K-1)!/(K-1)!.
"""
from __future__ import annotations

import math

from .analytic import limiting_transform
from .criticality import ComponentDag, CriticalityReport
from .errors import DomainError
from .model import Scalar, SystemModel, TrajectorySpec
from .prelimit import MOMENT_ORDER_CAP, linear_moment


def moment(model: SystemModel, n: int, target: str = "total", discipline: str = "coc",
           limit: bool = False, dag: ComponentDag = None, traj: TrajectorySpec = None) -> Scalar:
    """E[(c.Q)^n] for c = 1 (target "total") or the indicator of one type
    ("type:<index>"): pre-limit under the discipline, or with limit its limit
    along the trajectory traj (the default one when None), which needs the dag.

    In the limit the total on the default trajectory takes its closed form,
    and a c that vanishes on every critical type gives 0.
    """
    if not 1 <= n <= MOMENT_ORDER_CAP:
        raise DomainError(f"moment order must be in 1..{MOMENT_ORDER_CAP}")
    c = [1] * model.n_types
    if target != "total":
        kind, _, index = target.partition(":")
        if kind != "type" or not index.isdecimal():
            raise DomainError(f"target must be 'total' or 'type:<index>', got {target!r}")
        digits = index.lstrip("0") or "0"
        if len(digits) > len(str(model.n_types)):  # int() refuses beyond 4,300 digits
            raise DomainError(f"unknown type index of {len(digits)} digits")
        index = int(digits)
        if index not in model.type_indices:
            raise DomainError(f"unknown type index {index}")
        c = [int(t == index) for t in model.type_indices]
    if not limit:
        return linear_moment(model, c, n, discipline)
    if dag is None:
        raise DomainError("a limit moment needs the dag argument")
    if target == "total" and traj is None:
        return limit_moment_total(dag.K, n)
    if not any(c[t] for comp in dag.components for t in comp.types):
        return 0
    return _mixture_moment(dag, traj, n, c)


def moment_total(model: SystemModel, n: int, discipline: str = "coc") -> Scalar:
    """E[Q^n] (c.o.c.) or E[Qtilde^n] (c.o.s.): n! [s^n] of the PGF at z_S = e^s."""
    return linear_moment(model, [1] * model.n_types, n, discipline)


def limit_moment_total(k: int, n: int) -> int:
    """Limit of E[((1 - lam/lam*) Q)^n] for K = k: (n+K-1)!/(K-1)! for both disciplines."""
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


def limit_response_time(report: CriticalityReport, model: SystemModel) -> Scalar:
    """Limit of (1 - lam/lam*) E[R] via Little's law: K / (N lam*)."""
    return report.depth_K / (model.n_servers * report.lambda_star)
