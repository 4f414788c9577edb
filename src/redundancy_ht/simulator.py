"""Event-driven simulation of the redundancy dynamics and a truncated-CTMC oracle.

The cancel-on-completion dynamics are simulated on the aggregated central
queue: each server works at its own speed on the earliest compatible job,
so a job's departure rate is the total speed of the servers whose earliest
compatible job it is (the incremental-rate form of the product-form chain).
A literal per-copy mode exists for differential testing at small scale.

Cancel-on-start is simulated as FCFS-ALIS: an arriving job is assigned to
the longest-idle compatible server if any, otherwise it waits; a freeing
server takes the earliest compatible waiting job.
"""
from __future__ import annotations

import math
import random
import time
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
import scipy.stats

from .criticality import require_stable
from .errors import CapExceeded, DomainError
from .model import SystemModel
from .prelimit import _check_discipline

STATE_CAP = 2_000_000
MIN_BATCHES = 20


@dataclass
class SimEstimate:
    discipline: str
    time_avg: np.ndarray  # per-type time-average queue length (waiting counts for cos)
    half_width: np.ndarray  # batch-means 95% half-widths, per type
    samples: np.ndarray  # (k, |S|) per-type counts at sampling epochs
    events: int
    wall_seconds: float
    time_avg_in_service: np.ndarray = None  # cos only: per-type in-service average

    @property
    def time_avg_total(self) -> float:
        return float(self.time_avg.sum())


def simulate(model: SystemModel, discipline: str, horizon_events: int,
             warmup_events: int = None, seed: int = 0, sample_every: int = 100,
             allow_unstable: bool = False, debug_checks: bool = False,
             literal_copies: bool = False) -> SimEstimate:
    """Run one replication and estimate steady-state per-type queue lengths.

    horizon_events counts post-warmup events; warm-up defaults to 20% of the
    horizon. Sampling epochs are every `sample_every`-th departure after
    warm-up. Deterministic for a fixed seed.
    """
    _check_discipline(discipline)
    if horizon_events < 1:
        raise DomainError("need at least one event")
    if warmup_events is None:
        warmup_events = horizon_events // 5
    try:
        require_stable(model)
    except DomainError as exc:
        if not allow_unstable:
            raise DomainError(f"{exc}; pass allow_unstable=True") from None
        warnings.warn(f"{exc}; simulating anyway")
    fmodel = model.as_float()
    if literal_copies and discipline != "coc":
        raise DomainError("literal-copies mode exists only for cancel-on-completion")
    start = time.perf_counter()
    if discipline == "coc":
        if literal_copies:
            res = _run_coc_literal(fmodel, horizon_events, warmup_events, seed, sample_every)
        else:
            res = _run_coc(fmodel, horizon_events, warmup_events, seed, sample_every,
                           debug_checks)
    else:
        res = _run_cos(fmodel, horizon_events, warmup_events, seed, sample_every,
                       debug_checks)
    integrals, batch_means, samples, extra = res
    wall = time.perf_counter() - start
    s = fmodel.n_types
    time_avg = integrals
    bm = np.asarray(batch_means)
    nb = bm.shape[0]
    if nb >= 2:
        tcrit = scipy.stats.t.ppf(0.975, nb - 1)
        half = tcrit * bm.std(axis=0, ddof=1) / math.sqrt(nb)
    else:
        half = np.full(s, np.inf)
    return SimEstimate(
        discipline=discipline,
        time_avg=time_avg,
        half_width=half,
        samples=np.asarray(samples, dtype=np.int64).reshape(-1, s),
        events=horizon_events,
        wall_seconds=wall,
        time_avg_in_service=extra,
    )


class _Accumulator:
    """Time integrals of per-type counts, total and per batch."""

    def __init__(self, n_types: int, horizon: int, n_batches: int = MIN_BATCHES):
        self.integral = np.zeros(n_types)
        self.elapsed = 0.0
        self.batch_integral = np.zeros((n_batches, n_types))
        self.batch_time = np.zeros(n_batches)
        self.per_batch = max(1, horizon // n_batches)
        self.n_batches = n_batches

    def add(self, counts, dt: float, event_index: int):
        b = min(event_index // self.per_batch, self.n_batches - 1)
        for t, c in enumerate(counts):
            self.integral[t] += c * dt
            self.batch_integral[b, t] += c * dt
        self.elapsed += dt
        self.batch_time[b] += dt

    def results(self):
        avg = self.integral / self.elapsed
        live = self.batch_time > 0
        means = self.batch_integral[live] / self.batch_time[live, None]
        return avg, means


def _cum_probs(fmodel: SystemModel):
    cum = []
    acc = 0.0
    for ps in fmodel.p:
        acc += ps
        cum.append(acc)
    cum[-1] = 1.0
    return cum


def _draw_type(cum, u: float) -> int:
    for i, c in enumerate(cum):
        if u <= c:
            return i
    return len(cum) - 1


def _run_coc(fmodel, horizon, warmup, seed, sample_every, debug_checks):
    rng = random.Random(seed)
    expo, unif = rng.expovariate, rng.random
    s, n = fmodel.n_types, fmodel.n_servers
    lam_total = float(n * fmodel.lam)
    mu = [float(m) for m in fmodel.mu]
    compat = [[t for t in range(s) if (srv + 1) in fmodel.job_types[t]] for srv in range(n)]
    compat_mask = [sum(1 << t for t in compat[srv]) for srv in range(n)]
    # lookup per nonempty-types bitmask: total busy rate and the busy (server, mu) pairs
    busy_table = []
    for mask in range(1 << s):
        pairs = [(srv, mu[srv]) for srv in range(n) if compat_mask[srv] & mask]
        busy_table.append((sum(m for _, m in pairs), pairs))
    cum = _cum_probs(fmodel)
    queues = [deque() for _ in range(s)]
    counts = [0] * s
    acc = _Accumulator(s, horizon)
    integral, batch_integral, batch_time = acc.integral, acc.batch_integral, acc.batch_time
    per_batch, last_batch = acc.per_batch, acc.n_batches - 1
    samples = []
    next_id = 0
    departures = 0
    mask = 0
    event = -warmup
    while event < horizon:
        busy_rate, busy = busy_table[mask]
        if debug_checks:
            present = {t for t in range(s) if queues[t]}
            assert abs(busy_rate - (float(fmodel.mu_of(present)) if present else 0.0)) < 1e-9
        total_rate = lam_total + busy_rate
        dt = expo(total_rate)
        if event >= 0:
            b = event // per_batch
            if b > last_batch:
                b = last_batch
            for t in range(s):
                c = counts[t] * dt
                integral[t] += c
                batch_integral[b, t] += c
            acc.elapsed += dt
            batch_time[b] += dt
        u = unif() * total_rate
        if u < lam_total:
            t = _draw_type(cum, u / lam_total)
            queues[t].append(next_id)
            next_id += 1
            counts[t] += 1
            mask |= 1 << t
        else:
            u -= lam_total
            chosen = busy[-1][0]
            for srv, m in busy:
                if u < m:
                    chosen = srv
                    break
                u -= m
            target, target_type = None, None
            for t in compat[chosen]:
                q = queues[t]
                if q and (target is None or q[0] < target):
                    target = q[0]
                    target_type = t
            queues[target_type].popleft()
            counts[target_type] -= 1
            if not queues[target_type]:
                mask &= ~(1 << target_type)
            departures += 1
            if event >= 0 and departures % sample_every == 0:
                samples.append(list(counts))
        event += 1
    avg, means = acc.results()
    return avg, means, samples, None


def _run_coc_literal(fmodel, horizon, warmup, seed, sample_every):
    """Per-copy bookkeeping: one FCFS copy queue per server, cancel siblings on completion."""
    rng = random.Random(seed)
    s, n = fmodel.n_types, fmodel.n_servers
    lam_total = n * fmodel.lam
    mu = [float(m) for m in fmodel.mu]
    cum = _cum_probs(fmodel)
    server_q = [deque() for _ in range(n)]
    alive = {}
    counts = [0] * s
    acc = _Accumulator(s, horizon)
    samples = []
    next_id = 0
    departures = 0

    def head(srv):
        q = server_q[srv]
        while q and q[0] not in alive:
            q.popleft()
        return q[0] if q else None

    event = -warmup
    while event < horizon:
        busy = [srv for srv in range(n) if head(srv) is not None]
        busy_rate = sum(mu[srv] for srv in busy)
        total_rate = lam_total + busy_rate
        dt = rng.expovariate(total_rate)
        if event >= 0:
            acc.add(counts, dt, event)
        u = rng.random() * total_rate
        if u < lam_total:
            t = _draw_type(cum, u / lam_total)
            alive[next_id] = t
            for srv in fmodel.job_types[t]:
                server_q[srv - 1].append(next_id)
            counts[t] += 1
            next_id += 1
        else:
            u -= lam_total
            chosen = busy[-1]
            for srv in busy:
                if u < mu[srv]:
                    chosen = srv
                    break
                u -= mu[srv]
            job = head(chosen)
            t = alive.pop(job)
            counts[t] -= 1
            departures += 1
            if event >= 0 and departures % sample_every == 0:
                samples.append(list(counts))
        event += 1
    avg, means = acc.results()
    return avg, means, samples, None


def _run_cos(fmodel, horizon, warmup, seed, sample_every, debug_checks):
    rng = random.Random(seed)
    s, n = fmodel.n_types, fmodel.n_servers
    lam_total = n * fmodel.lam
    mu = [float(m) for m in fmodel.mu]
    compat = [[t for t in range(s) if (srv + 1) in fmodel.job_types[t]] for srv in range(n)]
    cum = _cum_probs(fmodel)
    waiting = [deque() for _ in range(s)]
    wait_counts = [0] * s
    serving = [None] * n  # type index being served, or None
    in_service = [0] * s
    idle = list(range(n))  # longest idle first
    acc = _Accumulator(s, horizon)
    serve_integral = np.zeros(s)
    samples = []
    next_id = 0
    departures = 0
    event = -warmup
    while event < horizon:
        busy = [srv for srv in range(n) if serving[srv] is not None]
        busy_rate = sum(mu[srv] for srv in busy)
        if debug_checks:
            for srv in idle:
                assert all(not waiting[t] for t in compat[srv]), "idle server with compatible waiting job"
        total_rate = lam_total + busy_rate
        dt = rng.expovariate(total_rate)
        if event >= 0:
            acc.add(wait_counts, dt, event)
            for t in range(s):
                serve_integral[t] += in_service[t] * dt
        u = rng.random() * total_rate
        if u < lam_total:
            t = _draw_type(cum, u / lam_total)
            assigned = None
            for pos, srv in enumerate(idle):
                if t in compat[srv]:
                    assigned = pos
                    break
            if assigned is not None:
                srv = idle.pop(assigned)
                serving[srv] = t
                in_service[t] += 1
            else:
                waiting[t].append(next_id)
                wait_counts[t] += 1
            next_id += 1
        else:
            u -= lam_total
            chosen = busy[-1]
            for srv in busy:
                if u < mu[srv]:
                    chosen = srv
                    break
                u -= mu[srv]
            t_done = serving[chosen]
            in_service[t_done] -= 1
            serving[chosen] = None
            target, target_type = None, None
            for t in compat[chosen]:
                if waiting[t] and (target is None or waiting[t][0] < target):
                    target = waiting[t][0]
                    target_type = t
            if target_type is not None:
                waiting[target_type].popleft()
                wait_counts[target_type] -= 1
                serving[chosen] = target_type
                in_service[target_type] += 1
            else:
                idle.append(chosen)
            departures += 1
            if event >= 0 and departures % sample_every == 0:
                samples.append(list(wait_counts))
        event += 1
    avg, means = acc.results()
    return avg, means, samples, serve_integral / acc.elapsed


# ---------------------------------------------------------------------------
# Convergence checking against a limit law
# ---------------------------------------------------------------------------

def ks_two_sample(a, b):
    """Two-sample KS statistic plus the alpha=0.01 asymptotic critical value."""
    stat = scipy.stats.ks_2samp(a, b).statistic
    n, m = len(a), len(b)
    crit = math.sqrt(-math.log(0.01 / 2) / 2) * math.sqrt((n + m) / (n * m))
    return float(stat), crit


@dataclass
class ScaledLawRow:
    eps: float
    ks_per_type: tuple
    ks_total: float
    ks_total_critical: float
    mean_scaled: tuple
    scaled_samples: np.ndarray = None


def scaled_law_check(model: SystemModel, lam_star, law, discipline, eps_values,
                     events_per_eps, seed: int = 0, sample_every: int = None,
                     law_samples: int = 100_000, keep_samples: bool = False) -> list:
    """Simulate along the lambda = (1-eps) lambda* ray and compare eps*Q with the law.

    Returns one row per eps with per-marginal and total two-sample KS
    distances against Monte-Carlo draws from `law`. Sampling epochs default
    to ~eps^-2 events apart so that the KS samples are effectively
    independent at every eps on the grid.
    """
    from .analytic import sample_limit

    rows = []
    ref = sample_limit(law, law_samples, seed=seed + 999)
    ref_total = ref.sum(axis=1)
    for i, eps in enumerate(eps_values):
        pre = model.as_float().with_lambda((1.0 - eps) * float(lam_star))
        spacing = sample_every if sample_every is not None else max(100, int(8.0 / eps ** 2))
        horizon = events_per_eps if isinstance(events_per_eps, int) else events_per_eps[i]
        est = simulate(pre, discipline, horizon_events=horizon, seed=seed + i,
                       sample_every=spacing)
        scaled = est.samples * eps
        ks_types = tuple(ks_two_sample(scaled[:, t], ref[:, t])[0]
                         for t in range(model.n_types))
        ks_tot, crit = ks_two_sample(scaled.sum(axis=1), ref_total)
        rows.append(ScaledLawRow(eps=float(eps), ks_per_type=ks_types, ks_total=ks_tot,
                                 ks_total_critical=crit,
                                 mean_scaled=tuple(float(eps * x) for x in est.time_avg),
                                 scaled_samples=scaled if keep_samples else None))
    return rows


# ---------------------------------------------------------------------------
# Truncated-CTMC oracle (cancel-on-completion)
# ---------------------------------------------------------------------------

def _enumerate_states(n_types: int, cap_len: int):
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
        if len(states) > STATE_CAP:
            raise CapExceeded(
                f"truncated state space exceeds {STATE_CAP} states; lower truncation_len")
    return states


def ctmc_oracle(model: SystemModel, discipline: str = "coc", truncation_len: int = 10):
    """Solve the truncated central-queue chain and evaluate its product form.

    Truncation rejects arrivals once the list holds `truncation_len` jobs.
    Returns (pi_solve, pi_product, tv_distance) where both distributions are
    dicts over type-label tuples. Only cancel-on-completion has a central-
    queue product form; requesting "cos" raises DomainError.
    """
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
    rest = scipy.sparse.linalg.spsolve(reduced.tocsr(), rhs)
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
