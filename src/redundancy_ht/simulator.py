"""Event-driven simulation of the redundancy dynamics and a truncated-CTMC oracle.

One event loop (`_run`) serves every discipline: it draws the time to the
next transition at the total rate, then an arrival of a random type or a
completion at a server chosen in proportion to its speed, and leaves what
these do to a queue policy with `busy()`, `arrive(t)`, `finish(server)` and
an invariant `check()`:

- `_CentralQueue`: cancel-on-completion on the aggregated central queue.
  Each server works on the earliest compatible job, so a job departs at
  the total speed of the servers whose earliest compatible job it is.
- `_CopyQueues`: literal cancel-on-completion, one FCFS copy queue per
  server; the reference for differential tests, on the same sample path.
- `_FcfsAlis`: cancel-on-start. An arriving job goes to the longest-idle
  compatible server, else it waits; a freed server takes the earliest
  compatible waiting job.

Busy rates are looked up per state mask (`_BusyRates`, filled on first
use), and counts go to one lazily integrated accumulator (`_Integrals`).
"""
from __future__ import annotations

import bisect
import itertools
import math
import random
import time
import warnings
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
import scipy.stats

from .criticality import require_stable
from .errors import CapExceeded, DomainError
from .model import SystemModel, TrajectorySpec, default_trajectory, model_at_trajectory
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
    if warmup_events < 0:
        raise DomainError(f"need a nonnegative warm-up, got {warmup_events} events")
    if sample_every < 1:
        raise DomainError(f"need sample_every >= 1, got {sample_every}")
    if literal_copies and discipline != "coc":
        raise DomainError("literal-copies mode exists only for cancel-on-completion")
    try:
        require_stable(model)
    except DomainError as exc:
        if not allow_unstable:
            raise DomainError(f"{exc}; pass allow_unstable=True") from None
        warnings.warn(f"{exc}; simulating anyway")
    fmodel = model.as_float()
    if discipline == "cos":
        policy = _FcfsAlis(fmodel)
    else:
        policy = _CopyQueues(fmodel) if literal_copies else _CentralQueue(fmodel)
    start = time.perf_counter()
    batches, samples = _run(policy, fmodel, horizon_events, warmup_events, seed,
                            sample_every, debug_checks)
    wall = time.perf_counter() - start
    s = fmodel.n_types
    areas = np.array([area for area, _ in batches])
    durations = np.array([duration for _, duration in batches])
    time_avg = areas.sum(axis=0) / durations.sum()
    bm = areas[:, :s] / durations[:, None]
    nb = bm.shape[0]
    if nb >= 2:
        tcrit = scipy.stats.t.ppf(0.975, nb - 1)
        half = tcrit * bm.std(axis=0, ddof=1) / math.sqrt(nb)
    else:
        half = np.full(s, np.inf)
    return SimEstimate(
        discipline=discipline,
        time_avg=time_avg[:s],
        half_width=half,
        samples=np.asarray(samples, dtype=np.int64).reshape(-1, s),
        events=horizon_events,
        wall_seconds=wall,
        time_avg_in_service=time_avg[s:] if discipline == "cos" else None,
    )


def _run(policy, fmodel, horizon, warmup, seed, sample_every, debug_checks):
    """The event loop: returns the policy's batch integrals and the sampled type counts."""
    rng = random.Random(seed)
    expo, unif = rng.expovariate, rng.random
    s = fmodel.n_types
    lam_total = fmodel.n_servers * fmodel.lam
    cum = list(itertools.accumulate(fmodel.p))
    cum[-1] = 1.0  # no rounding gap at the top
    acc, busy_now, arrive, finish = policy.acc, policy.busy, policy.arrive, policy.finish
    per_batch = max(1, horizon // MIN_BATCHES)
    cuts = iter(range(per_batch, per_batch * MIN_BATCHES, per_batch))
    next_cut = next(cuts)
    samples = []
    departures = 0
    for event in range(-warmup, horizon):
        if debug_checks:
            policy.check()
        busy_rate, busy = busy_now()
        total_rate = lam_total + busy_rate
        dt = expo(total_rate)
        if event >= 0:
            if event == next_cut:
                acc.cut()
                next_cut = next(cuts, None)
            acc.now += dt
        u = unif() * total_rate
        if u < lam_total:
            arrive(bisect.bisect_left(cum, u / lam_total))
        else:
            u -= lam_total
            chosen = busy[-1][0]
            for srv, m in busy:
                if u < m:
                    chosen = srv
                    break
                u -= m
            finish(chosen)
            departures += 1
            if event >= 0 and departures % sample_every == 0:
                samples.append(acc.count[:s])
    acc.cut()
    return acc.batches, samples


class _Integrals:
    """Time integrals of integer counts, one channel per count, cut into batches.

    A channel's area is brought up to date only when its count changes, and
    every channel's at a batch cut. The clock restarts at 0 after each cut
    and stays at 0 during warm-up, so warm-up is not integrated.
    """

    def __init__(self, channels: int):
        self.count = [0] * channels
        self.batches = []  # (area per channel, duration) of each finished batch
        self._restart()

    def _restart(self):
        self.now = 0.0
        self.area = [0.0] * len(self.count)
        self.since = [0.0] * len(self.count)

    def change(self, channel: int, delta: int):
        self.area[channel] += self.count[channel] * (self.now - self.since[channel])
        self.since[channel] = self.now
        self.count[channel] += delta

    def cut(self):
        now = self.now
        self.batches.append(([a + c * (now - t) for a, c, t in
                              zip(self.area, self.count, self.since)], now))
        self._restart()


class _BusyRates(dict):
    """Per state mask, filled on first use: (total speed, [(server, mu)]) of
    the servers srv with mask & masks[srv] nonzero, in server order."""

    def __init__(self, mu, masks):
        self.mu, self.masks = mu, masks

    def __missing__(self, key):
        pairs = [(srv, m) for srv, (m, bits) in enumerate(zip(self.mu, self.masks))
                 if bits & key]
        self[key] = value = (sum(m for _, m in pairs), pairs)
        return value


def _compat(fmodel):
    """Per server, the indices of the job types it can serve."""
    return [[t for t in fmodel.type_indices if srv + 1 in fmodel.job_types[t]]
            for srv in range(fmodel.n_servers)]


def _earliest(queues, types):
    """The type among `types` whose queue head is the earliest job, or None if all are empty."""
    best, best_type = None, None
    for t in types:
        q = queues[t]
        if q and (best is None or q[0] < best):
            best, best_type = q[0], t
    return best_type


class _CentralQueue:
    """Cancel-on-completion on one FCFS queue of job ids per type."""

    def __init__(self, fmodel):
        self.model = fmodel
        self.acc = _Integrals(fmodel.n_types)
        self.compat = _compat(fmodel)
        self.rates = _BusyRates(fmodel.mu, [sum(1 << t for t in c) for c in self.compat])
        self.queues = [deque() for _ in fmodel.type_indices]
        self.present = 0  # bitmask of the types with a job in the system
        self.next_id = 0

    def busy(self):
        return self.rates[self.present]

    def arrive(self, t):
        self.queues[t].append(self.next_id)
        self.next_id += 1
        self.acc.change(t, 1)
        self.present |= 1 << t

    def finish(self, srv):
        t = _earliest(self.queues, self.compat[srv])
        self.queues[t].popleft()
        self.acc.change(t, -1)
        if not self.queues[t]:
            self.present &= ~(1 << t)

    def check(self):
        present = {t for t, c in enumerate(self.acc.count) if c}
        want = float(self.model.mu_of(present)) if present else 0.0
        assert abs(self.busy()[0] - want) < 1e-9, "busy rate is not the speed of the present types"


class _CopyQueues:
    """Cancel-on-completion with one FCFS copy queue per server; the copies
    of a completed job are dropped when they reach the head of a queue."""

    def __init__(self, fmodel):
        self.model = fmodel
        self.acc = _Integrals(fmodel.n_types)
        self.rates = _BusyRates(fmodel.mu, [1 << srv for srv in range(fmodel.n_servers)])
        self.server_q = [deque() for _ in range(fmodel.n_servers)]
        self.alive = {}  # job id -> type index
        self.next_id = 0

    def _head(self, srv):
        q = self.server_q[srv]
        while q and q[0] not in self.alive:
            q.popleft()
        return q[0] if q else None

    def busy(self):
        return self.rates[sum(1 << srv for srv in range(len(self.server_q))
                              if self._head(srv) is not None)]

    def arrive(self, t):
        self.alive[self.next_id] = t
        for srv in self.model.job_types[t]:
            self.server_q[srv - 1].append(self.next_id)
        self.next_id += 1
        self.acc.change(t, 1)

    def finish(self, srv):
        self.acc.change(self.alive.pop(self._head(srv)), -1)

    check = _CentralQueue.check


class _FcfsAlis:
    """Cancel-on-start as FCFS-ALIS; accumulator channels 0..S-1 count the
    waiting jobs per type and S..2S-1 the jobs in service."""

    def __init__(self, fmodel):
        n = fmodel.n_servers
        self.n_types = fmodel.n_types
        self.acc = _Integrals(2 * fmodel.n_types)
        self.compat = _compat(fmodel)
        self.compat_mask = [sum(1 << t for t in c) for c in self.compat]
        self.rates = _BusyRates(fmodel.mu, [1 << srv for srv in range(n)])
        self.waiting = [deque() for _ in fmodel.type_indices]
        self.serving = [None] * n  # type index in service per server
        self.idle = list(range(n))  # longest idle first
        self.busy_mask = 0
        self.next_id = 0

    def busy(self):
        return self.rates[self.busy_mask]

    def _start(self, srv, t):
        self.serving[srv] = t
        self.busy_mask |= 1 << srv
        self.acc.change(self.n_types + t, 1)

    def arrive(self, t):
        for pos, srv in enumerate(self.idle):
            if self.compat_mask[srv] >> t & 1:
                del self.idle[pos]
                self._start(srv, t)
                break
        else:
            self.waiting[t].append(self.next_id)
            self.acc.change(t, 1)
        self.next_id += 1

    def finish(self, srv):
        self.acc.change(self.n_types + self.serving[srv], -1)
        t = _earliest(self.waiting, self.compat[srv])
        if t is None:
            self.serving[srv] = None
            self.busy_mask &= ~(1 << srv)
            self.idle.append(srv)
        else:
            self.waiting[t].popleft()
            self.acc.change(t, -1)
            self._start(srv, t)

    def check(self):
        for srv in self.idle:
            assert not any(self.waiting[t] for t in self.compat[srv]), \
                "idle server with compatible waiting job"


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
                     law_samples: int = 100_000, keep_samples: bool = False,
                     traj: TrajectorySpec = None) -> list:
    """Simulate along lambda_S(eps) = N*lambda* p_S - eps*gamma_S and compare eps*Q with the law.

    gamma is taken from `traj` (its epsilon is ignored: `eps_values` sets
    the positions); None means the ray lambda = (1-eps) lambda*. Returns one
    row per eps with per-marginal and total two-sample KS distances against
    Monte-Carlo draws from `law`. Sampling epochs default to ~eps^-2 events
    apart so that the KS samples are effectively independent at every eps
    on the grid.
    """
    from .analytic import sample_limit

    rows = []
    ref = sample_limit(law, law_samples, seed=seed + 999)
    ref_total = ref.sum(axis=1)
    gamma = default_trajectory(model, lam_star).gamma if traj is None else traj.gamma
    for i, eps in enumerate(eps_values):
        pre = model_at_trajectory(model, TrajectorySpec(gamma, Fraction(eps)), lam_star)
        spacing = sample_every if sample_every is not None else max(100, int(8.0 / eps ** 2))
        horizon = events_per_eps if isinstance(events_per_eps, int) else events_per_eps[i]
        est = simulate(pre, discipline, horizon_events=horizon, seed=seed + i,
                       sample_every=spacing)
        if not len(est.samples):
            raise DomainError(f"{horizon} events give no sample {spacing} events apart at eps={eps}")
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
