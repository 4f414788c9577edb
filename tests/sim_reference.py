"""The policy-object event loop, kept as the differential oracle for the
simulator's kernels.

`_run` advances the clock by the expected holding time, the reciprocal of
the total rate, and with one uniform picks an arrival of a random type or a
completion at a server chosen in proportion to its speed from the event
table entry of the policy's state. It leaves what these do to a queue
policy with `busy()` (that entry), `arrive(t)`, `finish(server)` and an
invariant `check()`:

- `_CentralQueue`: cancel-on-completion on the aggregated central queue.
  Each server works on the earliest compatible job, so a job departs at
  the total speed of the servers whose earliest compatible job it is.
- `_CopyQueues`: literal cancel-on-completion, one FCFS copy queue per
  server, on the same sample path as `_CentralQueue`.
- `_FcfsAlis`: cancel-on-start. An arriving job goes to the longest-idle
  compatible server, else it waits; a freed server takes the earliest
  compatible waiting job.

Counts go to one lazily integrated accumulator (`_Integrals`). `simulate`
runs this loop and reduces it with the production simulator's batch means,
so for a fixed seed it must return exactly what
`redundancy_ht.simulator.simulate` returns.
"""
from __future__ import annotations

import bisect
import random
import time
from array import array
from collections import deque

from redundancy_ht.errors import DomainError
from redundancy_ht.simulator import MIN_BATCHES, _compat, _estimate, _EventTable


def simulate(model, discipline, horizon_events, warmup_events=None, seed=0,
             sample_every=100, debug_checks=False, literal_copies=False):
    """`redundancy_ht.simulator.simulate` on the policy-object loop, for a
    stable model; `debug_checks` runs the policy's `check()` before every
    event and `literal_copies` swaps in the per-copy queues."""
    if warmup_events is None:
        warmup_events = horizon_events // 5
    if literal_copies and discipline != "coc":
        raise DomainError("literal-copies mode exists only for cancel-on-completion")
    fmodel = model.as_float()
    if discipline == "cos":
        policy = _FcfsAlis(fmodel)
    else:
        policy = _CopyQueues(fmodel) if literal_copies else _CentralQueue(fmodel)
    start = time.perf_counter()
    batches, samples = _run(policy, fmodel, horizon_events, warmup_events, seed,
                            sample_every, debug_checks)
    return _estimate(fmodel, discipline, batches, samples, horizon_events,
                     time.perf_counter() - start)


def _run(policy, fmodel, horizon, warmup, seed, sample_every, debug_checks):
    """The event loop: returns the policy's batch integrals and the sampled type counts."""
    unif = random.Random(seed).random
    s = fmodel.n_types
    acc, busy_now, arrive, finish = policy.acc, policy.busy, policy.arrive, policy.finish
    per_batch = max(1, horizon // MIN_BATCHES)
    cuts = iter(range(per_batch, per_batch * MIN_BATCHES, per_batch))
    next_cut = next(cuts)
    samples = array("q")
    departures = 0
    for event in range(-warmup, horizon):
        if debug_checks:
            policy.check()
        hold, rate, cum, codes = busy_now()
        if event >= 0:
            if event == next_cut:
                acc.cut()
                next_cut = next(cuts, None)
            acc.now += hold
        code = codes[bisect.bisect_right(cum, unif() * rate)]
        if code < s:
            arrive(code)
        else:
            finish(code - s)
            departures += 1
            if event >= 0 and departures % sample_every == 0:
                samples.extend(acc.count)
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
        self.rates = _EventTable(fmodel, [sum(1 << t for t in c) for c in self.compat])
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
        busy_rate = self.busy()[1] - self.rates.lam_total
        assert abs(busy_rate - want) < 1e-9, "busy rate is not the speed of the present types"


class _CopyQueues:
    """Cancel-on-completion with one FCFS copy queue per server; the copies
    of a completed job are dropped when they reach the head of a queue."""

    def __init__(self, fmodel):
        self.model = fmodel
        self.acc = _Integrals(fmodel.n_types)
        self.rates = _EventTable(fmodel, [1 << srv for srv in range(fmodel.n_servers)])
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
    """Cancel-on-start as FCFS-ALIS; the accumulator counts the waiting jobs
    per type."""

    def __init__(self, fmodel):
        n = fmodel.n_servers
        self.acc = _Integrals(fmodel.n_types)
        self.compat = _compat(fmodel)
        self.compat_mask = [sum(1 << t for t in c) for c in self.compat]
        self.rates = _EventTable(fmodel, [1 << srv for srv in range(n)])
        self.waiting = [deque() for _ in fmodel.type_indices]
        self.idle = list(range(n))  # longest idle first
        self.busy_mask = 0
        self.next_id = 0

    def busy(self):
        return self.rates[self.busy_mask]

    def arrive(self, t):
        for pos, srv in enumerate(self.idle):
            if self.compat_mask[srv] >> t & 1:
                del self.idle[pos]
                self.busy_mask |= 1 << srv
                break
        else:
            self.waiting[t].append(self.next_id)
            self.acc.change(t, 1)
        self.next_id += 1

    def finish(self, srv):
        t = _earliest(self.waiting, self.compat[srv])
        if t is None:
            self.busy_mask &= ~(1 << srv)
            self.idle.append(srv)
        else:
            self.waiting[t].popleft()
            self.acc.change(t, -1)

    def check(self):
        for srv in self.idle:
            assert not any(self.waiting[t] for t in self.compat[srv]), \
                "idle server with compatible waiting job"
