"""Event-driven simulation of the redundancy dynamics and convergence checks.

Each discipline has one event loop, a kernel that keeps all of its per-event
state in local variables. It runs compiled where it can: `_kernels.c`
holds both loops in C, built with the system `cc` on the first `simulate`
call and cached per user, keyed by the source's sha512
(`$XDG_CACHE_HOME/redundancy-ht`, `~/.cache/redundancy-ht`, else under
the temporary directory; see `_kernels`). The C loops reproduce CPython's
Mersenne Twister and make the same floating-point operations in the same
order, so for a fixed seed they return what the Python kernels below return,
to the bit, about ten times as fast (`BENCH_11.json`). Where no compiler or writable cache exists, or
the build fails (once: a marker keeps later processes from retrying), the
Python kernels run; no flag chooses, and `SimEstimate.kernel` says which ran.

- `_run_coc`: cancel-on-completion on the aggregated central queue, one
  FCFS queue of job ids per type. Each server works on the earliest
  compatible job, so a job departs at the total speed of the servers whose
  earliest compatible job it is.
- `_run_cos`: cancel-on-start as FCFS-ALIS. An arriving job goes to the
  longest-idle compatible server, else it waits; a freed server takes the
  earliest compatible waiting job. Its counts are the waiting jobs.

Both simulate the jump chain and advance the clock by the expected holding
time 1/q of each state, q being its total rate, in place of a sampled
exponential: discrete-time conversion (Hordijk, Iglehart & Schassberger
1976; Fox & Glynn 1986), which keeps time averages consistent with a
variance no larger than the sampled clock's. The next event is one
`bisect_right` into the state's cumulative event rates, arrivals of a
random type and then completions at the busy servers in proportion to their
speeds. Those rates, with 1/q, q and the event codes, are looked up per
state mask (`_EventTable`, filled on first use; the C loops refold them
whenever the busy set changes). Each event still draws,
and discards, the uniform that its sampled holding time took, so that a
fixed seed gives the jump chain, the sampled counts and every KS statistic
of the sampled-clock simulator it replaced, barring a uniform within
rounding of a rate boundary; only time averages and their half-widths
differ. A count's time integral is brought up to date only
when the count changes, and every count's at the end of a batch. The
warm-up and the `MIN_BATCHES` batches run as separate loop segments
(`_segments`), each restarting the clock and the integrals at 0; the
warm-up keeps neither integrals nor samples, and the samples are kept flat
in one int64 array. The policy-object loop these kernels replaced, with its
literal per-copy queues and invariant checks, lives on in the tests as
their differential oracle: for a fixed seed the outputs agree exactly.

The module imports no scipy, so neither does the command line, and imports
numpy only in the functions that run or read a simulation: batch-means
half-widths read Student's t quantiles from a table (`T975`), and
`ks_two_sample` computes the two-sample KS statistic as `scipy.stats.ks_2samp`
does, to the bit. The supremum of |F_a - F_b| is reached at a jump of either
empirical CDF (Smirnov 1939; Hodges 1958), at or just before a point of the
smaller sample, so a statistic of n simulated against m law draws costs
O(n log m), not O(m log m). The truncated-CTMC oracle, `oracles.ctmc_oracle`, is the
only code that imports `scipy.sparse`, when it is called.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
import time
from array import array
from bisect import bisect_right
from collections import deque
from fractions import Fraction

from . import _kernels
from .analytic import _check_discipline, _check_seed
from .criticality import ComponentDag, require_stable
from .errors import DomainError
from .model import Record, SystemModel, TrajectorySpec, model_at_trajectory


def __getattr__(name):
    # the benchmark's reference check (perfbench/workloads.py) reads
    # simulator.config_marginals_from_oracle; the oracles load on that first access
    if name == "config_marginals_from_oracle":
        from .oracles import config_marginals_from_oracle

        return config_marginals_from_oracle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


MIN_BATCHES = 20
# scipy.stats.t.ppf(0.975, d) for d = 1 .. MIN_BATCHES - 1, the degrees of
# freedom that batch means can have; T975[d - 1] is d degrees of freedom.
T975 = (12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
        2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
        2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
        2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
        2.1098155778333156, 2.1009220402410382, 2.0930240544083087)


class SimEstimate(Record):
    discipline: str
    time_avg: numpy.ndarray  # per-type time-average queue length (waiting counts for cos)
    half_width: numpy.ndarray  # batch-means 95% half-widths, per type
    samples: numpy.ndarray  # (k, |S|) per-type counts at sampling epochs
    events: int
    wall_seconds: float
    kernel: str = "python"  # the event loop that ran: "c" (compiled) or "python"

    @property
    def time_avg_total(self) -> float:
        return float(self.time_avg.sum())


def simulate(model: SystemModel, discipline: str, horizon_events: int,
             warmup_events: int = None, seed: int = 0,
             sample_every: int = 100) -> SimEstimate:
    """Run one replication and estimate steady-state per-type queue lengths.

    horizon_events counts post-warmup events; warm-up defaults to 20% of the horizon.
    Sampling epochs are every `sample_every`-th departure counted from the first event;
    the warm-up keeps none. Deterministic for a fixed seed; an unstable model raises DomainError.
    """
    _check_discipline(discipline)
    seed = _check_seed(seed)
    if horizon_events < 1:
        raise DomainError("need at least one event")
    if sample_every < 1:
        raise DomainError(f"need sample_every >= 1, got {sample_every}")
    warmup_events = simulate_size(horizon_events, sample_every, warmup_events)[0]
    if warmup_events < 0:
        raise DomainError(f"need a nonnegative warm-up, got {warmup_events} events")
    require_stable(model)
    fmodel = model.as_float()
    kernel, name = _kernel(discipline)
    start = time.perf_counter()
    batches, samples = kernel(fmodel, _segments(horizon_events, warmup_events), seed,
                              sample_every)
    return _estimate(fmodel, discipline, batches, samples, horizon_events,
                     time.perf_counter() - start, name)


def simulate_size(horizon_events: int, sample_every: int, warmup_events: int = None) -> tuple:
    """(warmup, rows) of a `simulate` run: its warm-up events (by default
    horizon_events // 5) and the most sample rows it holds, horizon_events //
    sample_every + 1, as the warm-up keeps none."""
    warmup = horizon_events // 5 if warmup_events is None else warmup_events
    return warmup, horizon_events // sample_every + 1


def _kernel(discipline):
    """The event loop of a discipline and its name: the compiled one where
    `_kernels.c` builds, else the Python one."""
    lib = _kernels.library()
    if lib is None:
        return (_run_cos if discipline == "cos" else _run_coc), "python"
    return functools.partial(_run_compiled, lib, discipline), "c"


def _estimate(fmodel, discipline, batches, samples, events, wall, kernel="python"):
    """Time averages and batch-means half-widths from the per-batch
    (areas, duration) pairs of a run."""
    import numpy as np

    s = fmodel.n_types
    areas = np.array([area for area, _ in batches])
    durations = np.array([duration for _, duration in batches])
    with np.errstate(all="ignore"):  # refused below when the clock overflowed
        area_total, time_total = areas.sum(axis=0), durations.sum()
    if not (np.isfinite(area_total).all() and np.isfinite(time_total)):
        raise DomainError("the time averages are not finite: the simulated time or a "
                          "count's time integral is beyond the float range")
    time_avg = area_total / time_total
    bm = areas / durations[:, None]
    nb = bm.shape[0]
    if nb >= 2:
        half = T975[nb - 2] * bm.std(axis=0, ddof=1) / math.sqrt(nb)
    else:
        half = np.full(s, np.inf)
    return SimEstimate(
        discipline=discipline,
        time_avg=time_avg,
        half_width=half,
        samples=np.frombuffer(samples, dtype=np.int64).reshape(-1, s),
        events=events,
        wall_seconds=wall,
        kernel=kernel,
    )


def _segments(horizon, warmup):
    """Event counts of the warm-up and then of each batch: MIN_BATCHES
    batches of horizon // MIN_BATCHES events, the last taking the remainder,
    or one event per batch when the horizon is shorter than that."""
    per_batch = max(1, horizon // MIN_BATCHES)
    nb = min(horizon, MIN_BATCHES)
    return [warmup] + [per_batch] * (nb - 1) + [horizon - per_batch * (nb - 1)]


class _EventTable(dict):
    """Per state mask, filled on first use: (1/q, q, cumulative rates, event
    codes). q is the total rate, N lambda plus the speeds of the busy
    servers, those srv with mask & masks[srv] nonzero. The cumulative rates
    run over the arrivals by type and then over the busy servers in server
    order, and end in inf; an event's code is t for an arrival of type t and
    S + srv for a completion at server srv. The event of a uniform u on
    [0, q) is codes[bisect_right(cumulative rates, u)]."""

    def __init__(self, fmodel, masks):
        s = fmodel.n_types
        self.lam_total, self.arrivals = _arrival_rates(fmodel)
        self.arrival_codes = list(range(s))
        self.servers = [(bits, m, s + srv) for srv, (bits, m) in enumerate(zip(masks, fmodel.mu))]

    def __missing__(self, key):
        rates, codes = [], self.arrival_codes[:]
        busy = 0.0  # a left fold, which sum() of floats is not from Python 3.12 on
        for bits, m, code in self.servers:
            if bits & key:
                rates.append(m)
                codes.append(code)
                busy += m
        q = self.lam_total + busy
        cum = self.arrivals[:]
        cum += itertools.accumulate(rates, initial=self.lam_total)
        cum[-1] = math.inf
        self[key] = value = (1.0 / q, q, cum, codes)
        return value


def _arrival_rates(fmodel):
    """N lambda and the arrival boundaries of the cumulative event rates,
    N lambda times the running sums of p but the last."""
    lam_total = fmodel.n_servers * fmodel.lam
    # the last arrival boundary is lam_total * 1.0, no rounding gap at the
    # top; it starts the busy servers' accumulation
    return lam_total, [lam_total * c for c in itertools.accumulate(fmodel.p[:-1])]


def _compat(fmodel):
    """Per server, the indices of the job types it can serve."""
    return [[t for t in fmodel.type_indices if srv + 1 in fmodel.job_types[t]]
            for srv in range(fmodel.n_servers)]


# In both kernels each segment restarts the clock and the areas, and every
# segment after the first (the warm-up) ends in one batch. The departure
# countdown runs through the warm-up, which keeps no sample, so sampling
# epochs are every sample_every-th departure counted from the first event.

def _run_coc(fmodel, segments, seed, sample_every):
    """Cancel-on-completion: returns the (areas, duration) of each batch and
    the per-type counts at the sampling epochs, flat."""
    s = fmodel.n_types
    rand = random.Random(seed).random
    compat = _compat(fmodel)
    table = _EventTable(fmodel, [sum(1 << t for t in c) for c in compat])
    queues = [deque() for _ in range(s)]
    count = [0] * s
    present = 0  # bitmask of the types with a job in the system
    next_id = 0
    countdown = sample_every
    batches, samples = [], array("q")
    for segment, n_events in enumerate(segments):
        now = 0.0
        area = [0.0] * s
        since = [0.0] * s
        for _ in itertools.repeat(None, n_events):
            hold, rate, cum, codes = table[present]
            now += hold
            rand()  # the sampled holding time's uniform, discarded
            t = codes[bisect_right(cum, rand() * rate)]
            if t < s:
                queues[t].append(next_id)
                next_id += 1
                area[t] += count[t] * (now - since[t])
                since[t] = now
                count[t] += 1
                present |= 1 << t
                continue
            best = None
            for c in compat[t - s]:
                q = queues[c]
                if q and (best is None or q[0] < best):
                    best, t = q[0], c
            q = queues[t]
            q.popleft()
            area[t] += count[t] * (now - since[t])
            since[t] = now
            count[t] -= 1
            if not q:
                present &= ~(1 << t)
            countdown -= 1
            if not countdown:
                countdown = sample_every
                if segment:
                    samples.extend(count)
        if segment:
            batches.append(([a + c * (now - t) for a, c, t in zip(area, count, since)], now))
    return batches, samples


def _run_cos(fmodel, segments, seed, sample_every):
    """Cancel-on-start as FCFS-ALIS: returns what `_run_coc` does, with the
    waiting jobs per type as the counts; a job that starts at once is never
    counted."""
    s, n = fmodel.n_types, fmodel.n_servers
    rand = random.Random(seed).random
    compat = _compat(fmodel)
    compat_mask = [sum(1 << t for t in c) for c in compat]
    table = _EventTable(fmodel, [1 << srv for srv in range(n)])
    waiting = [deque() for _ in range(s)]
    idle = list(range(n))  # longest idle first
    count = [0] * s
    busy_mask = 0
    next_id = 0
    countdown = sample_every
    batches, samples = [], array("q")
    for segment, n_events in enumerate(segments):
        now = 0.0
        area = [0.0] * s
        since = [0.0] * s
        for _ in itertools.repeat(None, n_events):
            hold, rate, cum, codes = table[busy_mask]
            now += hold
            rand()  # the sampled holding time's uniform, discarded
            t = codes[bisect_right(cum, rand() * rate)]
            if t < s:
                for pos, srv in enumerate(idle):
                    if compat_mask[srv] >> t & 1:
                        del idle[pos]
                        busy_mask |= 1 << srv
                        break
                else:
                    waiting[t].append(next_id)
                    area[t] += count[t] * (now - since[t])
                    since[t] = now
                    count[t] += 1
                next_id += 1
                continue
            chosen = t - s
            best = None
            for c in compat[chosen]:
                q = waiting[c]
                if q and (best is None or q[0] < best):
                    best, t = q[0], c
            if best is None:
                busy_mask &= ~(1 << chosen)
                idle.append(chosen)
            else:
                waiting[t].popleft()
                area[t] += count[t] * (now - since[t])
                since[t] = now
                count[t] -= 1
            countdown -= 1
            if not countdown:
                countdown = sample_every
                if segment:
                    samples.extend(count)
        if segment:
            batches.append(([a + c * (now - t) for a, c, t in zip(area, count, since)], now))
    return batches, samples


def _run_compiled(lib, discipline, fmodel, segments, seed, sample_every):
    """`_run_coc` or `_run_cos` in C (`_kernels.c`): the same batches and
    samples to the bit. The samples go into an int64 buffer allocated here,
    one row per sampling epoch after the warm-up, as many as `simulate_size`
    bounds; pages the kernel never writes take no memory."""
    import numpy as np

    s, n = fmodel.n_types, fmodel.n_servers
    lam_total, arrivals = _arrival_rates(fmodel)
    compat = _compat(fmodel)
    # a period beyond the event count samples nothing either way
    sample_every = min(sample_every, sum(segments) + 1)
    cap_samples = simulate_size(sum(segments[1:]), sample_every)[1]
    # new C-contiguous arrays of the kernel's C types, alive through the call
    arrivals = np.array(arrivals, dtype=np.float64)
    mu = np.array(fmodel.mu, dtype=np.float64)
    compat_start = np.array([0, *itertools.accumulate(map(len, compat))], dtype=np.int32)
    compat_types = np.array([t for types in compat for t in types], dtype=np.int32)
    mt_state = np.array(random.Random(seed).getstate()[1], dtype=np.uint32)
    counts = np.array(segments, dtype=np.int64)
    areas = np.empty((len(segments) - 1, s))
    durations = np.empty(len(segments) - 1)
    samples = np.empty(cap_samples * s, dtype=np.int64)
    n_samples = np.zeros(1, dtype=np.int64)
    run = lib.rht_run_cos if discipline == "cos" else lib.rht_run_coc
    status = run(s, n, lam_total, arrivals.ctypes.data, mu.ctypes.data, compat_start.ctypes.data,
                 compat_types.ctypes.data, mt_state.ctypes.data, len(segments), counts.ctypes.data,
                 sample_every, areas.ctypes.data, durations.ctypes.data, samples.ctypes.data,
                 cap_samples, n_samples.ctypes.data)
    if status == 1:  # RHT_NOMEM
        raise MemoryError("the compiled simulator kernel ran out of memory")
    if status:
        raise RuntimeError(f"the compiled simulator kernel failed with status {status}")
    return list(zip(areas.tolist(), durations.tolist())), samples[:n_samples[0] * s]


# ---------------------------------------------------------------------------
# Convergence checking against a limit law
# ---------------------------------------------------------------------------

KS_EXACT_N = 10_000  # ks_2samp's exact mode, which rounds the statistic, up to this size
KS_MIN_SPACING = 100  # the fewest departures between scaled_law_check's sampling epochs


def ks_two_sample(a, b):
    """Two-sample KS statistic plus the alpha=0.01 asymptotic critical value."""
    import numpy as np

    return _ks_sorted(np.sort(a), np.sort(b))


def _ks_sorted(a, b):
    """`ks_two_sample` of two sorted samples: the statistic bit for bit as
    `scipy.stats.ks_2samp(a, b).statistic`, including its exact-mode rounding
    to a multiple of 1/lcm(n, m).

    Between two jumps of the smaller sample's CDF only the larger one's moves,
    and it only rises, so |F_a - F_b| peaks at a point of the smaller sample or
    just before one: 4 searchsorted calls with min(n, m) keys each, O(n log m),
    give the same integer counts as ks_2samp at those points."""
    import numpy as np

    n, m = len(a), len(b)
    if not n or not m:
        raise DomainError("the KS statistic needs two nonempty samples")
    small, large = (a, b) if n <= m else (b, a)
    gaps = np.concatenate([np.searchsorted(small, small, side) / len(small)
                           - np.searchsorted(large, small, side) / len(large)
                           for side in ("right", "left")])
    stat = float(np.abs(gaps).max())
    if max(n, m) <= KS_EXACT_N:
        lcm = n // math.gcd(n, m) * m
        stat = round(stat * lcm) / lcm
    crit = math.sqrt(-math.log(0.01 / 2) / 2) * math.sqrt((n + m) / (n * m))
    return stat, crit


def _row_sums(cols):
    """The row totals of cols.T, bit for bit as `cols.T.sum(axis=1)` gives them
    for a C-contiguous copy of cols.T, but adding whole columns, the rows of cols.

    numpy sums each row pairwise (`pairwise_sum` in its loops): from 0.0
    term by term below 8 terms, in 8 running sums folded as a tree from 8 to
    128 terms, and above that as two parts, the first half rounded down to a
    multiple of 8 terms."""
    import numpy as np

    def total(lo, n):
        if n > 128:
            half = n // 2 - n // 2 % 8
            return total(lo, half) + total(lo + half, n - half)
        if n < 8:
            res, tail = np.zeros(cols.shape[1]), lo
        else:
            tail = lo + n - n % 8
            r = cols[lo:lo + 8].copy()
            for i in range(lo + 8, tail, 8):
                r += cols[i:i + 8]
            res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for col in cols[tail:lo + n]:
            res += col
        return res

    return total(0, len(cols))


class ScaledLawRow(Record):
    eps: float
    ks_per_type: tuple
    ks_total: float
    ks_total_critical: float
    mean_scaled: tuple
    scaled_samples: numpy.ndarray = None


def scaled_law_check(dag: ComponentDag, discipline, eps_values, events_per_eps, seed: int = 0,
                     law_samples: int = 100_000, keep_samples: bool = False,
                     traj: TrajectorySpec = None) -> list:
    """Simulate `dag`'s model along lambda_S(eps) = N*lambda* p_S - eps*gamma_S
    and compare eps*Q with its limit law (`limit_law`; `sigma_mixture` off laminar subtrees).

    gamma is taken from `traj` (its epsilon is ignored: `eps_values` sets the
    positions); None means the ray lambda = (1-eps) lambda*. Returns one row per
    eps with per-marginal and total two-sample KS distances against
    `law_samples` Monte-Carlo draws from the law, those of `sample_limit` with
    seed + 999. Sampling epochs are every max(KS_MIN_SPACING, int(8.0 / eps**2))-th
    departure counted from the first event (the float quotient rounds down:
    199, 799 and 3,199 at eps 0.2, 0.1 and 0.05), so that the KS samples are
    effectively independent at every eps on the grid.

    The draws come a block at a time (`analytic._limit_blocks`): each block
    goes, transposed, into one (|S|, law_samples) array of columns, and its
    row totals (`_row_sums`) into one more array, and both are sorted in
    place; no (law_samples, |S|) array is held."""
    seed = _check_seed(seed)
    import numpy as np

    from .analytic import _direction, _limit_blocks, limit_law, sigma_mixture

    model, lam_star = dag.model, dag.lambda_star
    law = (limit_law if dag.subtrees_laminar else sigma_mixture)(dag, traj)
    rows = []
    blocks = _limit_blocks(law, law_samples, seed + 999)
    ref_cols = np.empty((model.n_types, law_samples))
    ref_total = np.empty(law_samples)
    start = 0
    for block in blocks:
        cols = ref_cols[:, start:start + len(block)]
        cols[...] = block.T
        ref_total[start:start + len(block)] = _row_sums(cols)
        start += len(block)
    ref_cols.sort(axis=1)
    ref_total.sort()
    gamma = _direction(model, lam_star, traj).gamma
    runs = []  # (horizon, spacing) per eps, all checked before the first simulation
    for i, eps in enumerate(eps_values):
        horizon = events_per_eps if isinstance(events_per_eps, int) else events_per_eps[i]
        try:
            spacing = max(KS_MIN_SPACING, int(8.0 / eps ** 2))
        except (ZeroDivisionError, OverflowError):  # eps^-2 beyond the float range
            raise DomainError(f"{horizon} events give no sample ~eps^-2 events apart "
                              f"at eps={eps}") from None
        # an epoch needs `spacing` departures; a run starts empty, so each
        # departure follows its job's arrival and at most half the events,
        # warm-up included, are departures (simulate refuses a horizon < 1)
        if 0 < horizon and spacing > (simulate_size(horizon, spacing)[0] + horizon) // 2:
            raise DomainError(f"{horizon} events give no sample {spacing} events apart at eps={eps}")
        runs.append((horizon, spacing))
    for i, (eps, (horizon, spacing)) in enumerate(zip(eps_values, runs)):
        pre = model_at_trajectory(model, TrajectorySpec(gamma, Fraction(eps)), lam_star)
        est = simulate(pre, discipline, horizon_events=horizon, seed=seed + i,
                       sample_every=spacing)
        if not len(est.samples):
            raise DomainError(f"{horizon} events give no sample {spacing} events apart at eps={eps}")
        scaled = est.samples * eps
        ks_types = tuple(_ks_sorted(np.sort(scaled[:, t]), col)[0]
                         for t, col in enumerate(ref_cols))
        ks_tot, crit = _ks_sorted(np.sort(scaled.sum(axis=1)), ref_total)
        rows.append(ScaledLawRow(eps=float(eps), ks_per_type=ks_types, ks_total=ks_tot,
                                 ks_total_critical=crit,
                                 mean_scaled=tuple(float(eps * x) for x in est.time_avg),
                                 scaled_samples=scaled if keep_samples else None))
    return rows


def scaled_law_size(events_per_eps: int, n_eps: int, keep_samples: bool) -> tuple:
    """(events, rows) of a `scaled_law_check` run: its n_eps simulations, default
    warm-ups included, and the most sample rows it holds, KS_MIN_SPACING or
    more departures apart, of one epsilon at a time (of all with keep_samples)."""
    warmup, rows = simulate_size(events_per_eps, KS_MIN_SPACING)
    return (events_per_eps + warmup) * n_eps, rows * (n_eps if keep_samples else 1)
