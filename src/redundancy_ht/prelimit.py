"""Pre-limit stochastic characterization: geometric segment laws, exact
sampling of the queue vector, and its exact moments along any direction.

Conditionally on the ordered vector T of first type occurrences, the jobs
between consecutive first occurrences form independent geometric segments
(support {0, 1, ...}, P(X = n) = (1-p) p^n), each split multinomially over
the types seen so far. Its law depends on the set of the first j entries
alone (_segment, which segment_law and the sampler read), as in
order-independent queues (Berezner, Kriel & Krzesinski 1995). Scaling by
the distance to criticality, segments at critical prefixes become unit
exponentials and all others vanish.

The sampler draws the configuration T by peeling: its set from the
prefix-set table of analytic._prefix_table, then its types from last to
first. oracles.config_distribution lists every ordered vector and checks
those probabilities. The segments are then drawn once per prefix set, for
all samples whose vector passes through it, not once per vector.

Every moment reads one prefix-set series: E[(c.Q)^n] is n! times the
coefficient of s^n in the PGF at z_t = e^{c_t s} (linear_moment). The
total moments of `moments` take c = 1, the per-type means c = e_S. The
sampler and the moments weigh by the discipline's idle-server sums from
analytic._kappa, as the PGFs do.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .analytic import (_bits, _check_seed, _draw_counts, _free_masks, _kappa, _prefix_series,
                       _prefix_table)
from .errors import DomainError
from .model import Record, Scalar, SystemModel, is_exact

MOMENT_ORDER_CAP = 12
# the sampler adds a prefix set's draws block by block, by slices, where its
# blocks average this many rows or more, else through one index of their rows:
# a slice costs about a microsecond, an indexed entry about 8 ns
SLICE_ROWS = 100


class SegmentLaw(Record):
    """Geometric parameters for one ordered vector T.

    segment_params[j-1] is p^{T,j} = N lam p(T,j)/mu(T,j); type_params[j-1][i-1]
    the marginal geometric parameter of type T_i within segment j; and
    split_fractions[j-1][i-1] = p_{T_i}/p(T,j) the multinomial fractions.
    """

    entries: tuple
    segment_params: tuple
    type_params: tuple
    split_fractions: tuple


def _segment(model: SystemModel, types):
    """p^{T,j} = N lam p(T,j)/mu(T,j), p(T,j) and mu(T,j) for the set `types`
    of the first j entries of T; DomainError unless 0 < p^{T,j} < 1."""
    p_j, mu_j = model.p_of(types), model.mu_of(types)
    b = model.n_servers * model.lam * p_j / mu_j
    if not 0 < b < 1:
        raise DomainError(f"segment parameter {b} outside (0,1); model unstable?")
    return b, p_j, mu_j


def segment_law(model: SystemModel, entries) -> SegmentLaw:
    entries = tuple(entries)
    if len(set(entries)) != len(entries):
        raise DomainError("ordered vector entries must be distinct")
    n, lam = model.n_servers, model.lam
    seg, typ, split, prefix = [], [], [], set()
    for j, t in enumerate(entries, start=1):
        prefix.add(t)
        b, p_j, mu_j = _segment(model, prefix)
        seg.append(b)
        marginal = [n * lam * model.p[u] / mu_j for u in entries[:j]]
        typ.append(tuple(a / (1 - b + a) for a in marginal))
        split.append(tuple(model.p[u] / p_j for u in entries[:j]))
    return SegmentLaw(entries=entries, segment_params=tuple(seg),
                      type_params=tuple(typ), split_fractions=tuple(split))


def _ratio(x) -> tuple:
    """x as (numerator, denominator): two ints when x is exact, else (x, 1)."""
    return (x.numerator, x.denominator) if is_exact(x) else (x, 1)


def _peeling_weights(model: SystemModel, discipline: str):
    """The exact sampler's weights: F(A) for every set A of job types, keyed
    by bitmask, as _prefix_table's pair (numerators, denominator), and the
    weight F(B) * kappa(free(B)) of each B as the final set of the
    first-occurrence vector, in the same order, correctly rounded to a float."""
    kappa = _kappa(model, discipline)
    f = {a: (n, d) for a, ((n,), d) in _prefix_table(model, [[1]] * model.n_types).items()}
    free = None if kappa is None else _free_masks(model)
    final = []
    for a, (n, d) in f.items():
        kn, kd = (1, 1) if kappa is None else _ratio(kappa[free[a]])
        final.append(n * kn / (d * kd))
    return f, final


def _last_type_weights(model: SystemModel, f: dict, a: int):
    """The types of the set a and their weights p_t F(a - {t}) of coming last,
    each correctly rounded to a float."""
    types = _bits(a)
    weights = []
    for t in types:
        (pn, pd), (n, d) = _ratio(model.p[t]), f[a ^ 1 << t]
        weights.append(pn * n / (pd * d))
    return types, weights


def sample_prelimit(model: SystemModel, discipline: str, n: int, seed,
                    return_configs: bool = False):
    """Draw n exact samples of the per-type queue-length vector.

    For c.o.c. this is the vector of all jobs per type; for c.o.s. the vector
    of waiting jobs per type. The configuration T is drawn from its exact
    distribution without listing the ordered vectors: first its set B with
    probability proportional to F(B) * kappa(free(B)), then the last type t
    of the remaining set A with probability proportional to p_t F(A - {t}),
    down to the empty set, splitting the sample counts multinomially. The
    drawn vectors, by length, then lexicographically, hold the rows in
    blocks, one block per vector.

    A segment's law depends on its prefix set A alone (_segment), so the
    segments are drawn per set, in order of bitmask: for all m rows whose
    vector passes through A, one geometric call gives m totals and one
    multinomial call splits them over A's types in index order, with
    fractions p_u/p(A). The draws go to those rows in row order, by
    slices of the vectors' blocks where these are long (SLICE_ROWS). The
    per-type counts are 1{S in T} plus the split sums. With return_configs
    the drawn vectors and each sample's index into them are returned as
    well.
    """
    if n < 1:
        raise DomainError("need n >= 1 samples")
    seed = _check_seed(seed)
    import numpy as np

    rng = np.random.default_rng(seed)
    f, final = _peeling_weights(model, discipline)
    groups = {(a, ()): m for a, m in zip(f, _draw_counts(rng, n, final)) if m}
    drawn = {}
    last = {}  # set -> its types and their probabilities of coming last, as _draw_counts has them
    while groups:
        peeled = {}
        for (a, tail), m in groups.items():
            if a == 0:
                drawn[tail] = m
                continue
            if a not in last:
                types, weights = _last_type_weights(model, f, a)
                weights = np.asarray(weights)
                last[a] = types, weights / weights.sum()
            types, probabilities = last[a]
            for t, k in zip(types, rng.multinomial(m, probabilities)):
                if k:
                    peeled[a ^ 1 << t, (t,) + tail] = k
        groups = peeled
    entries_list = sorted(drawn, key=lambda e: (len(e), e))
    counts = [drawn[entries] for entries in entries_list]
    passes = {}  # prefix set -> the row blocks of the vectors through it
    finals = []  # the set of each vector
    row = 0
    for entries, m in zip(entries_list, counts):
        prefix = 0
        for t in entries:
            prefix |= 1 << t
            blocks = passes.setdefault(prefix, [])
            if blocks and blocks[-1][1] == row:  # this block follows the last one
                blocks[-1][1] += m
            else:
                blocks.append([row, row + m])
        finals.append(prefix)
        row += m
    # 1{S in T}: the bits of each row's set
    out = np.repeat(np.asarray(finals, dtype=np.int64), counts)[:, None]
    out = out >> np.arange(model.n_types) & 1
    for prefix in sorted(passes):
        types = _bits(prefix)
        b, p_a, _ = _segment(model, types)
        blocks = passes[prefix]
        size = sum(end - start for start, end in blocks)
        totals = rng.geometric(1.0 - float(b), size=size) - 1
        fractions = [float(model.p[u] / p_a) for u in types]
        splits = rng.multinomial(totals, fractions).T  # one row of draws per type
        if size >= SLICE_ROWS * len(blocks):
            k = 0
            for start, end in blocks:
                for u, split in zip(types, splits):
                    out[start:end, u] += split[k:k + end - start]
                k += end - start
        else:  # the rows of all blocks as one index
            starts, ends = np.asarray(blocks).T
            lengths = ends - starts
            rows = np.arange(size) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
            for u, split in zip(types, splits):
                out[rows, u] += split
    if return_configs:
        return out, np.repeat(np.arange(len(entries_list), dtype=np.int64), counts), entries_list
    return out


def linear_moment(model: SystemModel, c, n: int, discipline: str = "coc") -> Scalar:
    """E[(c.Q)^n] (c.o.c.) or E[(c.Qtilde)^n] (c.o.s.) for a weight c_t per type.

    n! times the coefficient of s^n in the PGF at z_t = e^{c_t s}: the
    prefix-set series at those z, divided by its constant coefficient.
    """
    if not 1 <= n <= MOMENT_ORDER_CAP:
        raise DomainError(f"moment order must be in 1..{MOMENT_ORDER_CAP}")
    if len(c) != model.n_types:
        raise DomainError(f"need one weight per job type, got {len(c)} for {model.n_types}")
    return _linear_moment(model, c, n, _kappa(model, discipline))


def _linear_moment(model: SystemModel, c, n: int, kappa) -> Scalar:
    """`linear_moment` with the discipline's idle-server sums given."""
    exp_s = [Fraction(1, math.factorial(k)) for k in range(n + 1)]
    series = _prefix_series(model, [[e * ct ** k for k, e in enumerate(exp_s)] for ct in c], kappa)
    return math.factorial(n) * series[n] / series[0]


def expected_type_counts(model: SystemModel, discipline: str = "coc") -> tuple:
    """Exact per-type stationary means: E[Q_S] (c.o.c.) or E[Qtilde_S] (c.o.s.),
    the linear moment of order 1 with c the indicator of S."""
    kappa = _kappa(model, discipline)
    return tuple(_linear_moment(model, [int(u == t) for u in model.type_indices], 1, kappa)
                 for t in model.type_indices)
