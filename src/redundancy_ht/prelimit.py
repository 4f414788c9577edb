"""Pre-limit stochastic characterization: geometric segment laws, exact
sampling of the queue vector, and its exact moments along any direction.

Conditionally on the ordered vector T of first type occurrences, the jobs
between consecutive first occurrences form independent geometric segments
(support {0, 1, ...}, P(X = n) = (1-p) p^n), each split multinomially over
the types seen so far. Its law depends on the set of the first j entries
alone (_segment, which segment_law and the sampler read). Scaling by the
distance to criticality, segments at critical prefixes become unit
exponentials and all others vanish.

The configuration T itself is drawn by peeling: its set from the
prefix-set table of analytic._prefix_table, then its types from last to
first. oracles.config_distribution lists every ordered vector and checks
those probabilities.

Every moment reads one prefix-set series: E[(c.Q)^n] is n! times the
coefficient of s^n in the PGF at z_t = e^{c_t s} (linear_moment). The
total moments of `moments` take c = 1, the per-type means c = e_S.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .analytic import (_bits, _check_seed, _draw_counts, _idle_sums, _prefix_series,
                       _prefix_table, _set_weights)
from .criticality import require_stable
from .errors import DomainError
from .model import Record, Scalar, SystemModel

DISCIPLINES = ("coc", "cos")
MOMENT_ORDER_CAP = 12


def _check_discipline(discipline: str):
    if discipline not in DISCIPLINES:
        raise DomainError(f"unknown discipline {discipline!r}; expected one of {DISCIPLINES}")


def _kappa(model: SystemModel, discipline: str):
    """The idle-server sums the discipline weighs with (None for c.o.c.),
    once the discipline is known and the model stable."""
    _check_discipline(discipline)
    require_stable(model)
    return _idle_sums(model) if discipline == "cos" else None


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


def _peeling_weights(model: SystemModel, discipline: str):
    """The exact sampler's weights: F(A) for every set A of job types, keyed
    by bitmask, and the weight F(B) * kappa(free(B)) of each B as the final
    set of the first-occurrence vector, in the same order."""
    kappa = _kappa(model, discipline)
    table = _prefix_table(model, [[1]] * model.n_types)
    final = [w for (w,) in _set_weights(model, table, kappa)]
    return {a: fa for a, (fa,) in table.items()}, final


def _last_type_weights(model: SystemModel, f: dict, a: int):
    """The types of the set a and their weights p_t F(a - {t}) of coming last."""
    types = _bits(a)
    return types, [model.p[t] * f[a ^ 1 << t] for t in types]


def sample_prelimit(model: SystemModel, discipline: str, n: int, seed,
                    return_configs: bool = False):
    """Draw n exact samples of the per-type queue-length vector.

    For c.o.c. this is the vector of all jobs per type; for c.o.s. the vector
    of waiting jobs per type. The configuration T is drawn from its exact
    distribution without listing the ordered vectors: first its set B with
    probability proportional to F(B) * kappa(free(B)), then the last type t
    of the remaining set A with probability proportional to p_t F(A - {t}),
    down to the empty set, splitting the sample counts multinomially. Then
    come independent geometric segment totals and multinomial splits, their
    parameters computed once per prefix set (_segment); the per-type counts
    are 1{S in T} plus the split sums. With return_configs the drawn vectors
    (by length, then lexicographically) and each sample's index into them
    are returned as well.
    """
    if n < 1:
        raise DomainError("need n >= 1 samples")
    seed = _check_seed(seed)
    import numpy as np

    rng = np.random.default_rng(seed)
    f, final = _peeling_weights(model, discipline)
    groups = {(a, ()): m for a, m in zip(f, _draw_counts(rng, n, final)) if m}
    drawn = {}
    while groups:
        peeled = {}
        for (a, tail), m in groups.items():
            if a == 0:
                drawn[tail] = m
                continue
            types, weights = _last_type_weights(model, f, a)
            for t, k in zip(types, _draw_counts(rng, m, weights)):
                if k:
                    peeled[a ^ 1 << t, (t,) + tail] = k
        groups = peeled
    entries_list = sorted(drawn, key=lambda e: (len(e), e))
    out = np.zeros((n, model.n_types), dtype=np.int64)
    segments = {}  # prefix set -> 1 - p^{T,j} and the split fractions, as floats
    row = 0
    for entries in entries_list:
        m = drawn[entries]
        block = slice(row, row + m)
        for t in entries:
            out[block, t] += 1
        prefix = 0
        for j, t in enumerate(entries, start=1):
            prefix |= 1 << t
            if prefix not in segments:
                types = _bits(prefix)
                b, p_j, _ = _segment(model, types)
                segments[prefix] = 1.0 - float(b), {u: float(model.p[u] / p_j) for u in types}
            q, fraction = segments[prefix]
            totals = rng.geometric(q, size=m) - 1
            fracs = np.asarray([fraction[u] for u in entries[:j]])
            splits = rng.multinomial(totals, fracs / fracs.sum())
            for i, u in enumerate(entries[:j]):
                out[block, u] += splits[:, i]
        row += m
    if return_configs:
        counts = [drawn[entries] for entries in entries_list]
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
