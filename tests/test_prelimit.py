import hashlib
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.stats

from redundancy_ht import SystemModel, generators
from redundancy_ht.analytic import _bits
from redundancy_ht.errors import DomainError
from redundancy_ht.oracles import (config_distribution, config_prob,
                                   critical_rate_and_subsets_bruteforce, enumerate_k_critical,
                                   mixture_law, ordered_vector, p_star, representation_matrices)
from redundancy_ht.prelimit import (_draw_counts, _last_type_weights, _peeling_weights,
                                    _segment, expected_type_counts, sample_prelimit,
                                    segment_law)

T_EXAMPLE = (0, 2, 3, 1)  # [{1}, {3}, {3,4}, {1,2,3}] in the four-server system


def test_config_distribution_normalized(n_model):
    for discipline in ("coc", "cos"):
        _, probs = config_distribution(n_model, discipline)
        assert sum(probs) == 1
        assert all(p > 0 for p in probs)


def test_config_prob_example_value(four_server):
    # unnormalized weight 2/63 at lam/mu = 1/2, then divided by the full sum
    from redundancy_ht.oracles import h_term, iter_ordered_type_tuples

    norm = sum(h_term(four_server, e, [F(1)] * 4)
               for e in iter_ordered_type_tuples(four_server))
    assert config_prob(four_server, T_EXAMPLE) == F(2, 63) / norm


def test_config_prob_approaches_p_star(four_server):
    report = critical_rate_and_subsets_bruteforce(four_server)
    vecs = enumerate_k_critical(four_server, report, report.depth_K)
    targets = {v.entries: float(p_star(four_server, report, v)) for v in vecs}
    lo = {entries: [] for entries in targets}
    others = []
    for ratio in (F(99, 100), F(999, 1000)):
        pre = four_server.with_lambda(ratio * report.lambda_star)
        entries_list, probs = config_distribution(pre)
        mass_elsewhere = 0
        for entries, prob in zip(entries_list, probs):
            if entries in targets:
                lo[entries].append(float(prob))
            else:
                mass_elsewhere += float(prob)
        others.append(mass_elsewhere)
    for entries, target in targets.items():
        errs = [abs(x - target) for x in lo[entries]]
        assert errs[0] > errs[1]
        assert errs[-1] < 2e-2  # O(eps) with a constant around 7 here
    assert others[0] > others[1]  # non-K-critical configurations vanish


def test_segment_law_example_values(four_server):
    law = segment_law(four_server, T_EXAMPLE)
    assert law.segment_params[1] == F(5, 12)  # 5 lam / (6 mu) at lam = 1/2
    assert law.type_params[2][0] == F(1, 4)  # lam / (3 mu - 2 lam)
    assert law.type_params[0][0] == law.segment_params[0]  # j=1 degenerate case
    assert all(0 < p < 1 for p in law.segment_params)


# _segment's (p^{T,j}, p(T,j), mu(T,j)) per prefix-set mask on a float model
# where N*lam*p/mu and N*(lam*p)/mu round apart (at mask 4), so that a
# reordered product shows
SEGMENT_FLOATS = {1: (0.045, 0.1, 2.0), 2: (0.09, 0.2, 2.0),
                  3: (0.09000000000000001, 0.30000000000000004, 3.0),
                  4: (0.6299999999999999, 0.7, 1.0),
                  5: (0.35999999999999993, 0.7999999999999999, 2.0),
                  6: (0.4049999999999999, 0.8999999999999999, 2.0), 7: (0.3, 1.0, 3.0)}


def test_segment_floats_are_pinned(diamond):
    model = SystemModel(mu=(1.0, 1.0, 1.0), lam=0.3, job_types=diamond.job_types,
                        p=(0.1, 0.2, 0.7))
    got = {mask: _segment(model, _bits(mask)) for mask in SEGMENT_FLOATS}
    assert got == SEGMENT_FLOATS
    assert 3 * (0.3 * 0.7) / 1.0 != SEGMENT_FLOATS[4][0]


def test_segment_marginal_consistency(four_server):
    # part-b geometric + part-e multinomial reproduce the part-a marginal:
    # both sides are rational functions of z; compare at several z exactly.
    law = segment_law(four_server, T_EXAMPLE)
    for j in range(1, 5):
        b = law.segment_params[j - 1]
        for i in range(1, j + 1):
            a = law.type_params[j - 1][i - 1]
            frac = law.split_fractions[j - 1][i - 1]
            for z in (F(0), F(1, 3), F(1, 2), F(1)):
                via_split = (1 - b) / (1 - b * (frac * z + 1 - frac))
                marginal = (1 - a) / (1 - a * z)
                assert via_split == marginal


def test_representation_matrices(four_server):
    report = critical_rate_and_subsets_bruteforce(four_server)
    mats = representation_matrices(four_server, report, T_EXAMPLE)
    p = mats.P
    assert (p.sum(axis=0) == 1).all() and (p.sum(axis=1) == 1).all()
    # P W in type order: the conditional limit coefficients given T
    pw = tuple(mats.W[int(np.argmax(row))] for row in p)
    assert pw == (
        (F(1), F(1, 3), F(1, 4)),
        (0, 0, F(1, 4)),
        (0, F(2, 9), F(1, 6)),
        (0, F(4, 9), F(1, 3)))
    atoms = {label: coeffs for (_, coeffs, label) in mixture_law(four_server, report).atoms}
    assert pw == tuple(zip(*atoms[T_EXAMPLE]))


def _segment_kinds(model, report, ordered):
    """Limit law of each segment: exponential when it ends at a critical prefix."""
    cr = ordered_vector(model, ordered, report.critical_subsets).cr_indices
    return tuple("exponential" if i in cr else "vanishing"
                 for i in range(1, len(ordered) + 1))


def test_limit_segment_laws_kinds(four_server):
    report = critical_rate_and_subsets_bruteforce(four_server)
    kinds = _segment_kinds(four_server, report, T_EXAMPLE)
    assert kinds == ("exponential", "vanishing", "exponential", "exponential")


def test_limit_segment_laws_zero_critical(four_server):
    report = critical_rate_and_subsets_bruteforce(four_server)
    kinds = _segment_kinds(four_server, report, (1,))  # k = 0 vector
    assert kinds == ("vanishing",)
    mats = representation_matrices(four_server, report, (1,))
    assert all(all(x == 0 for x in row) for row in mats.W)


def test_sampler_mean_total_vs_moment(n_model):
    from redundancy_ht.moments import moment_total

    x = sample_prelimit(n_model, "coc", 200_000, seed=10)
    total = x.sum(axis=1)
    expected = float(moment_total(n_model, 1))
    se = total.std() / math.sqrt(len(total))
    assert abs(total.mean() - expected) < 3 * se


def test_sampler_per_type_means(n_model):
    x = sample_prelimit(n_model, "coc", 200_000, seed=11)
    for t, target in enumerate(expected_type_counts(n_model)):
        se = x[:, t].std() / math.sqrt(len(x))
        assert abs(x[:, t].mean() - float(target)) < 3 * se


def test_sampler_cos_mean_vs_moment(n_model):
    from redundancy_ht.moments import moment_total

    x = sample_prelimit(n_model, "cos", 200_000, seed=12)
    total = x.sum(axis=1)
    expected = float(moment_total(n_model, 1, "cos"))
    se = total.std() / math.sqrt(len(total))
    assert abs(total.mean() - expected) < 3 * se


def _config_chi2(model, discipline, n, config_idx, entries_list):
    """Pearson's chi-square of the drawn configurations against
    config_distribution, the cells of expectation below 5 merged into one,
    and its degrees of freedom."""
    all_entries, probs = config_distribution(model, discipline)
    drawn = dict(zip(entries_list, np.bincount(config_idx, minlength=len(entries_list))))
    observed = np.asarray([drawn.get(e, 0) for e in all_entries], dtype=float)
    expected = np.asarray([float(p) for p in probs]) * n
    keep = expected >= 5
    chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
    dof = keep.sum() - 1
    if (~keep).any():  # merge the sparse tail into one cell
        tail = expected[~keep].sum()
        chi2 += (observed[~keep].sum() - tail) ** 2 / tail
        dof += 1
    return chi2, dof


def test_sampler_config_frequencies_chi2(n_model):
    n = 200_000
    x, config_idx, entries_list = sample_prelimit(n_model, "coc", n, seed=13,
                                                  return_configs=True)
    chi2, dof = _config_chi2(n_model, "coc", n, config_idx, entries_list)
    assert chi2 < scipy.stats.chi2.ppf(0.99, dof)


@pytest.mark.parametrize("discipline", ["coc", "cos"])
@pytest.mark.parametrize("name", ["four_server", "diamond"])
def test_sampler_configs_and_type_means_beyond_two_types(request, name, discipline):
    """On 4 and 3 types, where prefix sets are shared by many vectors: the
    configuration frequencies against config_distribution and the per-type
    means against expected_type_counts (4 standard errors, for 3-4 types)."""
    model = request.getfixturevalue(name)
    n = 100_000
    x, config_idx, entries_list = sample_prelimit(model, discipline, n, seed=21,
                                                  return_configs=True)
    chi2, dof = _config_chi2(model, discipline, n, config_idx, entries_list)
    assert chi2 < scipy.stats.chi2.ppf(0.999, dof)
    for t, target in enumerate(expected_type_counts(model, discipline)):
        se = x[:, t].std() / math.sqrt(n)
        assert abs(x[:, t].mean() - float(target)) < 4 * se


def test_sampler_empty_configuration_probability(n_model):
    # the all-idle configuration carries the normalizing constant itself
    n = 100_000
    _, config_idx, entries_list = sample_prelimit(n_model, "coc", n, seed=14,
                                                  return_configs=True)
    empty_idx = entries_list.index(())
    freq = (config_idx == empty_idx).mean()
    target = float(config_prob(n_model, ()))
    assert abs(freq - target) < 3 * math.sqrt(target * (1 - target) / n)


def test_sampler_counts_respect_configuration(n_model):
    # types absent from the first-occurrence vector carry no jobs at all,
    # and every present type counts at least its first occurrence
    x, config_idx, entries_list = sample_prelimit(n_model, "coc", 5_000, seed=15,
                                                  return_configs=True)
    for row, idx in zip(x, config_idx):
        present = set(entries_list[idx])
        for t in range(n_model.n_types):
            if t in present:
                assert row[t] >= 1
            else:
                assert row[t] == 0


def test_segment_independence(four_server):
    # covariance between distinct segment totals is zero within MC error
    rng = np.random.default_rng(123)
    law = segment_law(four_server, T_EXAMPLE)
    n = 100_000
    draws = [rng.geometric(1 - float(b), size=n) - 1 for b in law.segment_params]
    for j in range(4):
        for j2 in range(j + 1, 4):
            c = np.cov(draws[j], draws[j2])[0, 1]
            scale = np.std(draws[j]) * np.std(draws[j2]) / math.sqrt(n)
            assert abs(c) < 4 * scale


def test_cos_idle_factor_invariant_on_nk(four_server):
    # all types are critical here, so every K-critical vector uses all servers
    # and the c.o.s. reweighting k(T) is the same for each (hence P*_cos = P*)
    report = critical_rate_and_subsets_bruteforce(four_server)
    vecs = enumerate_k_critical(four_server, report, report.depth_K)
    coc = config_distribution(four_server, "coc")
    cos = config_distribution(four_server, "cos")
    idx = {e: i for i, e in enumerate(coc[0])}
    ratios = {v.entries: cos[1][idx[v.entries]] / coc[1][idx[v.entries]] for v in vecs}
    assert len(set(ratios.values())) == 1


def test_unstable_model_rejected():
    bad = SystemModel(mu=(F(1),), lam=F(2), job_types=(frozenset({1}),), p=(F(1),))
    with pytest.raises(DomainError):
        config_distribution(bad)
    with pytest.raises(DomainError):
        sample_prelimit(bad, "coc", 10, seed=0)


def _sample_per_set(model, discipline, n, seed):
    """sample_prelimit written row by row: the peeling as the sampler does it,
    then for each prefix set A in order of bitmask one geometric and one
    multinomial draw for the rows whose vector passes through A, with the
    parameters that segment_law gives a vector through A."""
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
    config_idx = np.repeat(np.arange(len(entries_list)), [drawn[e] for e in entries_list])
    row_entries = [entries_list[i] for i in config_idx]
    out = np.zeros((n, model.n_types), dtype=np.int64)
    for r, entries in enumerate(row_entries):
        out[r, list(entries)] = 1
    sets = {}  # prefix set -> (its size, a vector through it)
    for entries in entries_list:
        for j in range(1, len(entries) + 1):
            sets.setdefault(sum(1 << t for t in entries[:j]), (j, entries))
    for a in sorted(sets):
        j, through = sets[a]
        law = segment_law(model, through)
        fraction = dict(zip(through[:j], law.split_fractions[j - 1]))
        types = sorted(fraction)
        rows = [r for r, e in enumerate(row_entries) if set(e[:j]) == set(types)]
        totals = rng.geometric(1.0 - float(law.segment_params[j - 1]), size=len(rows)) - 1
        out[np.ix_(rows, types)] += rng.multinomial(totals, [float(fraction[u]) for u in types])
    return out, config_idx, entries_list


def test_sampler_equals_per_vector_segment_laws(mm1, n_model, four_server, diamond):
    """The sampler draws the same arrays, seed for seed, as a row-by-row
    oracle that takes each prefix set's parameters from segment_law."""
    rng = random.Random(7)
    models = [mm1, n_model, four_server, diamond, four_server.as_float()]
    models += [generators.random_stable_model(rng, max_servers=5, max_types=5,
                                              cover_all_servers=True) for _ in range(12)]
    for k, model in enumerate(models):
        for discipline in ("coc", "cos"):
            got = sample_prelimit(model, discipline, 3000, seed=k, return_configs=True)
            want = _sample_per_set(model, discipline, 3000, k)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[2] == want[2]


# sha256 of sample_prelimit's arrays and drawn vectors (2,000 samples, seed
# 17). The oracle of test_sampler_equals_per_vector_segment_laws reads its
# parameters from segment_law, which reads _segment as the sampler does;
# these pin the streams themselves, so a fault in that shared computation
# shows here.
SAMPLE_PINS = {
    ("n_model", "coc"): "5b04ec9f7668e388a91a34e8a87dbdb1d92a8bb29dfdf6c35f4d28c181b04874",
    ("n_model", "cos"): "e5b9161ef45a0c14d583359d3191dd26e895d1639db46d591dc02dc9b684c5f9",
    ("four_server", "coc"): "be30013fe755a424c572725224526be65115cb0f0e45a42bcd84dfd2b7b243c7",
    ("four_server", "cos"): "d92f6ff230c36ea9b3c940ed9bae7dbe0223f2a13ae0aa9c162c9e8a556ea12a",
    ("diamond", "coc"): "4a909ba02eb3cf619a6da30b26e0d020230b669b8567654865cdcebf1aba95c6",
    ("diamond", "cos"): "dbb3852695c93f272eb59a58700b56531567219fc73da8465ed5abfc472f61ec",
    ("four_server_float", "coc"):
        "be30013fe755a424c572725224526be65115cb0f0e45a42bcd84dfd2b7b243c7",
    ("four_server_float", "cos"):
        "d92f6ff230c36ea9b3c940ed9bae7dbe0223f2a13ae0aa9c162c9e8a556ea12a",
}


@pytest.mark.parametrize("name, discipline", sorted(SAMPLE_PINS))
def test_fixed_seed_samples_are_pinned(request, name, discipline):
    model = request.getfixturevalue(name.removesuffix("_float"))
    if name.endswith("_float"):
        model = model.as_float()
    out, idx, entries = sample_prelimit(model, discipline, 2000, seed=17, return_configs=True)
    digest = hashlib.sha256(out.tobytes() + idx.tobytes() + repr(entries).encode()).hexdigest()
    assert digest == SAMPLE_PINS[name, discipline]
