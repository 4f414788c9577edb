"""The prefix-set engine against the literal sums over ordered vectors.

The oracles below enumerate ordered type vectors and ordered idle-server
vectors as the formulas are written; pgf_coc, pgf_cos, moment_total,
linear_moment, expected_type_counts, the c.o.s. configuration
distribution, the sampler's peeling probabilities, sigma_mixture and the
c.o.s. limiting Laplace transform must agree with them exactly on random
rational models. The path sums over the down-sets of the component DAG
(limiting_transform, the limit moments) must agree exactly with the sums
over sigma_mixture's listed orders.
"""
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from redundancy_ht import (SystemModel, TrajectorySpec, analytic, default_trajectory,
                           generators, model_at_trajectory, prelimit)
from redundancy_ht.analytic import _bits, limiting_transform, pgf_coc, pgf_cos, sigma_mixture
from redundancy_ht.criticality import crp_components
from redundancy_ht.errors import DomainError, ModelError
from redundancy_ht.model import is_exact
from redundancy_ht.moments import moment, moment_total
from redundancy_ht.oracles import (_compositions, config_distribution,
                                   critical_rate_and_subsets_bruteforce, enumerate_k_critical,
                                   geometric_moment_factor, h_term, iter_ordered_type_tuples,
                                   laplace_of_mixture, linear_exponential_moment, mixture_law,
                                   omega_weight, ordered_vector, sigma_aggregate)
from redundancy_ht.prelimit import (_last_type_weights, _peeling_weights, expected_type_counts,
                                    linear_moment, sample_prelimit, segment_law)


def idle_vector_weight(model, u):
    """prod_l mu_{u_l} / (N lam compat(u_1..u_l)) for an ordered idle-server vector u."""
    val = 1
    n, lam = model.n_servers, model.lam
    for l in range(1, len(u) + 1):
        head = set(u[:l])
        compat = sum(model.p[t] for t in model.type_indices if model.job_types[t] & head)
        if compat == 0:
            raise DomainError(f"servers {sorted(head)} have no compatible job type")
        val = val * model.mu[u[l - 1] - 1] / (n * lam * compat)
    return val


def idle_factor(model, entries):
    """idle_vector_weight summed over the ordered vectors of the servers that no type of T uses."""
    used = model.servers_of(entries)
    free = [s for s in range(1, model.n_servers + 1) if s not in used]
    return sum(idle_vector_weight(model, u)
               for m in range(len(free) + 1) for u in itertools.permutations(free, m))


def config_weights(model, discipline, z=None):
    """Unnormalised weight of every ordered type vector: h(T, z), times k(T) under c.o.s."""
    z = [1] * model.n_types if z is None else z
    out = {}
    for entries in iter_ordered_type_tuples(model):
        w = h_term(model, entries, z)
        out[entries] = w * idle_factor(model, entries) if discipline == "cos" else w
    return out


def pgf_oracle(model, z, discipline):
    return sum(config_weights(model, discipline, z).values()) / \
        sum(config_weights(model, discipline).values())


def config_oracle(model, discipline):
    weights = config_weights(model, discipline)
    total = sum(weights.values())
    return {entries: w / total for entries, w in weights.items()}


def moment_oracle(model, n, discipline):
    """n! sum_T gamma(T) P(T) with the composition-sum weight gamma(T) of each vector."""
    total = 0
    for entries, prob in config_oracle(model, discipline).items():
        vec = ordered_vector(model, entries, frozenset())
        m = len(entries)
        bs = [model.n_servers * model.lam * vec.prefix_p[j] / vec.prefix_mu[j] for j in range(m)]
        weight = 0
        for ks in _compositions(n, m + 1):
            term = F(m ** ks[0], math.factorial(ks[0]))
            for j, kj in enumerate(ks[1:]):
                term = term * geometric_moment_factor(kj, bs[j])
            weight = weight + term
        total = total + weight * prob
    return math.factorial(n) * total


def means_oracle(model, discipline):
    """Given T, type T_i holds 1 job plus a geometric mean a/(1-a) per segment j >= i."""
    means = [0] * model.n_types
    for entries, prob in config_oracle(model, discipline).items():
        if not entries:
            continue
        law = segment_law(model, entries)
        for i, t in enumerate(entries, start=1):
            acc = 1
            for j in range(i, len(entries) + 1):
                a = law.type_params[j - 1][i - 1]
                acc = acc + a / (1 - a)
            means[t] = means[t] + prob * acc
    return tuple(means)


def _series_mul(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _exp_series(x, n):
    """e^{x s} up to s^n."""
    return [F(x) ** k / math.factorial(k) for k in range(n + 1)]


def linear_moment_oracle(model, configs, c, n):
    """sum_T P(T) n! [s^n] e^{s c(T)} prod_j (1 - b_j) / (1 - b_j sum_i f_ji e^{s c_Ti})
    over the configurations T and their probabilities P(T) (config_oracle):
    one job of each type of T, then geometric segments b_j split by the fractions f_j."""
    total = 0
    for entries, prob in configs.items():
        series = _exp_series(sum(c[t] for t in entries), n)
        if entries:
            law = segment_law(model, entries)
            exps = [_exp_series(c[t], n) for t in entries]
            for b, fracs in zip(law.segment_params, law.split_fractions):
                split = [sum(f * e[k] for f, e in zip(fracs, exps)) for k in range(n + 1)]
                denom = [1 - b * split[0]] + [-b * x for x in split[1:]]
                inverse = [1 / denom[0]]  # 1 / denom, degree by degree
                for k in range(1, n + 1):
                    inverse.append(-sum(denom[i] * inverse[k - i] for i in range(1, k + 1))
                                   / denom[0])
                series = _series_mul(series, [(1 - b) * x for x in inverse])
        total = total + prob * series[n]
    return math.factorial(n) * total


def _models(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, generators.random_stable_model(rng, max_servers=4, max_types=4,
                                                  cover_all_servers=True)


def test_pgfs_match_ordered_sums():
    for rng, model in _models(401, 25):
        for _ in range(2):
            z = [F(rng.randint(0, 9), 9) for _ in model.type_indices]
            assert pgf_coc(model, z) == pgf_oracle(model, z, "coc")
            assert pgf_cos(model, z) == pgf_oracle(model, z, "cos")


def test_moments_match_composition_sums():
    for _, model in _models(402, 12):
        for discipline in ("coc", "cos"):
            for n in range(1, 5):
                assert moment_total(model, n, discipline) == moment_oracle(model, n, discipline)


def test_means_match_segment_sums():
    for _, model in _models(403, 20):
        for discipline in ("coc", "cos"):
            assert expected_type_counts(model, discipline) == means_oracle(model, discipline)


def test_means_sum_idle_servers_once(monkeypatch):
    calls = []
    real = analytic._idle_sums
    monkeypatch.setattr(analytic, "_idle_sums", lambda model: calls.append(model) or real(model))
    for _, model in _models(412, 6):
        for discipline in ("coc", "cos"):
            per_type = tuple(linear_moment(model, [int(u == t) for u in model.type_indices], 1,
                                           discipline) for t in model.type_indices)
            del calls[:]
            assert expected_type_counts(model, discipline) == per_type
            assert len(calls) == (discipline == "cos")


def test_linear_moments_match_segment_sums():
    for rng, model in _models(411, 6):
        for discipline in ("coc", "cos"):
            configs = config_oracle(model, discipline)
            for _ in range(2):
                c = [F(rng.randint(-3, 5), rng.randint(1, 4)) for _ in model.type_indices]
                for n in (1, 2, 3):
                    assert linear_moment(model, c, n, discipline) == \
                        linear_moment_oracle(model, configs, c, n)


def test_cos_configurations_match_idle_vector_sums():
    for _, model in _models(404, 20):
        entries, probs = config_distribution(model, "cos")
        assert dict(zip(entries, probs)) == config_oracle(model, "cos")


def test_float_backend_within_1e12():
    for rng, model in _models(405, 20):
        fm = model.as_float()
        z = [F(rng.randint(0, 9), 9) for _ in model.type_indices]
        pairs = [(pgf_coc(model, z), pgf_coc(fm, [float(x) for x in z])),
                 (pgf_cos(model, z), pgf_cos(fm, [float(x) for x in z]))]
        for discipline in ("coc", "cos"):
            pairs += [(moment_total(model, n, discipline), moment_total(fm, n, discipline))
                      for n in (1, 2, 3)]
            pairs += zip(expected_type_counts(model, discipline),
                         expected_type_counts(fm, discipline))
        for exact, approx in pairs:
            assert type(approx) is float
            assert abs(approx - float(exact)) <= 1e-12 * abs(float(exact))


def test_float_point_on_an_exact_model_beyond_the_float_range_of_its_weights():
    """The c.o.s. weights of an exact model are integers over one denominator,
    here both beyond the largest float; at a float point each weight is still
    rounded once, and the moments stay within 1e-12 of the exact ones."""
    tiny = F(1, 3 ** 700)
    model = SystemModel(mu=(F(1), F(1)), lam=F(4, 5), job_types=(frozenset({1, 2}), frozenset({2})),
                        p=(F(1, 2) + tiny, F(1, 2) - tiny))
    assert analytic._free_weights(model)[1] > 2 ** 1100
    for c in ([1.0, 1.0], [0.5, 2.0]):
        for n in (1, 2):
            exact = float(linear_moment(model, [F(x) for x in c], n, "cos"))
            approx = linear_moment(model, c, n, "cos")
            assert type(approx) is float and abs(approx - exact) <= 1e-12 * exact


def test_no_table_mixes_backends(monkeypatch):
    """No prefix-set table is asked for on an exact model with a float
    coefficient: every entry point, at float inputs on an exact and on a
    float model, under both disciplines, runs each table in one backend."""
    calls = []

    def checked(model, z):
        assert not model.exact or all(is_exact(x) for zt in z for x in zt), (model, z)
        calls.append(model.exact)
        return real(model, z)

    real = analytic._prefix_table
    monkeypatch.setattr(analytic, "_prefix_table", checked)
    monkeypatch.setattr(prelimit, "_prefix_table", checked)
    for rng, model in _models(413, 6):
        c = [rng.randint(-3, 5) / 4 for _ in model.type_indices]
        z = [rng.randint(0, 9) / 9 for _ in model.type_indices]
        for m in (model, model.as_float()):
            for discipline, pgf in (("coc", pgf_coc), ("cos", pgf_cos)):
                pgf(m, z)
                linear_moment(m, c, 2, discipline)
                moment_total(m, 2, discipline)
                expected_type_counts(m, discipline)
                sample_prelimit(m, discipline, 5, seed=1)
    assert True in calls and False in calls


def test_linear_moment_at_float_weights_is_the_float_models():
    """At float weights an exact model is computed as its float model, bit for bit."""
    rng = random.Random(414)
    for _ in range(20):
        model = generators.random_stable_model(rng, max_servers=5, max_types=5,
                                               cover_all_servers=True)
        c = [rng.randint(-6, 9) / 3 for _ in model.type_indices]
        for discipline in ("coc", "cos"):
            for n in (1, 2, 3):
                got = linear_moment(model, c, n, discipline)
                assert type(got) is float
                assert got == linear_moment(model.as_float(), c, n, discipline), (model, c, n)


def test_exact_model_beyond_the_float_range_refuses_float_weights():
    """Float weights put an exact model in floats, which a model number beyond
    the float range refuses, as pgf's float backend does."""
    model = SystemModel(mu=(F(10) ** 400, F(10) ** 400), lam=F(1), p=(F(1, 2), F(1, 2)),
                        job_types=(frozenset({1, 2}), frozenset({2})))
    for discipline in ("coc", "cos"):
        assert linear_moment(model, [F(1, 2), F(1)], 1, discipline) > 0
        with pytest.raises(ModelError, match="^a model number is out of float range$"):
            linear_moment(model, [0.5, 1.0], 1, discipline)


def test_server_without_types_has_no_idle_weight():
    # server 2 serves no type: its idle time has no arrival rate to divide by
    model = SystemModel(mu=(F(1), F(1)), lam=F(1, 4), job_types=(frozenset({1}),), p=(F(1),))
    assert pgf_coc(model, [F(1, 2)]) == F(2, 3)  # M/M/1 at rho = 1/2
    with pytest.raises(DomainError, match=r"servers \[2\]"):
        pgf_cos(model, [F(1, 2)])


# --- the sampler's peeling and the sigma mixture ---------------------------------

def laplace_cos_oracle(model, report, traj, t):
    """The c.o.s. limiting transform as a sum over the K-critical vectors T:
    omega(T) times the ordered idle-server sums at lambda* of the servers no
    type of T uses, with the critical-prefix factors of T, normalised."""
    lam_star = report.lambda_star
    at_limit = model.with_lambda(lam_star)
    nlam = model.n_servers * lam_star
    num = norm = 0
    for vec in enumerate_k_critical(model, report, report.depth_K):
        w = omega_weight(model, vec, lam_star, traj) * idle_factor(at_limit, vec.entries)
        factor = 1
        for i in vec.cr_indices:
            tsum = sum(t[s] * nlam * model.p[s] for s in vec.entries[:i])
            factor = factor / (1 + tsum / vec.prefix_gamma(traj, i))
        num = num + w * factor
        norm = norm + w
    return num / norm


def _with_trajectories(rng, models):
    """Each model with its report and DAG, on the default and on a random trajectory."""
    for model in models:
        report = critical_rate_and_subsets_bruteforce(model)
        dag = crp_components(model, report.lambda_star)
        gamma = tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in model.type_indices)
        for traj in (None, TrajectorySpec(gamma=gamma, epsilon=F(0))):
            yield model, report, dag, traj


def test_peeling_probabilities_match_configurations():
    """The sampler's table, read exactly, peels each vector with its exact
    probability, and its float weights are the exact ones correctly rounded."""
    for _, model in _models(406, 20):
        for discipline in ("coc", "cos"):
            pairs, final = _peeling_weights(model, discipline)
            f = {a: F(*fa) for a, fa in pairs.items()}
            _, _, kappa = analytic._kappa(model, discipline)
            exact = [fa * analytic._free_idle_sum(kappa, _bits(a)) for a, fa in f.items()]
            assert final == [float(w) for w in exact]
            set_prob = {a: w / sum(exact) for a, w in zip(f, exact)}
            for entries, prob in zip(*config_distribution(model, discipline)):
                a = sum(1 << t for t in entries)
                peeled = set_prob[a]
                for t in reversed(entries):
                    types, weights = _last_type_weights(model, pairs, a)
                    last = [model.p[u] * f[a ^ 1 << u] for u in types]
                    assert weights == [float(w) for w in last]
                    peeled = peeled * last[types.index(t)] / sum(last)
                    a ^= 1 << t
                assert peeled == prob


def test_sigma_mixture_matches_aggregated_vectors(diamond):
    models = [diamond] + [m for _, m in _models(407, 30)]
    laminar = set()
    for model, report, dag, traj in _with_trajectories(random.Random(4070), models):
        laminar.add(dag.subtrees_laminar)
        assert sigma_mixture(dag, traj) == \
            sigma_aggregate(mixture_law(model, report, traj), dag)
    assert laminar == {True, False}


def test_cos_laplace_matches_idle_sums(diamond):
    rng = random.Random(4080)
    models = [diamond] + [m for _, m in _models(408, 20)]
    for model, report, dag, traj in _with_trajectories(rng, models):
        oracle_traj = traj or default_trajectory(model.with_lambda(report.lambda_star),
                                                 report.lambda_star)
        for _ in range(2):
            t = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in model.type_indices]
            assert limiting_transform(dag, t, traj) == \
                [laplace_cos_oracle(model, report, oracle_traj, t)]


# --- the down-set lattice against the listed orders -------------------------------

def test_lattice_transform_matches_sigma_listing(diamond):
    rng = random.Random(4090)
    models = [diamond] + [m for _, m in _models(409, 30)]
    laminar = set()
    for model, _, dag, traj in _with_trajectories(rng, models):
        laminar.add(dag.subtrees_laminar)
        mix = sigma_mixture(dag, traj)
        for _ in range(3):
            t = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in model.type_indices]
            assert limiting_transform(dag, t, traj) == [laplace_of_mixture(mix, t)]
    assert laminar == {True, False}


def test_lattice_moments_match_sigma_listing(diamond):
    rng = random.Random(4100)
    models = [diamond] + [m for _, m in _models(410, 25)]
    laminar = set()
    for model, _, dag, traj in _with_trajectories(rng, models):
        laminar.add(dag.subtrees_laminar)
        atoms = sigma_mixture(dag, traj).atoms
        targets = [("total", [1] * model.n_types)] + \
            [(f"type:{s}", [int(t == s) for t in model.type_indices]) for s in model.type_indices]
        for target, c in targets:
            for n in (1, 2, 3):
                want = sum(w * linear_exponential_moment([sum(a * b for a, b in zip(c, row))
                                                          for row in rows], n)
                           for w, rows, _ in atoms)
                got = moment(model, n, target, limit=True, dag=dag, traj=traj)
                assert got == want, (target, n)
    assert laminar == {True, False}


def test_linear_moments_converge_to_the_limit(n_model, four_server, diamond):
    """Along a random trajectory, eps^n E[(c.Q)^n] of the pre-limit model
    approaches E[(c.Y)^n] of the limit law, with a relative error falling
    over eps = 1/10, 1/100, 1/1000, functional by functional."""
    rng = random.Random(4110)
    laminar = set()
    for model in (n_model, four_server, diamond):
        dag = crp_components(model)
        laminar.add(dag.subtrees_laminar)
        nlam = model.n_servers * dag.lambda_star
        # gamma within a factor 2 of the default direction keeps every rate positive
        gamma = tuple(nlam * p * F(rng.randint(2, 8), 4) for p in model.p)
        c = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in model.type_indices]
        for n in (1, 2):
            limit = math.factorial(n) * limiting_transform(dag, [0] * len(c),
                                                           TrajectorySpec(gamma, F(0)), c, n)[n]
            for discipline in ("coc", "cos"):
                errors = []
                for eps in (F(1, 10), F(1, 100), F(1, 1000)):
                    pre = model_at_trajectory(model, TrajectorySpec(gamma, eps), dag.lambda_star)
                    errors.append(abs(eps ** n * linear_moment(pre, c, n, discipline) / limit - 1))
                assert errors[0] > errors[1] > errors[2], (model, n, discipline, errors)
                assert errors[2] < F(1, 50)
    assert laminar == {True, False}
