import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from redundancy_ht import SystemModel, _kernels, generators, simulator
from redundancy_ht.analytic import LimitLaw, limit_law, sample_limit, sigma_mixture
from redundancy_ht.criticality import crp_components
from redundancy_ht.errors import CapExceeded, DomainError
from redundancy_ht.model import TrajectorySpec, dump_model, model_at_trajectory
from redundancy_ht.moments import moment_total
from redundancy_ht.oracles import (config_distribution, config_marginals_from_oracle,
                                   critical_rate_and_subsets_bruteforce, ctmc_oracle)
from redundancy_ht.prelimit import expected_type_counts, sample_prelimit
from redundancy_ht.simulator import (MIN_BATCHES, T975, _compat, _EventTable, _ks_sorted,
                                     _row_sums, _run_coc, _run_cos, _segments, ks_two_sample,
                                     scaled_law_check, simulate)

import sim_reference as reference


def test_mm1_time_average(mm1):
    est = simulate(mm1, "coc", horizon_events=400_000, seed=1)
    assert abs(est.time_avg_total - 1.0) < max(3 * est.half_width[0], 0.05)


def test_strong_crp_type_split():
    # complete sharing: per-type time-average proportions approach p_S
    model = SystemModel(mu=(F(1), F(1)), lam=F(9, 10),
                        job_types=(frozenset({1, 2}), frozenset({2})), p=(F(3, 4), F(1, 4)))
    est = simulate(model, "coc", horizon_events=400_000, seed=2)
    share = est.time_avg / est.time_avg.sum()
    assert abs(share[0] - 0.75) < 0.05


def test_sim_total_matches_moment(n_model):
    est = simulate(n_model, "coc", horizon_events=600_000, seed=3)
    expected = float(moment_total(n_model, 1))
    assert abs(est.time_avg_total - expected) < 3 * est.half_width.sum()


def test_sim_per_type_matches_exact_means(n_model):
    est = simulate(n_model, "coc", horizon_events=600_000, seed=4)
    for t, target in enumerate(expected_type_counts(n_model)):
        assert abs(est.time_avg[t] - float(target)) < 4 * max(est.half_width[t], 0.02)


def test_literal_copies_agrees_with_aggregated(four_server):
    a = simulate(four_server, "coc", horizon_events=300_000, seed=5)
    b = reference.simulate(four_server, "coc", horizon_events=300_000, seed=6,
                           literal_copies=True)
    for t in range(4):
        tol = 3 * (a.half_width[t] + b.half_width[t])
        assert abs(a.time_avg[t] - b.time_avg[t]) < max(tol, 0.05)


def test_debug_checks_run(n_model, four_server):
    for model in (n_model, four_server):
        reference.simulate(model, "coc", horizon_events=5_000, seed=7, debug_checks=True)
        reference.simulate(model, "coc", horizon_events=5_000, seed=7, debug_checks=True,
                           literal_copies=True)
        reference.simulate(model, "cos", horizon_events=5_000, seed=8, debug_checks=True)


def _assert_same_run(a, b):
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.time_avg, b.time_avg)
    assert np.array_equal(a.half_width, b.half_width)


def test_literal_copies_follow_the_same_path():
    # for a fixed seed the kernels make the draws of the policy-object loop
    # in the same order and integrate in the same arithmetic order, so c.o.c.
    # matches both the central queue and the literal per-copy queues, and
    # c.o.s. matches FCFS-ALIS, to the bit
    rng = random.Random(2024)
    for i in range(30):
        model = generators.random_stable_model(rng, max_servers=5, max_types=6)
        seed = rng.randrange(1000)
        runs = [dict(horizon_events=2_000, sample_every=7),
                # fewer events than MIN_BATCHES: one batch per event
                dict(horizon_events=1 + i % (MIN_BATCHES - 1), warmup_events=i % 2 * 7,
                     sample_every=1),
                dict(horizon_events=500, warmup_events=0, sample_every=1)]
        for kw in runs:
            a = simulate(model, "coc", seed=seed, **kw)
            _assert_same_run(a, reference.simulate(model, "coc", seed=seed, **kw))
            _assert_same_run(a, reference.simulate(model, "coc", seed=seed, literal_copies=True,
                                                   **kw))
            _assert_same_run(simulate(model, "cos", seed=seed, **kw),
                             reference.simulate(model, "cos", seed=seed, **kw))


def test_event_table_entries():
    # per state mask: arrivals by type, then the busy servers in server
    # order; cumulative rates that end in inf; and 1/q beside q
    rng = random.Random(99)
    for _ in range(40):
        model = generators.random_stable_model(rng, max_servers=6, max_types=7)
        fmodel = model.as_float()
        s, n = model.n_types, model.n_servers
        type_masks = [sum(1 << t for t in c) for c in _compat(fmodel)]
        for masks, width in ((type_masks, s), ([1 << srv for srv in range(n)], n)):
            table = _EventTable(fmodel, masks)
            for key in {rng.randrange(1 << width) for _ in range(12)} | {0}:
                hold, rate, cum, codes = table[key]
                busy = [srv for srv in range(n) if masks[srv] & key]
                assert codes == list(range(s)) + [s + srv for srv in busy]
                assert len(cum) == len(codes)
                assert all(a <= b for a, b in zip(cum, cum[1:]))
                assert cum[-1] == math.inf and all(map(math.isfinite, cum[:-1]))
                assert hold == 1.0 / rate
                want = float(n * model.lam + sum(model.mu[srv] for srv in busy))
                assert abs(rate - want) <= 1e-12 * want


# sha256 of the sampled counts (20,000 events, seed 31, every 3rd departure)
# and the KS statistics of scaled_law_check (eps 0.2 and 0.1, 40,000 events
# each, seed 32, 2,000 law draws), as the stream of each discipline gives
# them. A change to the simulator that draws a different jump chain for a
# fixed seed changes these values and has to say so.
STREAM_PINS = {
    ("n_model", "coc"): (
        "c40730e50751eb8c4886068eb5c841e880354e1ebbe4df406f6859c645f84829",
        [((0.34, 0.2095), 0.185), ((0.1855, 0.3585), 0.298)]),
    ("n_model", "cos"): (
        "f02ec6fb134de837b7891e402aa68cb7a734270e9b49182e615ee2c8f97c8339",
        [((0.62, 0.2995), 0.2835), ((0.2, 0.4045), 0.338)]),
    ("four_server", "coc"): (
        "789e91afc6ca646fb623ed668d31ca6225fbbd1755d073ffaf902be2251bb951",
        [((0.2655, 0.4, 0.2, 0.3395), 0.166), ((0.1945, 0.28, 0.0995, 0.3735), 0.2025)]),
    ("four_server", "cos"): (
        "da7962b58e213bc46e05b5d3fb0cd64edbdc48b1b2de86d2f2a8b46803f49218",
        [((0.3255, 0.67, 0.3475, 0.42), 0.312), ((0.1855, 0.32, 0.2475, 0.4475), 0.252)]),
}


@pytest.mark.parametrize("name, discipline", sorted(STREAM_PINS))
def test_fixed_seed_streams_are_pinned(request, name, discipline):
    model = request.getfixturevalue(name)
    digest, ks = STREAM_PINS[name, discipline]
    est = simulate(model, discipline, horizon_events=20_000, seed=31, sample_every=3)
    assert hashlib.sha256(est.samples.tobytes()).hexdigest() == digest
    rows = scaled_law_check(crp_components(model), discipline, eps_values=[0.2, 0.1],
                            events_per_eps=40_000, seed=32, law_samples=2_000)
    assert [(row.ks_per_type, row.ks_total) for row in rows] == ks


# tracemalloc sees the Python kernels' allocations only; test_kernels bounds
# the compiled kernels' peak resident memory in a child process
def test_no_table_over_all_type_subsets():
    # 18 types on 5 servers: a table over all 2^18 type masks would need
    # well over 100 MB before the first event
    subsets = [s for k in range(1, 6) for s in itertools.combinations(range(1, 6), k)]
    model = SystemModel(mu=(F(1),) * 5, lam=F(1, 2),
                        job_types=tuple(frozenset(s) for s in subsets[-18:]),
                        p=(F(1, 18),) * 18)
    tracemalloc.start()
    try:
        _run_coc(model.as_float(), _segments(1_000, 200), 1, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


@pytest.mark.parametrize("kernel", [_run_coc, _run_cos], ids=["coc", "cos"])
def test_warmup_holds_no_samples(mm1, kernel):
    # ~50,000 warm-up departures at sample_every=1: keeping their counts
    # until the warm-up ends would peak near 4 MB
    tracemalloc.start()
    try:
        _, samples = kernel(mm1.as_float(), _segments(100, 100_000), 3, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert 0 < len(samples) <= 100


def test_cos_waiting_matches_moment(n_model):
    est = simulate(n_model, "cos", horizon_events=600_000, seed=9)
    expected = float(moment_total(n_model, 1, "cos"))
    assert abs(est.time_avg_total - expected) < 3 * est.half_width.sum()


def test_unstable_model_is_refused():
    model = SystemModel(mu=(F(1),), lam=F(2), job_types=(frozenset({1}),), p=(F(1),))
    with pytest.raises(DomainError, match=r"^model is unstable: lambda = 2 >= lambda\* = 1$"):
        simulate(model, "coc", horizon_events=100)


@pytest.mark.parametrize("compiled", [True, False], ids=["default-kernel", "python-kernel"])
def test_clock_beyond_float_range_is_refused(compiled, monkeypatch):
    # every holding time is at least 1/(N lambda + sum mu) ~ 4.5e304, so the
    # 10,000 events of the batches take more time than the largest float
    if not compiled:
        monkeypatch.setattr(_kernels, "library", lambda: None)
    model = SystemModel(mu=(F(1, 10 ** 305),) * 2, lam=F(1, 10 ** 306),
                        job_types=(frozenset({1, 2}), frozenset({2})), p=(F(1, 2),) * 2)
    for discipline in ("coc", "cos"):
        with pytest.raises(DomainError, match=r"^the time averages are not finite"):
            simulate(model, discipline, horizon_events=10_000)


@pytest.mark.parametrize("eps, events, spacing", [(0.0001, 10_000_000, 800_000_000),
                                                   (0.01, 70_000, 80_000)])
def test_scaled_law_check_refuses_a_spacing_beyond_the_run_first(eps, events, spacing, n_model,
                                                                  monkeypatch):
    # a run of events plus a fifth in warm-up departs at most half as often:
    # 6e6 and 42,000 times here, fewer than one spacing; the refusal comes
    # before the eps = 0.2 run
    def never(*args, **kwargs):
        raise AssertionError("a simulation ran before the spacing was checked")

    monkeypatch.setattr(simulator, "simulate", never)
    with pytest.raises(DomainError, match=f"^{events} events give no sample {spacing} events "
                                          f"apart at eps={eps}$"):
        scaled_law_check(crp_components(n_model), "coc", eps_values=[0.2, eps],
                         events_per_eps=events)


def test_a_seed_is_an_integer_at_least_zero(n_model):
    # the three seeded functions share one check, made before any draw
    draws = {"simulate": lambda seed: simulate(n_model, "coc", horizon_events=300, seed=seed,
                                               sample_every=3).samples,
             "sample_prelimit": lambda seed: sample_prelimit(n_model, "coc", 20, seed),
             "sample_limit": lambda seed: sample_limit(LimitLaw(((1, 0), (0, 1))), 20, seed)}
    for name, draw in draws.items():
        for seed in (-5, -1, 1.5, "3", None):
            with pytest.raises(DomainError, match=r"^a seed is an integer >= 0, got "):
                draw(seed)
        # a numpy integer seed runs the stream of the equal int
        assert np.array_equal(draw(np.int64(7)), draw(7)), name
        assert not np.array_equal(draw(5), draw(7)), name


def test_oracle_mm1_geometric(mm1):
    pi, pf, tv = ctmc_oracle(mm1, "coc", truncation_len=50)
    assert tv < 1e-10
    rho = 0.5
    norm = sum(rho ** k for k in range(51))
    for k in (0, 1, 5, 20):
        assert abs(pi[tuple([0] * k)] - rho ** k / norm) < 1e-10


def test_oracle_n_model_product_form(n_model):
    nmod = n_model.with_lambda(F(1, 2))
    pi, pf, tv = ctmc_oracle(nmod, "coc", truncation_len=12)
    assert tv < 1e-6


def test_oracle_config_marginals_match_prelimit(n_model):
    nmod = n_model.with_lambda(F(1, 2))
    entries_list, probs = config_distribution(nmod)

    def worst_error(truncation):
        pi, _, _ = ctmc_oracle(nmod, "coc", truncation_len=truncation)
        marg = config_marginals_from_oracle(nmod, pi)
        return max(abs(marg.get(entries, 0.0) - float(prob))
                   for entries, prob in zip(entries_list, probs))

    coarse, fine = worst_error(8), worst_error(14)
    assert fine < coarse  # the gap is truncation error and shrinks with the cap
    assert fine < 2.5e-4  # boundary mass ~ 2^-14 spread over the marginals


def test_oracle_refuses_cos(n_model):
    with pytest.raises(DomainError):
        ctmc_oracle(n_model, "cos", truncation_len=5)


def test_oracle_state_cap(four_server):
    with pytest.raises(CapExceeded):
        ctmc_oracle(four_server, "coc", truncation_len=12)


def test_ks_two_sample_critical_value():
    rng = np.random.default_rng(0)
    a, b = rng.exponential(1, 2000), rng.exponential(1, 2000)
    stat, crit = ks_two_sample(a, b)
    assert stat < crit
    assert abs(crit - 1.6276 * math.sqrt(2 / 2000)) < 1e-3


def test_t_table_is_scipy_quantile():
    import scipy.stats

    assert len(T975) == MIN_BATCHES - 1
    for dof, value in enumerate(T975, start=1):
        assert value == float(scipy.stats.t.ppf(0.975, dof)), dof


def _ks_pairs():
    """Sample pairs for the KS differential test: continuous and tied (scaled
    integer counts) values, n == m, n < m and n > m, sizes on both sides of the
    10,000 where scipy stops rounding to a multiple of 1/lcm(n, m), and
    verify-limit's shape: at most 200 tied scaled counts against many
    continuous law draws, in both argument orders."""
    rng = np.random.default_rng(7)
    sizes = [(1, 1), (1, 7), (5, 5), (37, 91), (300, 300), (480, 2000), (999, 1000),
             (10_000, 10_000), (10_000, 9_999), (10_001, 10_000), (70, 100_000),
             (4_000, 12_000)]
    for n, m in sizes + [(m, n) for n, m in sizes if n != m]:
        yield rng.exponential(1.0, n), rng.exponential(1.2, m)
        eps = rng.choice([0.02, 0.1, 1 / 3])
        yield rng.poisson(3.0, n) * eps, rng.geometric(0.3, m) * eps
        yield rng.integers(0, 4, n), rng.integers(0, 4, m)
    for _ in range(300):
        n, m = rng.integers(1, 200, 2)
        yield rng.normal(size=n).round(1), rng.normal(0.2, 1.0, m).round(1)
    for m in (100_000, 10_000, 7_000, 999):
        for _ in range(10):
            n, eps = int(rng.integers(1, 201)), rng.choice([0.2, 0.1, 0.05])
            counts, draws = rng.geometric(eps, n) * eps, rng.exponential(1.0, m)
            yield counts, draws
            yield draws, counts


@pytest.mark.filterwarnings("ignore:ks_2samp:RuntimeWarning")  # scipy's exact p-value can give up
def test_ks_two_sample_is_scipy_statistic():
    import scipy.stats

    for a, b in _ks_pairs():
        want = float(scipy.stats.ks_2samp(a, b).statistic)
        assert ks_two_sample(a, b)[0] == want, (len(a), len(b))
        assert ks_two_sample(list(a), list(b))[0] == want


@pytest.mark.parametrize("n, m", [(50, 100_000), (100_000, 50)])
def test_ks_two_sample_searches_only_the_smaller_sample(n, m, monkeypatch):
    """The statistic costs O(min(n, m) log max(n, m)): at most 4 min(n, m)
    keys go through searchsorted, whichever argument is the smaller."""
    keys = []
    real = np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda a, v, *args, **kw: keys.append(np.size(v)) or real(a, v, *args, **kw))
    rng = np.random.default_rng(3)
    ks_two_sample(rng.exponential(1.0, n), rng.exponential(1.0, m))
    assert keys and sum(keys) <= 4 * min(n, m)


def test_ks_two_sample_needs_two_samples():
    with pytest.raises(DomainError):
        ks_two_sample([], [1.0])


def _modules_loaded_by_cli_import(then="", site=True):
    """The module names a fresh interpreter holds after `import redundancy_ht.cli`
    and then the statements `then`; with site=False it starts with -S."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys, redundancy_ht.cli\n{then}\nprint(' '.join(sorted(sys.modules)))"
    flags = [] if site else ["-S"]
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()[-1].split()


def test_cli_import_loads_no_scipy():
    assert [k for k in _modules_loaded_by_cli_import() if k.startswith("scipy")] == []


def _numpy_modules(loaded):
    return [k for k in loaded if k.split(".")[0] == "numpy"]


# the oracles load on first access and no command module builds a dataclass
LAZY = {"redundancy_ht.oracles", "dataclasses", "inspect"}


def test_cli_import_loads_no_numpy():
    # numpy loads in the functions that draw, simulate or write arrays; every
    # layer module loads, as perfbench's tracer looks them up in sys.modules
    loaded = _modules_loaded_by_cli_import()
    assert _numpy_modules(loaded) == []
    assert not {"argparse", "gettext"} & set(loaded)
    assert not LAZY & set(loaded)
    layers = ("criticality", "analytic", "prelimit", "moments", "simulator", "model", "cli")
    assert {f"redundancy_ht.{layer}" for layer in layers} <= set(loaded)


def test_cli_import_loads_no_typing():
    # without site, whose .pth files may load typing before the package does
    assert "typing" not in _modules_loaded_by_cli_import(site=False)


def test_exact_commands_load_no_numpy(n_model, tmp_path):
    path = tmp_path / "n_model.json"
    path.write_text(json.dumps(dump_model(n_model)))
    commands = (["analyze"], ["pgf", "--z", "1/2,1/3"], ["laplace", "--t", "1,2"],
                ["limit-law"], ["moments", "--n", "2"])
    then = "\n".join(f"assert redundancy_ht.cli.main({[*argv, '--model', str(path)]!r}) == 0"
                     for argv in commands)
    loaded = _modules_loaded_by_cli_import(then)
    assert _numpy_modules(loaded) == []
    # nor argparse and the gettext it loads: the command table's parser needs neither
    assert not {"argparse", "gettext"} & set(loaded)
    assert not LAZY & set(loaded)


ORACLE_EXPORTS = (
    "OrderedTypeVector", "RepresentationMatrices", "beta_hat", "beta_hat_sigma_k", "beta_weight",
    "check_stability", "config_distribution", "config_prob",
    "critical_rate_and_subsets_bruteforce", "ctmc_oracle", "enumerate_k_critical", "eulerian",
    "h_term", "laplace_of_mixture", "linear_exponential_moment", "mixture_law",
    "moment_total_alt", "moments_identity", "nested_sum_identity", "omega_weight",
    "ordered_vector", "p_star", "representation_matrices", "sigma_aggregate",
    "sigma_weight_formula")


def test_oracles_import_loads_no_dataclasses():
    # the oracles' records derive from model.Record, as every other record does
    loaded = _modules_loaded_by_cli_import("import redundancy_ht.oracles")
    assert "redundancy_ht.oracles" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)


def test_oracle_names_resolve_from_the_package():
    import redundancy_ht
    from redundancy_ht import oracles, simulator

    assert len(set(ORACLE_EXPORTS)) == 25
    for name in ORACLE_EXPORTS:
        assert getattr(redundancy_ht, name) is getattr(oracles, name), name
    assert set(ORACLE_EXPORTS) <= set(dir(redundancy_ht))
    assert simulator.config_marginals_from_oracle is oracles.config_marginals_from_oracle
    for module in (redundancy_ht, simulator):
        with pytest.raises(AttributeError):
            module.no_such_name  # noqa: B018


def test_first_oracle_access_loads_the_oracles():
    loaded = _modules_loaded_by_cli_import(
        "from redundancy_ht import h_term\nfrom redundancy_ht.simulator import "
        "config_marginals_from_oracle")
    assert "redundancy_ht.oracles" in loaded


def test_cli_import_loads_no_acceptance_battery():
    # only `rht verify` reads the battery, which imports it when it runs
    loaded = set(_modules_loaded_by_cli_import())
    assert "redundancy_ht.cli" in loaded
    assert not loaded & {"redundancy_ht.acceptance", "redundancy_ht.generators"}


def test_scaled_law_check_checks_its_seed_first(n_model, monkeypatch):
    from redundancy_ht import analytic

    def never(*args, **kwargs):
        raise AssertionError("the limit law was sampled before the seed was checked")

    # scaled_law_check imports _limit_blocks when it runs, so it finds this one
    monkeypatch.setattr(analytic, "_limit_blocks", never)
    dag = crp_components(n_model)
    for seed in (-5, -1000, 1.5, "3"):
        with pytest.raises(DomainError):
            scaled_law_check(dag, "coc", eps_values=[0.2], events_per_eps=1000, seed=seed)


def test_scaled_law_check_runs(n_model):
    report = critical_rate_and_subsets_bruteforce(n_model)
    dag = crp_components(n_model, report.lambda_star)
    rows = scaled_law_check(dag, "coc", eps_values=[0.2, 0.1], events_per_eps=60_000, seed=11,
                            keep_samples=True)
    assert len(rows) == 2
    assert rows[0].scaled_samples.shape[1] == 2
    assert rows[1].ks_total < rows[0].ks_total


@pytest.mark.parametrize("width", [*range(1, 41), 127, 128, 129, 300])
def test_row_sums_are_numpy_row_sums(width):
    rng = np.random.default_rng(width)
    rows = rng.standard_exponential((257, width)) * 10.0 ** rng.integers(-12, 12, (257, width))
    rows[rng.random(rows.shape) < 0.2] = 0.0  # zeros, and ties among the rest
    ties = rng.random(rows.shape) < 0.2
    rows[ties] = rng.choice(rows[0], ties.sum())
    assert np.array_equal(_row_sums(np.ascontiguousarray(rows.T)), rows.sum(axis=1))


@pytest.mark.parametrize("discipline", ["coc", "cos"])
@pytest.mark.parametrize("name", ["n_model", "four_server", "diamond"])
def test_scaled_law_check_matches_the_full_reference(name, discipline, request):
    """The KS rows from the sorted columns and totals of the law's blocks
    equal those from its (n, |S|) draw, sorted by column and by sum(axis=1)."""
    dag = crp_components(request.getfixturevalue(name))
    rows = scaled_law_check(dag, discipline, [0.3, 0.2], 6_000, seed=4, law_samples=20_003,
                            keep_samples=True)
    law = (limit_law if dag.subtrees_laminar else sigma_mixture)(dag)
    ref = sample_limit(law, 20_003, 4 + 999)
    cols = [np.sort(ref[:, t]) for t in range(ref.shape[1])]
    total = np.sort(ref.sum(axis=1))
    for row in rows:
        scaled = row.scaled_samples
        assert row.ks_per_type == tuple(_ks_sorted(np.sort(scaled[:, t]), col)[0]
                                        for t, col in enumerate(cols))
        assert (row.ks_total, row.ks_total_critical) == \
            _ks_sorted(np.sort(scaled.sum(axis=1)), total)


def test_scaled_law_check_holds_no_full_law_draw(four_server):
    """The law's draws are held as sorted columns and totals, 5 doubles a
    draw on four types, with no (n, |S|) array or sorted copies beside them."""
    dag = crp_components(four_server)
    scaled_law_check(dag, "coc", [0.2], 2_000, seed=1, law_samples=1_000)  # imports, caches
    n = 200_000
    tracemalloc.start()
    try:
        scaled_law_check(dag, "coc", [0.2], 2_000, seed=1, law_samples=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * 8


def test_scaled_law_check_follows_the_trajectory(n_model):
    # gamma = (3/2, 1/2) gives limit means 1/2 and 5/2, where the plain
    # lambda = (1-eps) lambda* ray would converge to 1/2 and 3/2
    from redundancy_ht.analytic import limit_law

    traj = TrajectorySpec(gamma=(F(3, 2), F(1, 2)), epsilon=F(1, 50))
    dag = crp_components(n_model)
    law = limit_law(dag, traj)
    assert [sum(row[t] for row in law.coeffs) for t in range(2)] == [F(1, 2), F(5, 2)]
    rows = scaled_law_check(dag, "coc", eps_values=[0.1, 0.05],
                            events_per_eps=[200_000, 400_000], seed=5, law_samples=1_000,
                            traj=traj)
    for row, eps in zip(rows, (F(1, 10), F(1, 20))):
        pre = model_at_trajectory(n_model, TrajectorySpec(traj.gamma, eps), F(1))
        exact = [float(x * eps) for x in expected_type_counts(pre)]
        assert abs(row.mean_scaled[0] - exact[0]) < 0.08
        assert abs(row.mean_scaled[1] - exact[1]) < 0.6
    assert abs(rows[-1].mean_scaled[1] - 2.5) < 0.6


def test_cos_scaled_waiting_vector_approaches_same_law(n_model):
    # the waiting-count vector under cancel-on-start obeys the identical
    # K = 2 limit law; at moderate eps the simulated scaled means must match
    # the exact pre-limit waiting means, and the law distance must shrink
    report = critical_rate_and_subsets_bruteforce(n_model)
    dag = crp_components(n_model, report.lambda_star)
    rows = scaled_law_check(dag, "cos", eps_values=[0.1, 0.05],
                            events_per_eps=[9_600_000, 24_000_000], seed=17)
    for row, eps_frac in zip(rows, (F(1, 10), F(1, 20))):
        pre = n_model.with_lambda((1 - eps_frac) * report.lambda_star)
        exact = [float(x * eps_frac) for x in expected_type_counts(pre, "cos")]
        for got, want in zip(row.mean_scaled, exact):
            assert abs(got - want) < 0.06
    assert rows[1].ks_total < rows[0].ks_total


def test_total_one_sample_ks_vs_erlang_cdf(n_model):
    # scaled total vs the analytic Erlang(1,2) CDF; the distance target
    # scales with eps (systematic O(eps) plus sampling noise)
    import scipy.stats

    report = critical_rate_and_subsets_bruteforce(n_model)
    eps = 0.02
    pre = n_model.as_float().with_lambda((1 - eps) * float(report.lambda_star))
    est = simulate(pre, "coc", horizon_events=10_000_000, seed=19, sample_every=100)
    totals = est.samples.sum(axis=1) * eps
    stat = scipy.stats.kstest(totals, scipy.stats.gamma(a=2, scale=1.0).cdf).statistic
    assert stat < 0.05


def test_complete_partitioning_marginals_exponential():
    n = 3
    model = SystemModel(mu=tuple(F(1) for _ in range(n)), lam=F(1, 2),
                        job_types=tuple(frozenset({i + 1}) for i in range(n)),
                        p=tuple(F(1, n) for _ in range(n)))
    report = critical_rate_and_subsets_bruteforce(model)
    eps = 0.05
    pre = model.as_float().with_lambda((1 - eps) * float(report.lambda_star))
    est = simulate(pre, "coc", horizon_events=2_000_000, seed=12, sample_every=3000)
    scaled = est.samples * eps
    rng = np.random.default_rng(13)
    for t in range(n):
        stat, crit = ks_two_sample(scaled[:, t], rng.exponential(1.0, 50_000))
        assert stat < 2 * crit  # close to independent unit exponentials
