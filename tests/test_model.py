import copy
import itertools
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redundancy_ht import (SimEstimate, SystemModel, TrajectorySpec, aggregate, analytic,
                           criticality, effective_rates, prelimit, simulator)
from redundancy_ht.errors import DomainError, ModelError
from redundancy_ht.model import dump_model, load_model, model_at_trajectory, parse_model


def test_aggregate_n_model(n_model):
    p, mu = aggregate(n_model, {1})  # type {2}
    assert (p, mu) == (F(1, 2), F(1))


def test_aggregate_full_set(four_server):
    p, mu = aggregate(four_server, range(4))
    assert p == 1
    assert mu == 4  # all four servers are touched by some type


def test_aggregate_four_server_pair(four_server):
    p, mu = aggregate(four_server, {2, 3})  # {3} and {3,4}: servers 3 and 4
    assert (p, mu) == (F(1, 2), F(2))


def test_aggregate_rejects_empty(n_model):
    with pytest.raises(DomainError):
        aggregate(n_model, set())


def test_aggregate_monotone(four_server, rng):
    subsets = [frozenset(t for t in range(4) if rng.random() < 0.5) or frozenset({0})
               for _ in range(40)]
    for a in subsets:
        for b in subsets:
            if a <= b:
                pa, ma = aggregate(four_server, a)
                pb, mb = aggregate(four_server, b)
                assert pa <= pb and ma <= mb


@settings(max_examples=200, deadline=None)
@given(mask_a=st.integers(1, 15), mask_b=st.integers(1, 15))
def test_mu_submodular(mask_a, mask_b):
    model = SystemModel(
        mu=(F(1), F(1), F(1), F(1)), lam=F(1, 2),
        job_types=(frozenset({1}), frozenset({1, 2, 3}), frozenset({3}), frozenset({3, 4})),
        p=(F(1, 4), F(1, 4), F(1, 6), F(1, 3)))
    a = {t for t in range(4) if mask_a >> t & 1}
    b = {t for t in range(4) if mask_b >> t & 1}
    union, inter = a | b, a & b
    lhs = model.mu_of(union) + (model.mu_of(inter) if inter else 0)
    rhs = model.mu_of(a) + model.mu_of(b)
    assert lhs <= rhs


def test_effective_rates_symmetric(n_model):
    traj = TrajectorySpec(gamma=(F(1), F(1)), epsilon=F(1, 10))
    assert effective_rates(n_model, traj, lam_star=F(1)) == (F(9, 10), F(9, 10))


def test_effective_rates_epsilon_zero(n_model):
    traj = TrajectorySpec(gamma=(F(1), F(1)), epsilon=F(0))
    assert effective_rates(n_model, traj, lam_star=F(1)) == (F(1), F(1))


def test_effective_rates_tilted(n_model):
    # gamma = (mu1 + delta, mu2 - delta) with delta = 1/2
    traj = TrajectorySpec(gamma=(F(3, 2), F(1, 2)), epsilon=F(1, 10))
    assert effective_rates(n_model, traj, lam_star=F(1)) == (F(17, 20), F(19, 20))


def test_effective_rates_rejects_nonpositive(n_model):
    traj = TrajectorySpec(gamma=(F(3), F(1)), epsilon=F(1))
    with pytest.raises(DomainError, match="1,2"):
        effective_rates(n_model, traj, lam_star=F(1))


def test_default_trajectory_matches_lambda_scaling(n_model):
    # gamma_S = N lam* p_S makes the rates equal N lam p_S at lam = (1-eps) lam*
    traj = TrajectorySpec(gamma=(F(1), F(1)), epsilon=F(1, 20))
    rates = effective_rates(n_model, traj, lam_star=F(1))
    lam = (1 - F(1, 20)) * F(1)
    assert rates == tuple(2 * lam * p for p in n_model.p)
    scaled = model_at_trajectory(n_model, traj, lam_star=F(1))
    assert scaled.lam == lam and scaled.p == n_model.p


def test_model_validation():
    with pytest.raises(ModelError):
        SystemModel(mu=(F(1),), lam=F(1, 2), job_types=(frozenset(),), p=(F(1),))
    with pytest.raises(ModelError, match="duplicate"):
        SystemModel(mu=(F(1), F(1)), lam=F(1, 2),
                    job_types=(frozenset({1}), frozenset({1})), p=(F(1, 2), F(1, 2)))
    with pytest.raises(ModelError, match="sum"):
        SystemModel(mu=(F(1),), lam=F(1, 2), job_types=(frozenset({1}),), p=(F(1, 2),))
    with pytest.raises(ModelError):
        SystemModel(mu=(F(0),), lam=F(1, 2), job_types=(frozenset({1}),), p=(F(1),))


# one value of each record class, built from the diamond model
RECORDS = {
    "SystemModel": lambda m: m,
    "TrajectorySpec": lambda m: TrajectorySpec(gamma=(F(1), F(2), F(3)), epsilon=F(1, 10)),
    "CriticalityReport": lambda m: criticality.report_from_construction(
        m, criticality.crp_components(m)),
    "CrpComponent": lambda m: criticality.crp_components(m).components[0],
    "ComponentDag": criticality.crp_components,
    "LimitLaw": lambda m: analytic.limit_law(criticality.crp_components(m)),
    "MixtureLaw": lambda m: analytic.sigma_mixture(criticality.crp_components(m)),
    "SegmentLaw": lambda m: prelimit.segment_law(m, (2, 0)),
    "SimEstimate": lambda m: SimEstimate("coc", (0.5, 1.5), (0.1, 0.2), (), 1000, 0.01),
    "ScaledLawRow": lambda m: simulator.ScaledLawRow(0.1, (0.02, 0.03), 0.04, 0.05, (1.0, 1.0)),
}
MUTABLE = {"SimEstimate", "ScaledLawRow"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_compares_by_field_value(name, diamond):
    first = RECORDS[name](diamond)
    second = copy.deepcopy(first)
    assert type(first).__name__ == name
    assert second is not first and second == first and first != object()
    field = type(first)._fields[0]
    assert repr(first).startswith(f"{name}({field}=")
    if name in MUTABLE:
        with pytest.raises(TypeError):
            hash(first)
        setattr(second, field, None)
        assert second != first
    else:
        assert hash(second) == hash(first)
        with pytest.raises(AttributeError):
            setattr(first, field, None)
        with pytest.raises(AttributeError):
            delattr(first, field)
        assert copy.deepcopy(first) == first


def test_record_init_by_position_or_keyword(n_model):
    fields = (n_model.mu, n_model.lam, n_model.job_types, n_model.p)
    assert SystemModel(*fields) == n_model
    assert SystemModel(*fields[:2], job_types=fields[2], p=fields[3]) == n_model
    for args, kwargs in [(fields[:3], {}), (fields, {"mu": fields[0]}), (fields + (1,), {}),
                         (fields, {"bogus": 1})]:
        with pytest.raises(TypeError):
            SystemModel(*args, **kwargs)
    est = SimEstimate("coc", (0.5,), (0.1,), (), 10, 0.01)
    assert est.kernel == "python" and SimEstimate(**vars(est)) == est
    with pytest.raises(ModelError):  # __post_init__ runs on replace too
        n_model.replace(lam=F(-1))
    assert n_model.with_lambda(F(1, 2)) == SystemModel(n_model.mu, F(1, 2), n_model.job_types,
                                                       n_model.p)


def test_lattice_cache_hits_for_equal_dags(diamond):
    first, second = criticality.crp_components(diamond), criticality.crp_components(diamond)
    assert first is not second and first == second
    analytic._lattice.cache_clear()
    analytic.sigma_mixture(first)
    analytic.sigma_mixture(second)
    info = analytic._lattice.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_mu_bar_is_derived(four_server):
    assert four_server.mu_bar == 1


def test_file_round_trip(tmp_path, four_server):
    traj = TrajectorySpec(gamma=(F(1), F(1), F(2, 3), F(4, 3)), epsilon=F(1, 50))
    doc = dump_model(four_server, traj)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    model2, traj2 = load_model(path)
    assert model2 == four_server
    assert traj2 == traj


def test_parse_rejects_unknown_fields():
    with pytest.raises(ModelError, match="unknown"):
        parse_model({"servers": [], "types": [], "lambda": "1", "bogus": 1})


def test_parse_floats_vs_strings(tmp_path):
    doc = {"servers": [{"id": 1, "mu": 1.0}], "types": [{"servers": [1], "p": 1.0}],
           "lambda": 0.5}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    model, _ = load_model(path)
    assert isinstance(model.lam, float) and isinstance(model.p[0], float)


@st.composite
def models_and_trajectories(draw):
    n = draw(st.integers(1, 4))
    subsets = [frozenset(s) for k in range(1, n + 1)
               for s in itertools.combinations(range(1, n + 1), k)]
    types = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.integers(1, 50), min_size=len(types), max_size=len(types)))
    positive = st.fractions(min_value=F(1, 100), max_value=10, max_denominator=1000)
    model = SystemModel(mu=tuple(draw(positive) for _ in range(n)), lam=draw(positive),
                        job_types=tuple(types),
                        p=tuple(F(w, sum(weights)) for w in weights))
    traj = None
    if draw(st.booleans()):
        traj = TrajectorySpec(gamma=tuple(draw(positive) for _ in types),
                              epsilon=draw(st.fractions(min_value=0, max_value=1,
                                                        max_denominator=1000)))
    if draw(st.booleans()):
        model = model.as_float()
        if traj is not None:
            traj = TrajectorySpec(gamma=tuple(float(g) for g in traj.gamma),
                                  epsilon=float(traj.epsilon))
    return model, traj


@settings(max_examples=200, deadline=None)
@given(case=models_and_trajectories())
def test_dump_parse_round_trip(case):
    model, traj = case
    got_model, got_traj = parse_model(json.loads(json.dumps(dump_model(model, traj))))
    assert (got_model, got_traj) == (model, traj)
    assert got_model.exact == model.exact  # each backend comes back as itself
    if traj is not None:
        assert type(got_traj.epsilon) is type(traj.epsilon)
