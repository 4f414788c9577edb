"""The integer prefix-set engine against the generic recursion on Fractions,
and the float backend of `pgf` kept in floats.

`analytic._prefix_table` and `analytic._idle_sums` compute exact entries in
Python integers; `prefix_reference` runs the same recursions as written. On
random stable models every entry must be equal as a Fraction, reduced, over
a positive denominator, at degrees 0-4, over random [base, top] intervals
with and without open_top, at points with negative entries and with
|z_t| > 1; where a stay factor is <= 0 both must raise the same PoleError at
the same set.
"""
import json
import math
import random
from fractions import Fraction as F

import pytest

import prefix_reference as reference
from redundancy_ht import analytic, generators
from redundancy_ht.cli import main
from redundancy_ht.errors import DomainError, PoleError


def _outcome(fn):
    """fn()'s value, or the message of the PoleError or DomainError it raises."""
    try:
        return fn()
    except (PoleError, DomainError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _as_fractions(table):
    """An integer table as Fraction lists, after checking that each entry is
    reduced over a positive integer denominator."""
    if isinstance(table, str):
        return table
    out = {}
    for a, (nums, den) in table.items():
        assert type(den) is int and den > 0 and all(type(x) is int for x in nums)
        assert math.gcd(den, *nums) == 1
        out[a] = [F(x, den) for x in nums]
    return out


def _point(rng, n_types, size, kind):
    """z_t as series of `size` coefficients: inside the unit cube, with
    negative entries, or with some |z_t| > 1."""
    low, high = {"inside": (0, 6), "negative": (-6, 6), "outside": (-18, 18)}[kind]
    return [[F(rng.randint(low, high), 6)] + [F(rng.randint(-9, 9), rng.randint(1, 4))
                                               for _ in range(size - 1)]
            for _ in range(n_types)]


def _models(seed, count, **kwargs):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, generators.random_stable_model(rng, **kwargs)


def test_integer_table_equals_the_fraction_recursion():
    outcomes = {"pole": 0, "table": 0}
    widths = set()
    for rng, model in _models(2801, 30, max_servers=5, max_types=8):
        n = model.n_types
        widths.add(n)
        full = (1 << n) - 1
        for size in range(1, 6):  # degrees 0-4
            kind = rng.choice(("inside", "negative", "outside"))
            z = _point(rng, n, size, kind)
            top = rng.randrange(1, 1 << n)
            base = top & rng.randrange(1 << n)
            for args in ((0, full, False), (base, top, False), (base, top, True)):
                if args[0] == args[1]:
                    continue
                got = _as_fractions(_outcome(lambda: analytic._prefix_table(model, z, *args)))
                want = _outcome(lambda: reference.prefix_table(model, z, *args))
                assert got == want, (model, z, args)
                outcomes["pole" if isinstance(want, str) else "table"] += 1
    assert max(widths) == 8
    assert min(outcomes.values()) > 20, outcomes


def test_prefix_series_equals_the_fraction_sums():
    for rng, model in _models(2802, 12, max_servers=5, max_types=7, cover_all_servers=True):
        kappa = analytic._idle_sums(model)
        z = _point(rng, model.n_types, 3, "inside")
        table = reference.prefix_table(model, z)
        for weights in (None, kappa):
            want = [0] * 3
            for a, fa in table.items():
                w = 1 if weights is None else analytic._free_idle_sum(model, kappa, analytic._bits(a))
                want = [x + w * y for x, y in zip(want, fa)]
            got = analytic._prefix_series(model, z, weights)
            assert got == want and all(type(x) is F for x in got)


def test_integer_idle_sums_equal_the_fraction_recursion():
    refused = 0
    for _, model in _models(2803, 40, max_servers=8, max_types=8):
        got, want = _outcome(lambda: analytic._idle_sums(model)), \
            _outcome(lambda: reference.idle_sums(model))
        assert got == want, model
        if isinstance(want, str):
            refused += 1
        else:
            assert all(type(x) in (F, int) for x in got)
    assert 0 < refused < 40


def _write(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


FOUR_SERVER = {
    "servers": [{"id": i, "mu": "1"} for i in (1, 2, 3, 4)],
    "types": [{"servers": [1], "p": "1/4"}, {"servers": [1, 2, 3], "p": "1/4"},
              {"servers": [3], "p": "1/6"}, {"servers": [3, 4], "p": "1/3"}],
    "lambda": "1/2",
}


@pytest.mark.parametrize("discipline", ("coc", "cos"))
def test_float_pgf_builds_no_exact_table(discipline, tmp_path, monkeypatch, capsys):
    """pgf --backend float on an exact model computes every table and idle
    sum in floats, and agrees with the exact value within 1e-12."""
    seen = []

    def recorded(fn, values):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.extend(x for v in values(out) for x in v)
            return out
        return wrapper

    entries = lambda table: [v[0] if isinstance(v, tuple) else v for v in table.values()]
    monkeypatch.setattr(analytic, "_prefix_table", recorded(analytic._prefix_table, entries))
    monkeypatch.setattr(analytic, "_idle_sums", recorded(analytic._idle_sums, lambda k: [k]))
    path = _write(tmp_path, FOUR_SERVER)
    for z in ("0.5,0.25,0.75,0.5", "-0.5,1.25,0.5,1"):
        assert main(["pgf", "--model", path, "--z=" + z, "--backend", "float",
                     "--discipline", discipline]) == 0
        approx = json.loads(capsys.readouterr().out)["value"]
        assert not any(isinstance(x, F) for x in seen) and any(type(x) is float for x in seen)
        del seen[:]
        assert main(["pgf", "--model", path, "--z=" + z, "--discipline", discipline]) == 0
        exact = F(json.loads(capsys.readouterr().out)["value"])
        assert abs(float(approx) - float(exact)) <= 1e-12 * abs(float(exact))
        assert seen and not any(type(x) is float for x in seen)
        del seen[:]


@pytest.mark.parametrize("mu, lam", [("1e400", "1"), ("1e-400", "1e-401")],
                         ids=["beyond-float-max", "below-float-min"])
def test_float_pgf_refuses_an_exact_model_beyond_the_float_range(mu, lam, tmp_path, capsys):
    """An exact model whose numbers a float cannot hold: the exact backend
    evaluates it, the float backend exits 2 with a one-line message."""
    doc = dict(FOUR_SERVER, servers=[{"id": i, "mu": mu} for i in (1, 2, 3, 4)], **{"lambda": lam})
    path = _write(tmp_path, doc)
    assert main(["pgf", "--model", path, "--z", "1/2,1/2,1/2,1/2"]) == 0
    capsys.readouterr()
    assert main(["pgf", "--model", path, "--z", "0.5,0.5,0.5,0.5", "--backend", "float"]) == 2
    err = capsys.readouterr().err
    assert err == "error: a model number is out of float range\n"
