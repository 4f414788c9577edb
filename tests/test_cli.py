import contextlib
import hashlib
import io
import itertools
import json
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redundancy_ht import analytic, cli, oracles, prelimit, simulator
from redundancy_ht.cli import main

N_MODEL_DOC = {
    "servers": [{"id": 1, "mu": "1"}, {"id": 2, "mu": "1"}],
    "types": [{"servers": [1, 2], "p": "1/2"}, {"servers": [2], "p": "1/2"}],
    "lambda": "4/5",
}

EX42_DOC = {
    "servers": [{"id": i, "mu": "1"} for i in (1, 2, 3, 4)],
    "types": [{"servers": [1], "p": "1/4"}, {"servers": [1, 2, 3], "p": "1/4"},
              {"servers": [3], "p": "1/6"}, {"servers": [3, 4], "p": "1/3"}],
    "lambda": "1/2",
}


@pytest.fixture
def n_model_file(tmp_path):
    path = tmp_path / "nmodel.json"
    path.write_text(json.dumps(N_MODEL_DOC))
    return str(path)


@pytest.fixture
def ex42_file(tmp_path):
    path = tmp_path / "ex42.json"
    path.write_text(json.dumps(EX42_DOC))
    return str(path)


def _run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_analyze_n_model(n_model_file, capsys):
    code, out = _run(["analyze", "--model", n_model_file], capsys)
    assert code == 0
    payload = json.loads(out[:out.rindex("}") + 1])
    assert payload["lambda_star"] == "1"
    assert payload["depth_K"] == 2
    assert payload["crp_class"] == "NonCRP"
    assert payload["critical_subsets"] == [[0, 1], [1]]


def test_limit_law_ex42(ex42_file, capsys):
    code, out = _run(["limit-law", "--model", ex42_file], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == [
        ["1", "0", "0", "0"],
        ["0", "0", "1/3", "2/3"],
        ["1/4", "1/4", "1/6", "1/3"]]
    weights = sorted(a["weight"] for a in payload["sigma_mixture"])
    assert weights == ["1/3", "2/3"]


def test_exact_outputs_have_no_floats(ex42_file, capsys):
    code, out = _run(["laplace", "--model", ex42_file, "--t", "1,0,0,0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["product_form"] == "2/5"
    assert "." not in payload["product_form"] + payload["mixture_form"]


def test_float_backend(ex42_file, capsys):
    code, out = _run(["laplace", "--model", ex42_file, "--t", "1,0,0,0",
                      "--backend", "float"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(float(payload["product_form"]) - 0.4) < 1e-12


def test_moments_subcommand(n_model_file, capsys):
    code, out = _run(["moments", "--model", n_model_file, "--n", "1"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == "22/3"
    code, out = _run(["moments", "--model", n_model_file, "--n", "2", "--limit"], capsys)
    assert json.loads(out)["value"] == "6"
    for discipline, want in (("coc", "16/3"), ("cos", "1344/295")):  # expected_type_counts
        code, out = _run(["moments", "--model", n_model_file, "--n", "1", "--target", "type:1",
                          "--discipline", discipline], capsys)
        assert code == 0 and json.loads(out)["value"] == want
    code, out = _run(["moments", "--model", n_model_file, "--n", "1",
                      "--target", "type:" + "0" * 5000 + "1"], capsys)
    assert code == 0 and json.loads(out)["value"] == "16/3"


def test_sample_csv_deterministic(n_model_file, tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir(), out_b.mkdir()
    assert main(["sample", "--model", n_model_file, "--n", "50", "--seed", "9",
                 "--out-dir", str(out_a)]) == 0
    assert main(["sample", "--model", n_model_file, "--n", "50", "--seed", "9",
                 "--out-dir", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()


def test_sample_streams_its_rows(tmp_path, capsys):
    """The CSV rows are written as they are made: on M/M/1, 100,000 samples
    hold two int64 arrays (1.6 MB) and their draws, while building one list
    per row before writing peaks near 12 MB."""
    path = tmp_path / "mm1.json"
    path.write_text(json.dumps({"servers": [{"id": 1, "mu": "1"}],
                                "types": [{"servers": [1], "p": "1"}], "lambda": "1/2"}))
    tracemalloc.start()
    try:
        code = main(["sample", "--model", str(path), "--n", "100000", "--seed", "1",
                     "--out-dir", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert len((tmp_path / "samples.csv").read_text().splitlines()) == 100_001
    assert peak < 4 * 2 ** 20


def test_simulate_outputs(n_model_file, tmp_path, capsys):
    code = main(["simulate", "--model", n_model_file, "--events", "20000",
                 "--seed", "3", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    summary = json.loads((tmp_path / "simulate.json").read_text())
    assert summary["events"] == 20000
    header = (tmp_path / "simulate_samples.csv").read_text().splitlines()[0]
    assert header == "epoch,type_index,count"


def test_simulate_json_deterministic(n_model_file, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    out_a.mkdir(), out_b.mkdir()
    for out in (out_a, out_b):
        assert main(["simulate", "--model", n_model_file, "--events", "20000",
                     "--seed", "3", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert (out_a / "simulate.json").read_bytes() == (out_b / "simulate.json").read_bytes()
    assert (out_a / "simulate_samples.csv").read_bytes() == \
        (out_b / "simulate_samples.csv").read_bytes()


def test_simulate_json_is_valid_with_one_batch(n_model_file, tmp_path, capsys):
    # one event makes one batch: the half-width is undefined and written as null
    assert main(["simulate", "--model", n_model_file, "--events", "1", "--warmup", "0",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    summary = json.loads((tmp_path / "simulate.json").read_text(), parse_constant=reject)
    assert summary["half_width"] == [None, None]


@pytest.mark.parametrize("argv", [
    ["analyze"], ["pgf", "--z", "1/2,1/2"], ["laplace", "--t", "1,1"], ["limit-law"],
    ["moments", "--n", "1"], ["sample", "--n", "5"], ["simulate", "--events", "100"],
    ["verify-limit", "--events", "300", "--eps", "0.5"]],
    ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing", "file"])
def test_out_dir_not_a_directory_exits_2(argv, where, n_model_file, tmp_path, capsys):
    """An --out-dir that is missing or is a file exits 2 with a one-line message."""
    out = tmp_path / "missing" / "x" if where == "missing" else n_model_file
    assert main([*argv, "--model", n_model_file, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out-dir") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_exit_code_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--model", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["analyze", "--model", str(missing)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("content", [
    json.dumps(N_MODEL_DOC).replace('"4/5"', '"4/5\xff"').encode("latin-1"),
    b"[" * 200_000,
    json.dumps(N_MODEL_DOC).replace('"4/5"', "1" * 5000).encode(),
], ids=["not-utf-8", "nested-too-deep", "too-many-digits"])
def test_unreadable_model_file_exits_2(content, tmp_path, capsys):
    """A file json cannot decode (bad UTF-8, nesting beyond the recursion
    limit, an integer beyond the digit limit) is a one-line model error."""
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["analyze", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, artifact", [
    (["analyze"], "analysis.json"), (["laplace"], "laplace_grid.csv")])
def test_unwritable_artifact_exits_2(argv, artifact, n_model_file, tmp_path, capsys):
    """An artifact path that cannot be opened for writing is a one-line error."""
    (tmp_path / artifact).mkdir()
    assert main([*argv, "--model", n_model_file, "--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --out-dir: cannot write {artifact}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def _subsets_doc(n_servers, n_types):
    """n_types distinct types on n_servers unit servers, uniform p, lambda far below lambda*."""
    subsets = [list(s) for k in range(1, n_servers + 1)
               for s in itertools.combinations(range(1, n_servers + 1), k)]
    return {"servers": [{"id": i, "mu": "1"} for i in range(1, n_servers + 1)],
            "types": [{"servers": s, "p": f"1/{n_types}"} for s in subsets[:n_types]],
            "lambda": f"1/{2 * n_types}"}


def test_exit_code_cap_refusal(tmp_path, capsys):
    """One type or server more than the subset-lattice cap, or a grid of more
    steps than the grid cap, exits 3 at once."""
    cap = analytic.SUBSET_CAP
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(_subsets_doc(5, cap + 1)))
    z = ",".join(["1/2"] * (cap + 1))
    wide_servers = tmp_path / "wide-servers.json"
    wide_servers.write_text(json.dumps({
        "servers": [{"id": i, "mu": "1"} for i in range(1, cap + 2)],
        "types": [{"servers": [1], "p": "1/2"},
                  {"servers": list(range(1, cap + 2)), "p": "1/2"}],
        "lambda": "1/100"}))
    for path, argv in ((wide, ["pgf", "--z", z]),
                       (wide, ["pgf", "--z", z, "--discipline", "cos"]),
                       (wide, ["moments", "--n", "2"]),
                       (wide_servers, ["pgf", "--z", "1/2,1/2", "--discipline", "cos"]),
                       (wide_servers, ["moments", "--n", "1", "--discipline", "cos"]),
                       (wide, ["laplace", "--t-grid", "0:4:1e400"]),
                       (wide, ["laplace", "--t-grid", "0:4:10001"])):
        start = time.perf_counter()
        assert main([*argv, "--model", str(path)]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("refused: ")


class _Started(Exception):
    pass


def test_exit_code_count_caps(n_model_file, tmp_path, monkeypatch, capsys):
    """Counts that would simulate more than EVENT_CAP events or hold more
    than CELL_CAP per-type counts exit 3 at once, with one line; counts just
    inside the caps reach the simulator."""
    def started(*args, **kwargs):
        raise _Started

    for module, name in ((simulator, "simulate"), (simulator, "scaled_law_check"),
                         (prelimit, "sample_prelimit")):
        monkeypatch.setattr(module, name, started)
    # seven dedicated servers: seven types, enough for verify-limit's
    # held samples to pass CELL_CAP within EVENT_CAP
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"servers": [{"id": i, "mu": "1"} for i in range(1, 8)],
                                "types": [{"servers": [i], "p": "1/7"} for i in range(1, 8)],
                                "lambda": "1/2"}))
    events, cells = cli.EVENT_CAP, cli.CELL_CAP
    n_model, wide = ["--model", n_model_file], ["--model", str(wide)]
    for argv in (["simulate", "--events", "1000000000000", *n_model],
                 ["simulate", "--events", str(events), "--warmup", "1", *n_model],
                 ["simulate", "--events", "1", "--warmup", str(events), *n_model],
                 ["simulate", "--events", str(events - events // 6 + 1), *n_model],  # default warm-up
                 ["simulate", "--events", str(cells), "--warmup", "0", "--sample-every", "1",
                  *n_model],
                 ["verify-limit", "--events", str(events // 2), "--eps", "0.2,0.1", *n_model],
                 ["verify-limit", "--events", "1000000000000", "--eps", "0.2", *n_model],
                 ["verify-limit", "--events", str(events * 4 // 5), "--eps", "0.5", *wide],
                 ["verify-limit", "--events", str(events * 2 // 5), "--eps", "0.5,0.4",
                  "--scatter", *wide],
                 ["sample", "--n", str(cells // 2 + 1), *n_model],
                 ["sample", "--n", "1000000000000", *n_model]):
        start = time.perf_counter()
        assert main(argv) == 3, argv
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("refused: ") and err.count("\n") == 1, err
    # the warm-up holds no samples, and without --scatter verify-limit holds
    # one epsilon's at a time
    for argv in (["simulate", "--events", "1", "--warmup", str(events - 1), "--sample-every",
                  "1", *n_model],
                 ["verify-limit", "--events", str(events * 2 // 5), "--eps", "0.5,0.4", *wide]):
        with pytest.raises(_Started):
            main(argv)


def test_pgf_beyond_ordered_vector_cap(tmp_path, capsys):
    # twelve types: more than ENUM_CAP ordered vectors could list
    path = tmp_path / "twelve.json"
    path.write_text(json.dumps(_subsets_doc(4, 12)))
    for disc in ("coc", "cos"):
        code, out = _run(["pgf", "--model", str(path), "--z", ",".join(["1"] * 12),
                          "--discipline", disc], capsys)
        assert code == 0 and json.loads(out)["value"] == "1"
        code, out = _run(["pgf", "--model", str(path), "--z", ",".join(["1/2"] * 12),
                          "--discipline", disc], capsys)
        assert code == 0 and 0 < Fraction(json.loads(out)["value"]) < 1


def test_version_runs():
    proc = subprocess.run([sys.executable, "-m", "redundancy_ht.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "rht" in proc.stdout


def test_rht_seed_env(n_model_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RHT_SEED", "9")
    out_env = tmp_path / "env"
    out_env.mkdir()
    assert main(["sample", "--model", n_model_file, "--n", "50",
                 "--out-dir", str(out_env)]) == 0
    out_flag = tmp_path / "flag"
    out_flag.mkdir()
    monkeypatch.delenv("RHT_SEED")
    assert main(["sample", "--model", n_model_file, "--n", "50", "--seed", "9",
                 "--out-dir", str(out_flag)]) == 0
    capsys.readouterr()
    assert (out_env / "samples.csv").read_bytes() == (out_flag / "samples.csv").read_bytes()
    # a seed is an integer >= 0; a malformed RHT_SEED stops only the seeded commands
    for argv in (["sample", "--seed", "-5"], ["simulate", "--seed", "-5"],
                 ["verify-limit", "--seed", "-1000"], ["sample", "--seed", "abc"]):
        assert main([*argv, "--model", n_model_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seed: ") and err.count("\n") == 1
    for value in ("abc", "1.5", "-3"):
        monkeypatch.setenv("RHT_SEED", value)
        for command in ("sample", "simulate", "verify-limit"):
            assert main([command, "--model", n_model_file]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: RHT_SEED: ") and err.count("\n") == 1
        assert main(["analyze", "--model", n_model_file]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        capsys.readouterr()


def test_verify_only_subset(capsys):
    code, out = _run(["verify", "--only", "mixture-weights,limit-law-matrix"], capsys)
    assert code == 0
    assert out.count("PASS") == 2


def test_laplace_grid_is_erlang_transform(n_model_file, tmp_path, capsys):
    code = main(["laplace", "--model", n_model_file, "--t-grid", "0:4:5",
                 "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    lines = (tmp_path / "laplace_grid.csv").read_text().splitlines()
    assert lines[0] == "t,laplace"
    for line in lines[1:]:
        t, val = (Fraction(x) for x in line.split(","))
        assert val == (1 + t) ** -2  # K = 2 for this system


def _n_model_with(section, index, key, value=None):
    """N_MODEL_DOC with one entry's field replaced, or deleted when value is None."""
    doc = json.loads(json.dumps(N_MODEL_DOC))
    if value is None:
        del doc[section][index][key]
    else:
        doc[section][index][key] = value
    return doc


@pytest.mark.parametrize("doc, argv", [(doc, ["analyze"]) for doc in (
    _n_model_with("servers", 0, "mu"),
    _n_model_with("servers", 0, "mu", "x"),
    _n_model_with("types", 0, "p", "1/0"),
    _n_model_with("types", 0, "servers"),
    _n_model_with("servers", 0, "id", "1"),
    _n_model_with("types", 1, "servers", ["2"]),
    {"servers": {"id": 1}, "types": [], "lambda": "1"},
    [N_MODEL_DOC],
    dict(N_MODEL_DOC, trajectory={"gamma": {"1,2": "1", "2": "1"}}),
)] + [(N_MODEL_DOC, argv) for argv in (
    ["simulate", "--sample-every", "0"],
    ["simulate", "--warmup", "-10"],
    ["pgf", "--z", "1/2,x"],
    ["pgf", "--z", "1/0,1"],
    ["pgf", "--z", "1e400,1", "--backend", "float"],
    ["laplace", "--t", "1,inf"],
    ["laplace", "--t-grid", "0:4"],
    ["laplace", "--t-grid", "0:4:5/2"],
    ["laplace", "--t-grid", "0:4:0"],
    ["laplace", "--t=-1,-1"],
    ["laplace", "--t=-3,0"],
    ["laplace", "--t=-3,0", "--backend", "float"],
    ["laplace", "--t-grid=-2:0:3"],
    ["verify-limit", "--eps", "0.1,0"],
    ["verify-limit", "--eps", "0.2", "--events", "50"],
    ["pgf", "--z", "5/2,1"],
    ["pgf", "--z", "10,10"],
    ["pgf", "--z=-1,2"],
    ["pgf", "--z", "3,1", "--discipline", "cos"],
    ["moments", "--n", "1", "--limit", "--target", "type:x"],
    ["moments", "--n", "1", "--target", "type:" + "9" * 5000],  # past int()'s 4,300 digits
)] + [(_n_model_with("servers", 0, "mu", "1e400"), ["verify-limit", "--events", "2000"]),
       (dict(N_MODEL_DOC, **{"lambda": 0.25}), ["pgf", "--z", "1e400,1"]),
       (N_MODEL_DOC, ["verify-limit", "--eps", "1e-200", "--events", "300"])],
    ids=["missing-mu", "bad-mu", "p-zero-denominator", "type-without-servers",
         "string-server-id", "string-type-server", "servers-not-a-list", "not-an-object",
         "trajectory-without-epsilon", "sample-every-zero", "negative-warmup",
         "z-not-a-number", "z-zero-denominator", "z-float-overflow", "t-not-finite",
         "t-grid-two-fields", "t-grid-fractional-steps", "t-grid-zero-steps",
         "t-divergent-zero", "t-divergent-negative", "t-divergent-float", "t-grid-divergent",
         "eps-zero", "no-sample-at-eps", "z-at-a-pole", "z-beyond-a-pole",
         "z-negative-beyond-a-pole", "z-beyond-a-pole-cos", "target-not-an-integer",
         "target-beyond-int-digits",
         "mu-beyond-float-range", "exact-z-beyond-float-model", "eps-squared-underflows"])
def test_malformed_model_exits_2(doc, argv, tmp_path, capsys):
    """A malformed model file or argument exits 2 with a one-line message."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([*argv, "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("eps", ["1e400", "0.1,1e-400"])
def test_eps_zero_or_infinite_as_a_float(eps, n_model_file, capsys):
    # 1e400 overflows float(); 1e-400 is positive as a Fraction but 0.0 as a float
    assert main(["verify-limit", "--model", n_model_file, "--eps", eps]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --eps: ") and err.count("\n") == 1


def test_analyze_beyond_subset_scan_cap(tmp_path, capsys):
    # 21 distinct types on 5 unit servers with uniform p: the whole type set
    # is the only critical subset, so K = 1 and lambda* = mu_bar = 1
    subsets = [list(s) for k in range(1, 6) for s in itertools.combinations(range(1, 6), k)]
    doc = {"servers": [{"id": i, "mu": "1"} for i in range(1, 6)],
           "types": [{"servers": s, "p": "1/21"} for s in subsets[-21:]],
           "lambda": "1/2"}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out = _run(["analyze", "--model", str(path)], capsys)
    assert code == 0
    payload = json.loads(out[:out.rindex("}") + 1])
    assert payload["lambda_star"] == "1"
    assert payload["depth_K"] == 1
    assert payload["critical_subsets"] == [list(range(21))]


DIAMOND_DOC = {
    "servers": [{"id": i, "mu": "1"} for i in (1, 2, 3)],
    "types": [{"servers": [1, 3], "p": "1/3"}, {"servers": [2, 3], "p": "1/3"},
              {"servers": [3], "p": "1/3"}],
    "lambda": "1/2",
}


@pytest.mark.parametrize("doc, law_type", [(DIAMOND_DOC, "MixtureLaw"),
                                           (N_MODEL_DOC, "LimitLaw")],
                         ids=["diamond", "n-model"])
def test_verify_limit_uses_the_mixture_off_laminar(doc, law_type, tmp_path, monkeypatch,
                                                   capsys):
    seen = []

    def recording_sampler(law, *args, **kwargs):
        seen.append(law)
        raise _Started

    monkeypatch.setattr(analytic, "sample_limit", recording_sampler)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(_Started):
        main(["verify-limit", "--model", str(path), "--out-dir", str(tmp_path)])
    (law,) = seen
    assert type(law).__name__ == law_type
    if law_type == "MixtureLaw":  # the product form would give means 1/2, 1/2, 2
        means = [sum(w * sum(row[t] for row in coeffs) for w, coeffs, _ in law.atoms)
                 for t in range(3)]
        assert means == [Fraction(7, 12), Fraction(7, 12), Fraction(11, 6)]


def test_verify_limit_ignores_the_file_lambda(tmp_path, capsys):
    """verify-limit reads only lambda*, so a file whose lambda is past it
    (3/2 against lambda* = 1) runs, with the artifacts of lambda = 4/5."""
    outputs = []
    for lam in ("4/5", "3/2"):
        out = tmp_path / lam.replace("/", "_")
        out.mkdir()
        path = out / "m.json"
        path.write_text(json.dumps(dict(N_MODEL_DOC, **{"lambda": lam})))
        assert main(["verify-limit", "--model", str(path), "--events", "5000",
                     "--eps", "0.2,0.1", "--seed", "3", "--out-dir", str(out)]) == 0, lam
        outputs.append([(out / name).read_bytes()
                        for name in ("ks_sequence.csv", "verify_limit.json")])
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_moments_limit_follows_the_trajectory(tmp_path, capsys):
    # limit-law gives the rows (0, 2) and (1/2, 1/2) on this trajectory
    doc = dict(N_MODEL_DOC, trajectory={"gamma": {"1,2": "3/2", "2": "1/2"}, "epsilon": "0"})
    path = tmp_path / "traj.json"
    path.write_text(json.dumps(doc))
    code, out = _run(["limit-law", "--model", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["coefficients"] == [["0", "2"], ["1/2", "1/2"]]
    for target, n, want in (("type:1", "1", "5/2"), ("type:0", "2", "1/2"),
                            ("total", "1", "3"), ("total", "2", "14")):
        code, out = _run(["moments", "--model", str(path), "--n", n, "--limit",
                          "--target", target], capsys)
        assert code == 0 and json.loads(out)["value"] == want, target


def _independent_queues(tmp_path, k=11):
    """k equally loaded independent queues: K = k components, k! orders, 2^k down-sets."""
    path = tmp_path / "partition.json"
    path.write_text(json.dumps({
        "servers": [{"id": i, "mu": "1"} for i in range(1, k + 1)],
        "types": [{"servers": [i], "p": f"1/{k}"} for i in range(1, k + 1)],
        "lambda": "1/2"}))
    return str(path)


def test_exit_code_order_cap(tmp_path, capsys):
    """Eleven equally loaded independent queues have 11! topological orders:
    the commands that print orders refuse at once."""
    path = _independent_queues(tmp_path)
    for argv in (["analyze"], ["limit-law"]):
        start = time.perf_counter()
        assert main([*argv, "--model", path]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("refused: ")


def test_limit_sums_run_over_down_sets(tmp_path, capsys):
    """On the same eleven queues the transform, the limit moments and
    verify-limit sum over the 2^11 down-sets and never list an order."""
    path = _independent_queues(tmp_path)
    ones = ",".join(["1"] * 11)
    for argv, key, want in ((["laplace", "--t", ones, "--cos"], "cos_general", "1/2048"),
                            (["moments", "--limit", "--target", "type:0", "--n", "2"], "value",
                             "2"),
                            (["moments", "--limit", "--n", "1"], "value", "11")):
        start = time.perf_counter()
        code, out = _run([*argv, "--model", path], capsys)
        assert code == 0 and json.loads(out)[key] == want, argv
        assert time.perf_counter() - start < 10
    start = time.perf_counter()
    assert main(["verify-limit", "--model", path, "--eps", "0.2", "--events", "2000",
                 "--out-dir", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 10
    capsys.readouterr()


def test_laminar_limit_needs_no_down_set_lattice(tmp_path, capsys):
    """Fifteen independent queues have 2^15 down-sets, over the lattice cap;
    verify-limit samples the product form and the total limit moment is
    the closed form, so neither refuses."""
    path = _independent_queues(tmp_path, k=15)
    assert main(["verify-limit", "--model", path, "--eps", "0.2", "--events", "2000",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    code, out = _run(["moments", "--limit", "--n", "2", "--model", path], capsys)
    assert code == 0 and json.loads(out)["value"] == "240"  # 16!/14!
    assert main(["moments", "--limit", "--n", "2", "--target", "type:0", "--model", path]) == 3
    assert capsys.readouterr().err.startswith("refused: ")


def test_laplace_grid_reads_the_mixture_off_laminar(tmp_path, capsys):
    """On the diamond with gamma = (1, 2, 3) the product form gives 5/14 at
    t = 1, but the limit law is the mixture."""
    doc = dict(DIAMOND_DOC, trajectory={"gamma": {"1,3": "1", "2,3": "2", "3": "3"},
                                        "epsilon": "0"})
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(doc))
    assert main(["laplace", "--model", str(path), "--t-grid", "0:2:3",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "laplace_grid.csv").read_text().splitlines()
    assert rows == ["t,laplace", "0,1", "1,65/189", "2,17/108"]
    code, out = _run(["laplace", "--model", str(path), "--t", "1,1,1"], capsys)
    assert code == 0 and json.loads(out)["mixture_form"] == "65/189"


@pytest.mark.parametrize("argv", [
    ["moments", "--n", "1", "--backend", "float"],
    ["analyze", "--seed", "1"],
    ["limit-law", "--backend", "exact"],
    ["pgf", "--z", "1/2,1/2", "--seed", "1"],
    ["verify"],
], ids=["moments-backend", "analyze-seed", "limit-law-backend", "pgf-seed", "verify-model"])
def test_flags_only_where_read(argv, n_model_file, capsys):
    """A command rejects a flag it would not read (argparse exits 2)."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--model", n_model_file])
    assert exc.value.code == 2
    capsys.readouterr()


def test_usage_errors_are_one_line(n_model_file, capsys):
    model = ["--model", n_model_file]
    for argv in (["sample", "--n", "abc", *model], ["simulate", "--events", "1e5", *model],
                 ["simulate", "--warmup", "x", *model],
                 ["simulate", "--sample-every", "1.5", *model],
                 ["verify-limit", "--events", "many", *model], ["analyze"],
                 ["sample", "--n", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err == "error: the following arguments are required: --model\n"


def test_num_prints_every_integer_type_as_an_integer():
    assert [cli._num(x) for x in (np.int64(3), np.int32(-2), np.uint8(7), 12, -4, True, False)] \
        == ["3", "-2", "7", "12", "-4", "1", "0"]
    assert cli._num(np.float64(0.5)) == cli._num(0.5) == repr(0.5)
    assert cli._num(Fraction(-3, 4)) == "-3/4"


def test_laplace_grid_float_backend(n_model_file, tmp_path, capsys):
    assert main(["laplace", "--model", n_model_file, "--t-grid", "0:4:5", "--backend", "float",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for line in (tmp_path / "laplace_grid.csv").read_text().splitlines()[1:]:
        t, val = line.split(",")
        assert "/" not in t + val
        assert abs(float(val) - (1 + float(t)) ** -2) < 1e-15


def _model_and_report(path):
    from redundancy_ht import load_model
    from redundancy_ht.criticality import crp_components, report_from_construction

    model, _ = load_model(str(path))
    return model, report_from_construction(model, crp_components(model))


@pytest.mark.parametrize("doc", [EX42_DOC, DIAMOND_DOC], ids=["four-server", "diamond"])
def test_no_command_lists_ordered_vectors(doc, tmp_path, monkeypatch, capsys):
    """Every command but verify runs with the ordered-vector listing disabled."""
    def refuse(model):
        raise AssertionError("an ordered type vector was listed")

    monkeypatch.setattr(oracles, "iter_ordered_type_tuples", refuse)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    n = len(doc["types"])
    ones, halves = ",".join(["1"] * n), ",".join(["1/2"] * n)
    with pytest.raises(AssertionError):
        oracles.mixture_law(*_model_and_report(path))
    for argv in (["analyze"], ["pgf", "--z", halves], ["pgf", "--z", halves, "--discipline", "cos"],
                 ["laplace", "--t", ones, "--cos"], ["laplace", "--t-grid", "0:4:3"],
                 ["limit-law"], ["moments", "--n", "2"], ["moments", "--n", "1", "--discipline", "cos"],
                 ["moments", "--n", "2", "--limit"],
                 ["moments", "--n", "2", "--limit", "--target", "type:0"],
                 ["moments", "--n", "2", "--target", "type:0", "--discipline", "cos"],
                 ["sample", "--n", "200"], ["sample", "--n", "200", "--discipline", "cos"],
                 ["simulate", "--events", "2000"],
                 ["verify-limit", "--eps", "0.2,0.1", "--events", "2000"]):
        assert main([*argv, "--model", str(path), "--out-dir", str(tmp_path)]) == 0, argv
    capsys.readouterr()


def test_commands_beyond_ordered_vector_cap(tmp_path, capsys):
    """Twelve types in two independent subsystems, both critical (K = 2): the
    commands that read the limit law or draw configurations run exactly."""
    pair = [[1], [2], [1, 2]]
    quad = [s for k in (2, 3, 4) for s in itertools.combinations((3, 4, 5, 6), k)][:9]
    doc = {"servers": [{"id": i, "mu": "1"} for i in range(1, 7)],
           "types": [{"servers": s, "p": "1/9"} for s in pair]
           + [{"servers": list(s), "p": "2/27"} for s in quad],
           "lambda": "1/2"}
    path = tmp_path / "twelve.json"
    path.write_text(json.dumps(doc))
    code, out = _run(["analyze", "--model", str(path)], capsys)
    assert code == 0
    assert json.loads(out[:out.rindex("}") + 1])["depth_K"] == 2
    code, out = _run(["limit-law", "--model", str(path)], capsys)
    assert code == 0
    law = json.loads(out)
    # sigma weights p(other component) / p(both): 2/3 for the pair first
    assert sorted(a["weight"] for a in law["sigma_mixture"]) == ["1/3", "2/3"]
    code, out = _run(["laplace", "--model", str(path), "--t", ",".join(["1"] * 12), "--cos"],
                     capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["product_form"] == payload["mixture_form"] == payload["cos_general"] == "1/4"
    code, out = _run(["moments", "--model", str(path), "--n", "2", "--limit",
                      "--target", "type:0"], capsys)
    assert code == 0 and json.loads(out)["value"] == "2/9"  # 2 (p_S / p(C))^2, p_S/p(C) = 1/3
    for disc in ("coc", "cos"):
        assert main(["sample", "--model", str(path), "--n", "300", "--discipline", disc,
                     "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "samples.csv").read_text().splitlines()
        assert len(rows) == 301
    capsys.readouterr()


# --- strict inputs: any document or argument exits 0, 2 or 3 ------------------------

_SCALARS = st.sampled_from(["1", "1/2", "2/3", "3", "0", "-1", "1/0", "x", "1e400", "2.5", 0.5,
                            1, -1.0, 1e308, True])
_ENTRIES = st.sampled_from(["0", "1", "1/2", "3", "-1", "-3", "-1/2", "1e400", "x", "2.5", ""])
_GOOD_ENTRIES = st.sampled_from(["0", "1", "1/2", "3", "2.5"])


@st.composite
def _documents(draw):
    """A model document, well formed except (sometimes) in one field."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    bad = draw(st.sampled_from([None, None, "mu", "p", "lambda", "gamma", "servers"]))

    def value(field, good):
        return draw(_SCALARS if field == bad else st.sampled_from(good))

    servers = st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
    doc = {"servers": [{"id": i, "mu": value("mu", ["1", "2", "1/2"])} for i in range(1, n + 1)],
           "types": [{"servers": draw(st.lists(st.integers(0, n + 1), max_size=n)
                                      if bad == "servers" else servers),
                      "p": value("p", [f"1/{k}"])} for _ in range(k)],
           "lambda": value("lambda", ["1/4", "1/2", "9/10", "2", 0.25])}
    if draw(st.booleans()):
        doc["trajectory"] = {"gamma": {",".join(map(str, sorted(t["servers"]))):
                                       value("gamma", ["1", "2", "1/3"]) for t in doc["types"]},
                             "epsilon": value("gamma", ["0", "1/10"])}
    return doc


@st.composite
def _arguments(draw, doc):
    k = len(doc["types"])
    entries = draw(st.sampled_from([_GOOD_ENTRIES, _ENTRIES]))
    vector = ",".join(draw(st.lists(entries, min_size=k, max_size=k)
                           | st.lists(_ENTRIES, max_size=k + 1)))
    grid = ":".join([draw(entries), draw(entries),
                     draw(st.sampled_from(["1", "3", "5/2", "0", "-1", "1e400", "20000"]))])
    eps = ",".join(draw(st.lists(st.sampled_from(["0.2", "0.5", "1", "2", "0", "-0.1", "1/3",
                                                  "x", "1e-9", "1e-200"]),
                                 min_size=1, max_size=2)))
    backend = ["--backend", draw(st.sampled_from(["exact", "float"]))]
    discipline = ["--discipline", draw(st.sampled_from(["coc", "cos"]))]

    def count(*values):  # the last value is over every count cap
        return draw(st.sampled_from([*values, "0", "-1", "x", "1000000000000"]))

    target = draw(st.sampled_from(["total", "type:0", f"type:{k - 1}", f"type:{k}", "type:",
                                   "type:x", "type:-1", "types:0", ""]))
    limit = draw(st.sampled_from([[], ["--limit"], ["--prelimit"]]))
    return draw(st.sampled_from([
        ["pgf", "--z=" + vector, *discipline, *backend],
        ["laplace", "--t=" + vector, "--cos", *backend],
        ["laplace", "--t-grid=" + grid, *backend],
        ["verify-limit", "--eps=" + eps, "--events", count("300"), *discipline],
        ["simulate", "--events", count("1", "2", "50", "300"), "--warmup", count("1", "100"),
         "--sample-every", count("1", "7", "1000"), *discipline],
        ["sample", "--n", count("1", "3", "40"), *discipline],
        ["moments", "--n", count("1", "2", "13"), "--target=" + target, *limit, *discipline]]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzz_documents_and_arguments_never_crash(data):
    """A model document or argument exits 0, 2 (malformed, divergent) or 3
    (over a cap), never 1 with a traceback."""
    doc = data.draw(_documents())
    argv = data.draw(_arguments(doc))
    out = data.draw(st.sampled_from(["", "", "", "/missing", "/m.json"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/m.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([*argv, "--model", path, "--out-dir", tmp + out])
            except SystemExit as exc:  # argparse rejects a flag with exit 2
                code = exc.code
    assert code in (0, 2, 3), (doc, argv, out)


# sha256 of the artifact each exact command writes on three of the benchmark
# models; "{ones}" and "{halves}" stand for one 1 or one 1/2 per job type.
# Refactors of the exact layers keep every artifact byte for byte.
ARTIFACT_ARGV = {
    "analyze": ["analyze"], "limit-law": ["limit-law"],
    "laplace": ["laplace", "--t", "{ones}", "--cos"],
    "laplace-grid": ["laplace", "--t-grid", "0:2:5"],
    "moments": ["moments", "--n", "2"],
    "moments-cos-type": ["moments", "--n", "1", "--target", "type:0", "--discipline", "cos"],
    "moments-limit": ["moments", "--n", "2", "--limit", "--target", "type:0"],
    "pgf": ["pgf", "--z", "{halves}"],
    "pgf-cos": ["pgf", "--z", "{halves}", "--discipline", "cos"],
}
ARTIFACT_PINS = {
    ("n-model", "analyze"): "4377663ab356f9a40a6ab5b77fe36bc3a33011fdf8fc6d4bb5a0745ea5d11db0",
    ("n-model", "limit-law"): "a2168ea0526c3b5bfc673edc2d0399934dfa59d491476517e86a1f69de435c37",
    ("n-model", "laplace"): "b83ea037821e39ecf209b04e7716ad3adb643d90328215b67188ed958c576d5d",
    ("n-model", "laplace-grid"):
        "7aeb10bdd8eb3a408fff6feefa8016cb5a320406e297a93bbc3b4fd8a0ec0c43",
    ("n-model", "moments"): "721c4768c91a298e09b52a8e3621bc9add7ccda47f3465e59f0fcf7c97b526be",
    ("n-model", "moments-cos-type"):
        "b0b66ac36ea63abfef91491f8a9db96c7fe5fc7b02434f8e3c6ccac1f9aebc17",
    ("n-model", "moments-limit"):
        "b1fa2ca086a821703a7f6ca38b57e984dba40736f67523e9655fde7802c4da41",
    ("n-model", "pgf"): "6ee53ff5dbaf755e5ba142efcea694275cce128382caf533bf577c4eb25e4f19",
    ("n-model", "pgf-cos"): "43bb8595cced0fafca39d9ea11f017ac2d2cbc1dc92a6180a32a9817032f563f",
    ("four-server", "analyze"): "f322a20f7e37aec70a75dd1cc1270c004a9caeba67ab6dcec79d039d4e69a23f",
    ("four-server", "limit-law"):
        "fd808f18f1058ea49626822b2db25fdd798d40684c6f2535dc56ae3567079239",
    ("four-server", "laplace"): "c6561ba0b0857d15276fce0f42d0b7df37d871524a87c9844f6f46f3379c2fe3",
    ("four-server", "laplace-grid"):
        "9a234cbee26346fe62005a2b5acdbb091be3fbed43e4d0177bf99b26cc713a7f",
    ("four-server", "moments"): "b46240ac87f739c9d69684d69923841b5f09cb5174ae2b3699db73507cdbc757",
    ("four-server", "moments-cos-type"):
        "dbb236dfe9b9f12645fdf4b8a6057bbe604a245f9fc59b265760c27f908a38ef",
    ("four-server", "moments-limit"):
        "46a03b7ccb71d9b0089c4c876bab1bf694b889632b2f977f58dcf02984979665",
    ("four-server", "pgf"): "1beabc1640015d3ceb654357ca3e5e42fd1c8043dce620d2c3f1d4580a3a9ab5",
    ("four-server", "pgf-cos"): "b7a5ad4bcef3eb340b8b53706e67e719e3156d100692e926310179954efb4bc7",
    ("diamond", "analyze"): "57eca6fd5aaf4055919768796fa717847a067d8cdf462d81e6ff416a88e629ba",
    ("diamond", "limit-law"): "c3892e41c633eaf480314f2d0edd850c7fbcd94e7d002e5cbe48345b14472620",
    ("diamond", "laplace"): "701aab3acae46bca87e3a0e03d2115ccc86608d27e47f555cd9eebde602f35c3",
    ("diamond", "laplace-grid"):
        "9a234cbee26346fe62005a2b5acdbb091be3fbed43e4d0177bf99b26cc713a7f",
    ("diamond", "moments"): "a3529e62da216bfda61db058f215e17e0a0e3bcd09d9c75da162247c713befea",
    ("diamond", "moments-cos-type"):
        "05841c758da52e8437a4b9fd5e77b4ad33a0bd8db810c1a9055bd6acb24804da",
    ("diamond", "moments-limit"):
        "ce6d75ceb68800052d3d7bcee486718f4cce667cc8968ef636da587556c7afcf",
    ("diamond", "pgf"): "d3b0300242075a14ff82a7cdf372ad4b1c147333e14b5b99f7cea620275b7c6f",
    ("diamond", "pgf-cos"): "a5d9ee3f6ed7c85f7cc03612b4503121a66300fdc06d75234871f7528c929a35",
}
BENCH_MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"


@pytest.mark.parametrize("name, kind", sorted(ARTIFACT_PINS))
def test_exact_artifacts_are_pinned(name, kind, tmp_path, capsys):
    path = BENCH_MODELS / f"{name}.json"
    n_types = len(json.loads(path.read_text())["types"])
    argv = [a.format(ones=",".join(["1"] * n_types), halves=",".join(["1/2"] * n_types))
            for a in ARTIFACT_ARGV[kind]]
    assert main([*argv, "--model", str(path), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    (artifact,) = tmp_path.iterdir()
    assert hashlib.sha256(artifact.read_bytes()).hexdigest() == ARTIFACT_PINS[name, kind]
