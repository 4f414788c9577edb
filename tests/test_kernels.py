"""The compiled simulator kernels (`_kernels.c`) against the Python kernels,
and the loader's cache and fallback."""
import itertools
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from redundancy_ht import SystemModel, _kernels, generators, load_model
from redundancy_ht.simulator import (MIN_BATCHES, _arrival_rates, _compat, _estimate, _run_coc,
                                     _run_compiled, _run_cos, _segments, simulate)

MODELS = sorted((Path(__file__).parent.parent / "perfbench" / "models").glob("*.json"))
PYTHON_KERNELS = {"coc": _run_coc, "cos": _run_cos}


@pytest.fixture
def lib():
    if shutil.which(_kernels._CC) is None:
        pytest.skip("no C compiler")
    lib = _kernels.library()
    assert lib is not None, "the kernels did not build"
    return lib


@pytest.fixture
def fresh_loader():
    """The loader as a new process finds it; the process's own afterwards."""
    loader = _kernels.library
    loader.cache_clear()
    yield loader
    loader.cache_clear()


def _assert_same(a, b):
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.time_avg, b.time_avg)
    assert np.array_equal(a.half_width, b.half_width, equal_nan=True)


def _both(lib, fmodel, discipline, horizon, warmup, seed, sample_every):
    segments = _segments(horizon, warmup)
    python = PYTHON_KERNELS[discipline](fmodel, segments, seed, sample_every)
    compiled = _run_compiled(lib, discipline, fmodel, segments, seed, sample_every)
    return [_estimate(fmodel, discipline, *run, horizon, 0.0) for run in (python, compiled)]


@pytest.mark.parametrize("path", MODELS, ids=[p.stem for p in MODELS])
def test_compiled_kernels_match_python_kernels(lib, path):
    model, _ = load_model(str(path))
    fmodel = model.as_float()
    for discipline in ("coc", "cos"):
        for seed in (0, 5, 2 ** 40 + 3):
            for sample_every in (1, 7, 100):
                for horizon, warmup in ((6_000, 1_500), (2_000, 0), (MIN_BATCHES - 7, 0)):
                    python, compiled = _both(lib, fmodel, discipline, horizon, warmup, seed,
                                             sample_every)
                    _assert_same(python, compiled)


def _eighteen_types_on_five_servers():
    subsets = [set(s) for k in range(1, 6) for s in itertools.combinations(range(1, 6), k)]
    return SystemModel(mu=(F(1),) * 5, lam=F(1, 2), job_types=tuple(map(frozenset, subsets[-18:])),
                       p=(F(1, 18),) * 18)


# random models whose servers share types; random-0 and random-3 have servers of equal speed
SHARED = {f"random-{seed}": (lambda seed=seed: generators.random_stable_model(
    random.Random(seed), max_servers=5, max_types=10, cover_all_servers=True))
    for seed in (0, 3, 9, 11)}
SHARED["18-types-5-servers"] = _eighteen_types_on_five_servers


@pytest.mark.parametrize("name", sorted(SHARED))
def test_compiled_kernels_match_python_kernels_on_shared_servers(lib, name):
    """A queue that several servers serve empties and fills while other
    queues of those servers stay nonempty: the busy set changes only with
    the last of them."""
    model = SHARED[name]()
    assert any(len(types) > 1 for types in model.job_types)
    fmodel = model.as_float()
    for discipline in ("coc", "cos"):
        for seed in (1, 2 ** 33 + 7):
            for sample_every in (1, 13):
                python, compiled = _both(lib, fmodel, discipline, 8_000, 2_000, seed,
                                         sample_every)
                _assert_same(python, compiled)


def test_compiled_kernels_on_tiny_runs(lib, n_model):
    # no sample at all, and a period longer than the run
    fmodel = n_model.as_float()
    for discipline in ("coc", "cos"):
        for horizon, sample_every in ((1, 1), (3, 10 ** 30), (40, 1)):
            python, compiled = _both(lib, fmodel, discipline, horizon, 0, 3, sample_every)
            _assert_same(python, compiled)


def test_kernels_stop_at_the_end_of_the_sample_buffer(lib, n_model):
    fmodel = n_model.as_float()
    s = fmodel.n_types
    segments = _segments(2_000, 0)
    assert len(_run_compiled(lib, "coc", fmodel, segments, 3, 1)[1]) > s  # more than one row
    lam_total, arrivals = _arrival_rates(fmodel)
    compat = _compat(fmodel)
    inputs = [np.array(arrivals), np.array(fmodel.mu),
              np.array([0, *itertools.accumulate(map(len, compat))], dtype=np.int32),
              np.array([t for types in compat for t in types], dtype=np.int32),
              np.array(random.Random(3).getstate()[1], dtype=np.uint32)]
    counts = np.array(segments, dtype=np.int64)
    areas, durations = np.empty((len(segments) - 1, s)), np.empty(len(segments) - 1)
    sentinel = -12345
    buffer = np.full(s + 1, sentinel, dtype=np.int64)  # one row, then the sentinel
    n_samples = np.zeros(1, dtype=np.int64)
    status = lib.rht_run_coc(s, fmodel.n_servers, lam_total, *(a.ctypes.data for a in inputs),
                             len(segments), counts.ctypes.data, 1, areas.ctypes.data,
                             durations.ctypes.data, buffer.ctypes.data, 1, n_samples.ctypes.data)
    assert status == 2  # RHT_BAD_STATE
    assert buffer[s] == sentinel
    assert n_samples[0] == 1


def test_kernel_source_ships_with_the_package():
    source = resources.files("redundancy_ht").joinpath("_kernels.c")
    assert source.is_file()
    assert b"rht_run_coc" in source.read_bytes() and b"rht_run_cos" in source.read_bytes()


def test_kernel_source_compiles_without_warnings():
    if shutil.which(_kernels._CC) is None:
        pytest.skip("no C compiler")
    source = resources.files("redundancy_ht").joinpath("_kernels.c").read_bytes()
    proc = subprocess.run([_kernels._CC, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", "-x", "c",
                           "-"], input=source, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


def _counting_runs(monkeypatch):
    calls = []
    real_run = subprocess.run

    def run(*args, **kwargs):
        calls.append(args[0])
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", run)
    return calls


def test_failed_build_falls_back_and_is_not_retried(lib, n_model, tmp_path, monkeypatch,
                                                    fresh_loader):
    want = {d: simulate(n_model, d, horizon_events=3_000, seed=4, sample_every=3)
            for d in ("coc", "cos")}
    assert {est.kernel for est in want.values()} == {"c"}
    fresh_loader.cache_clear()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_kernels, "_CC", str(tmp_path / "missing" / "cc"))
    calls = _counting_runs(monkeypatch)
    for discipline, expected in want.items():
        got = simulate(n_model, discipline, horizon_events=3_000, seed=4, sample_every=3)
        assert got.kernel == "python"
        _assert_same(got, expected)
    assert len(calls) == 1
    assert [p.suffix for p in (tmp_path / "cache" / "redundancy-ht").iterdir()] == [".failed"]
    fresh_loader.cache_clear()  # the next process
    assert simulate(n_model, "coc", horizon_events=100, seed=4).kernel == "python"
    assert len(calls) == 1


def test_build_goes_to_the_cache_once(lib, n_model, tmp_path, monkeypatch, fresh_loader):
    package = resources.files("redundancy_ht")
    before = sorted(p.name for p in package.iterdir())
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    calls = _counting_runs(monkeypatch)
    assert simulate(n_model, "coc", horizon_events=100, seed=4).kernel == "c"
    fresh_loader.cache_clear()
    assert simulate(n_model, "cos", horizon_events=100, seed=4).kernel == "c"
    assert len(calls) == 1
    folder = tmp_path / "cache" / "redundancy-ht"
    assert [p.suffix for p in folder.iterdir()] == [".so"]
    assert os.stat(folder).st_mode & 0o077 == 0
    assert sorted(p.name for p in package.iterdir()) == before


def test_the_user_cache_needs_no_temp_dir_or_resources(lib, n_model, tmp_path, monkeypatch,
                                                       fresh_loader):
    """The source is read through the module's loader, and the temporary
    directory is worked out only when the user cache cannot be used."""
    import importlib.resources
    import tempfile

    folder = tmp_path / "cache" / "redundancy-ht"
    folder.mkdir(parents=True, mode=0o700)
    shutil.copy(lib._name, folder)  # the built library, as a warm cache holds it
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))

    def refuse(*args, **kwargs):
        raise AssertionError("not needed to find the library in the user cache")

    monkeypatch.setattr(tempfile, "gettempdir", refuse)
    monkeypatch.setattr(importlib.resources, "files", refuse)
    calls = _counting_runs(monkeypatch)
    assert simulate(n_model, "coc", horizon_events=100, seed=4).kernel == "c"
    assert fresh_loader()._name == str(folder / os.path.basename(lib._name))
    assert calls == []


def test_build_falls_back_to_the_temp_dir(lib, n_model, tmp_path, monkeypatch, fresh_loader):
    """A relative XDG_CACHE_HOME is no cache: the library is built in and
    loaded from redundancy-ht-<uid> under the temporary directory."""
    import tempfile

    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    calls = _counting_runs(monkeypatch)
    assert simulate(n_model, "cos", horizon_events=100, seed=4).kernel == "c"
    folder = tmp_path / f"redundancy-ht-{os.getuid()}"
    assert len(calls) == 1
    assert [p.suffix for p in folder.iterdir()] == [".so"]
    assert fresh_loader()._name == str(next(folder.iterdir()))
    assert not os.path.exists("relative")


_RSS_CHILD = """
import itertools, sys
from fractions import Fraction as F
from redundancy_ht import SystemModel
from redundancy_ht.simulator import simulate
name, discipline, horizon, warmup = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
if name == "mm1":
    model = SystemModel(mu=(F(1),), lam=F(1, 2), job_types=(frozenset({1}),), p=(F(1),))
else:  # 18 types on 5 servers
    subsets = [s for k in range(1, 6) for s in itertools.combinations(range(1, 6), k)]
    model = SystemModel(mu=(F(1),) * 5, lam=F(1, 2),
                        job_types=tuple(frozenset(s) for s in subsets[-18:]), p=(F(1, 18),) * 18)
est = simulate(model, discipline, horizon_events=horizon, warmup_events=warmup, sample_every=1,
               seed=3)
assert est.kernel == "c" and 0 < len(est.samples) <= horizon
"""


def _peak_rss(*args):
    """Peak resident memory, in bytes, of a fresh interpreter that simulates
    with the compiled kernel (_RSS_CHILD)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-c", _RSS_CHILD, *map(str, args)],
                            env=dict(os.environ, PYTHONPATH=path))
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss * 1024


def test_compiled_kernels_peak_memory(lib):
    """tracemalloc cannot see allocations made in C, so the compiled kernels'
    memory is bounded by the peak resident size of a child process, against
    a child that runs 100 events of M/M/1."""
    base = _peak_rss("mm1", "coc", 100, 0)
    # 10^7 warm-up events at sample_every=1 pass ~5M departures: holding
    # their counts would add ~40 MB
    for discipline in ("coc", "cos"):
        assert _peak_rss("mm1", discipline, 100, 10 ** 7) < base + 8 * 2 ** 20, discipline
    # a table over all 2^18 type masks would add well over 100 MB
    assert _peak_rss("wide", "coc", 1_000, 0) < base + 8 * 2 ** 20
