"""A committed mutation check: each mutant below must be killed by its tests.

A mutant is a textual patch of one file under src/: its old text must occur
in that file exactly once, and is replaced by the new text in a fresh
temporary copy of src/. The mutant's tests, a list of pytest node ids, then
run on that copy (PYTHONPATH points at it) and must fail. First, all the
tests of the table run once on an unmutated copy and must pass, so that a
kill is the mutant's doing. An entry whose old text no longer occurs
exactly once, or whose tests are not collected or cannot run, is stale: it
is reported as such and fails the check, so the table follows the code it
mutates.

    python tools/mutants.py

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when an
entry is stale or the tests fail unmutated.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/redundancy_ht, old text, new text, pytest node ids)
MUTANTS = [
    ("seed-checked-at-the-draw", "simulator.py",
     "    seed = _check_seed(seed)\n    import numpy as np\n\n    from .analytic import _direction",
     "    import numpy as np\n\n    from .analytic import _direction",
     ["tests/test_simulator.py::test_scaled_law_check_checks_its_seed_first"]),
    ("lattice-step-without-mu-over-gamma", "analytic.py",
     "Fraction(num, den) * model.mu_of(_bits(hi)) / g",
     "Fraction(num, den)",
     ["tests/test_prefix_series.py::test_sigma_mixture_matches_aggregated_vectors"]),
    ("float-stay-factor-zero-only", "analytic.py",
     "        if stay <= 0:\n",
     "        if stay == 0:\n",
     ["tests/test_analytic.py::test_pgf_refuses_z_outside_its_domain"]),
    ("ks-exact-mode-rounding-off", "simulator.py",
     "        stat = round(stat * lcm) / lcm\n",
     "",
     ["tests/test_simulator.py::test_ks_two_sample_is_scipy_statistic"]),
    ("idle-sums-without-subset-sums", "analytic.py",
     "    for u in range(n):  # subset sums",
     "    for u in range(0):  # subset sums",
     ["tests/test_integer_tables.py::test_integer_idle_sums_equal_the_fraction_recursion"]),
    ("entry-converts-values-not-model", "analytic.py",
     "        model, values = model.as_float(), [float(x) for x in values]",
     "        values = [float(x) for x in values]",
     ["tests/test_prefix_series.py::test_no_table_mixes_backends"]),
    ("coc-given-the-cos-weights", "analytic.py",
     '_free_weights(model) if discipline == "cos" else ([1] * (full + 1), 1)',
     "_free_weights(model)",
     ["tests/test_prefix_series.py::test_pgfs_match_ordered_sums"]),
    ("lattice-step-without-open-top", "analytic.py",
     "_integer_table(at_limit, ones, hi ^ m, hi, True)",
     "_integer_table(at_limit, ones, hi ^ m, hi, False)",
     ["tests/test_prefix_series.py::test_lattice_transform_matches_sigma_listing"]),
    ("horizon-checked-after-the-law-draw", "simulator.py",
     '        if horizon < 1:  # simulate\'s refusal, made before the law draw\n'
     '            raise DomainError("need at least one event")\n',
     "",
     ["tests/test_simulator.py::test_scaled_law_check_needs_one_event_before_the_law_draw"]),
    ("ks-without-the-left-side-pass", "simulator.py",
     'for side in ("right", "left")',
     'for side in ("right",)',
     ["tests/test_simulator.py::test_ks_two_sample_is_scipy_statistic"]),
    ("peeling-weight-without-p", "prelimit.py",
     "weights.append(pn * n / (pd * d))",
     "weights.append(n / d)",
     ["tests/test_prefix_series.py::test_peeling_probabilities_match_configurations"]),
    ("sampler-without-its-seed-check", "prelimit.py",
     "    seed = _check_seed(seed)\n    import numpy as np\n\n    rng",
     "    import numpy as np\n\n    rng",
     ["tests/test_simulator.py::test_a_seed_is_an_integer_at_least_zero"]),
]


def _pytest(src: Path, tests: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, capture_output=True, text=True)


def _last_line(done: subprocess.CompletedProcess) -> str:
    return (done.stdout.strip().splitlines() or ["no output"])[-1]


def _copy(scratch: Path, name: str) -> Path:
    src = scratch / name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def run(name: str, file: str, old: str, new: str, tests: list, scratch: Path) -> str:
    """'killed', 'survived' or 'stale: <why>' for one mutant, on its own copy of src/."""
    src = _copy(scratch, name)
    target = src / "redundancy_ht" / file
    text = target.read_text()
    if text.count(old) != 1:
        return f"stale: its old text occurs {text.count(old)} times in {file}"
    target.write_text(text.replace(old, new))
    done = _pytest(src, tests)
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1:  # pytest: some test failed
        return "killed"
    return f"stale: pytest exit {done.returncode} ({_last_line(done)})"


def main() -> int:
    outcomes = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        baseline = _pytest(_copy(Path(scratch), "unmutated"),
                           sorted({t for m in MUTANTS for t in m[4]}))
        print(f"unmutated: {_last_line(baseline)}", flush=True)
        if baseline.returncode != 0:
            return 2
        for mutant in MUTANTS:
            start = time.perf_counter()
            outcome = run(*mutant, Path(scratch))
            print(f"{mutant[0]}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
            outcomes.append(outcome)
    if any(o.startswith("stale") for o in outcomes):
        return 2
    return 0 if all(o == "killed" for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
