"""Command-line entry point: analyze | pgf | laplace | limit-law | moments |
sample | simulate | verify-limit | verify.

Exit codes: 0 success, 2 validation error (bad model file or arguments, a
PGF point at a pole, or a value out of float range), 3 refusal due to an
enumeration/size cap or a count cap (simulated events, held samples).
Exact-backend outputs serialize all numbers as rational strings; the float
backend (`--backend float`, read by pgf and laplace) emits plain floats.
The environment variable RHT_SEED supplies the default `--seed` of sample,
simulate and verify-limit; either must be an integer >= 0.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, analytic, criticality, moments, prelimit, simulator
from .errors import CapExceeded, DomainError, ModelError, PoleError
from .model import MODEL_FORMAT_VERSION, load_model, parse_scalar

GRID_CAP = 10_000  # laplace --t-grid refuses more steps
# Counts from the command line are refused (exit 3) beyond these caps before
# any work starts: EVENT_CAP simulated events, CELL_CAP held per-type counts
# (sample --n rows, or what simulator.simulate_size and scaled_law_size count,
# times the types). 10^8 events take about 3.5 minutes of one CPU at the
# slowest event rate on perfbench/models (0.48M/s, c.o.s. at 13 types),
# 1.5-2.5 minutes at 2-7 types (0.7-1.1M/s). A cell costs ~20 bytes of peak
# memory for sample and ~8 for simulate --sample-every 1 on M/M/1 (one flat
# int64 array; verify-limit --scatter keeps an int64 and a float64 per held
# cell), so 5 * 10^6 cells stay near 0.1 GB.
EVENT_CAP = 100_000_000
CELL_CAP = 5_000_000
CSV_CELLS = 1 << 14  # numbers the CSV emitter formats per write, which bounds its memory


def _num(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, numbers.Integral):
        return str(int(x))
    return repr(float(x))


def _parse_vector(text: str, n: int, exact: bool, sep: str = ","):
    parts = text.split(sep)
    if len(parts) != n:
        raise ModelError(f"expected {n} values separated by {sep!r} in {text!r}, "
                         f"got {len(parts)}")
    values = [parse_scalar(p) for p in parts]
    if exact:
        return values
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise ModelError(f"a value is out of float range: {text!r}") from None


def _write_json(args, name, payload):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out_dir:
        path = Path(args.out_dir) / f"{name}.json"
        path.write_text(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)


def _write_csv(args, name, header, chunks):
    """Write the CSV artifact `name` as `csv.writer` would: the header, then the
    rows of each chunk, given as equal-length columns of numbers (written as
    str(), which is repr() for floats) or of strings that need no quoting."""
    row = ",".join(["{}"] * len(header)) + "\r\n"

    def emit(fh):
        csv.writer(fh).writerow(header)
        for columns in chunks:
            fh.write("".join(map(row.format, *columns)))

    if args.out_dir:
        path = Path(args.out_dir) / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            emit(fh)
        print(f"wrote {path}")
    else:
        emit(sys.stdout)


def _array_chunks(table, numbered=False, long=False):
    """`_write_csv` chunks of about CSV_CELLS entries of a 2-D array: its rows,
    led by the row number when `numbered`, or with `long` one row (row number,
    column number, entry) per entry."""
    import numpy as np

    n_rows, n_cols = table.shape
    step = max(1, CSV_CELLS // n_cols)
    for r0 in range(0, n_rows, step):
        block = table[r0:r0 + step]
        numbers = range(r0, r0 + len(block))
        if long:
            yield (np.repeat(numbers, n_cols).tolist(), list(range(n_cols)) * len(block),
                   block.ravel().tolist())
        else:
            yield ([numbers] if numbered else []) + block.T.tolist()


def _refuse_above(what, count, cap):
    if count > cap:
        raise CapExceeded(f"{what} is {count}, over the cap of {cap}")


def cmd_analyze(args):
    model, _ = load_model(args.model)
    dag = criticality.crp_components(model)
    report = criticality.report_from_construction(model, dag)
    payload = {
        "lambda_star": _num(report.lambda_star),
        "critical_subsets": sorted(sorted(s) for s in report.critical_subsets),
        "depth_K": report.depth_K,
        "crp_class": report.crp_class.value,
        "type_labels": model.labels(),
        "components": [{"types": sorted(c.types), "servers": sorted(c.servers)}
                       for c in dag.components],
        "dag_edges": sorted(dag.edges),
        "topological_orders": [list(s) for s in dag.topo_orders],
        "subtrees": [sorted(v) for v in dag.subtree_types],
        "subtrees_laminar": dag.subtrees_laminar,
    }
    _write_json(args, "analysis", payload)
    print(f"lambda* = {_num(report.lambda_star)}, K = {report.depth_K}, "
          f"class = {report.crp_class.value}")
    return 0


def cmd_pgf(args):
    model, _ = load_model(args.model)
    exact = args.backend == "exact"
    z = _parse_vector(args.z, model.n_types, exact)
    fn = analytic.pgf_coc if args.discipline == "coc" else analytic.pgf_cos
    try:
        val = fn(model, z)
    except OverflowError:
        if model.exact:
            raise
        raise ModelError(f"--z: {args.z!r} meets the model's float values "
                         f"out of float range") from None
    _write_json(args, "pgf", {"discipline": args.discipline,
                              "z": [_num(x) for x in z], "value": _num(val)})
    return 0


def cmd_laplace(args):
    model, traj = load_model(args.model)
    dag = criticality.crp_components(model)
    exact = args.backend == "exact"
    if args.t is not None:
        t = _parse_vector(args.t, model.n_types, exact)
        mix = _num(analytic.limiting_transform(dag, t, traj)[0])
        payload = {
            "t": [_num(x) for x in t],
            "product_form": _num(analytic.limiting_laplace(dag, t, traj)),
            "mixture_form": mix,
            "subtrees_laminar": dag.subtrees_laminar,
        }
        if args.cos:  # the c.o.s. limit law is the mixture (see analytic.sigma_mixture)
            payload["cos_general"] = mix
        _write_json(args, "laplace", payload)
        return 0
    lo, hi, steps = _parse_vector(args.t_grid, 3, exact, sep=":")
    if steps != int(steps) or steps < 1:
        raise ModelError(f"--t-grid: steps must be an integer >= 1, got {steps}")
    if steps > GRID_CAP:
        raise CapExceeded(f"--t-grid: more than {GRID_CAP} steps")
    steps = int(steps)
    rows = []
    for i in range(steps):
        tval = lo + (hi - lo) * i / max(steps - 1, 1)
        val = analytic.limiting_transform(dag, [tval] * model.n_types, traj)[0]
        rows.append([_num(tval), _num(val)])
    _write_csv(args, "laplace_grid", ["t", "laplace"], [zip(*rows)])
    return 0


def cmd_limit_law(args):
    model, traj = load_model(args.model)
    dag = criticality.crp_components(model)
    law = analytic.limit_law(dag, traj)
    mix = analytic.sigma_mixture(dag, traj)
    payload = {
        "K": law.K,
        "type_labels": model.labels(),
        "coefficients": [[_num(a) for a in row] for row in law.coeffs],
        "subtrees_laminar": dag.subtrees_laminar,
        "sigma_mixture": [{"sigma": list(lbl), "weight": _num(w),
                           "coefficients": [[_num(a) for a in row] for row in coeffs]}
                          for (w, coeffs, lbl) in mix.atoms],
    }
    _write_json(args, "limit_law", payload)
    return 0


def cmd_moments(args):
    model, traj = load_model(args.model)
    req = moments.MomentRequest(n=args.n, target=args.target,
                                discipline=args.discipline, limit=args.limit)
    dag = criticality.crp_components(model) if req.limit else None
    val = moments.moment(model, req, dag, traj)
    _write_json(args, "moments", {
        "n": req.n, "target": req.target, "discipline": req.discipline,
        "limit": req.limit, "value": _num(val)})
    return 0


def cmd_sample(args):
    model, _ = load_model(args.model)
    _refuse_above("--n times the number of types", args.n * model.n_types, CELL_CAP)
    x = prelimit.sample_prelimit(model, args.discipline, args.n, args.seed)
    _write_csv(args, "samples", ["sample"] + model.labels(), _array_chunks(x, numbered=True))
    return 0


def cmd_simulate(args):
    model, _ = load_model(args.model)
    if args.sample_every < 1:
        raise ModelError(f"--sample-every must be at least 1, got {args.sample_every}")
    warmup, held = simulator.simulate_size(args.events, args.sample_every, args.warmup)
    _refuse_above("--events plus warm-up", args.events + warmup, EVENT_CAP)
    _refuse_above("samples (--events / --sample-every + 1) times the number of types",
                  held * model.n_types, CELL_CAP)
    est = simulator.simulate(model, args.discipline, horizon_events=args.events,
                             warmup_events=args.warmup, seed=args.seed,
                             sample_every=args.sample_every)
    # wall-clock time stays off the artifact so identical configurations
    # produce byte-identical output files
    payload = {
        "discipline": args.discipline,
        "events": est.events,
        "time_avg": [float(x) for x in est.time_avg],
        # fewer than 2 batches leave the half-width undefined (inf), which JSON cannot hold
        "half_width": [float(x) if math.isfinite(x) else None for x in est.half_width],
        "time_avg_total": est.time_avg_total,
        "type_labels": model.labels(),
    }
    _write_json(args, "simulate", payload)
    rate = (args.events + warmup) / est.wall_seconds if est.wall_seconds > 0 else math.inf
    print(f"wall seconds: {est.wall_seconds:.2f}  kernel: {est.kernel}  events/s: {rate:.0f}")
    _write_csv(args, "simulate_samples", ["epoch", "type_index", "count"],
               _array_chunks(est.samples, long=True))
    return 0


def cmd_verify_limit(args):
    model, traj = load_model(args.model)
    dag = criticality.crp_components(model)
    eps_values = [parse_scalar(e) for e in args.eps.split(",")]
    if any(e <= 0 for e in eps_values):
        raise ModelError(f"--eps: every epsilon must be positive, got {args.eps!r}")
    if not all(e <= sys.float_info.max and float(e) for e in eps_values):
        raise ModelError(f"--eps: every epsilon must be nonzero and finite as a float, "
                         f"got {args.eps!r}")
    eps_values = [float(e) for e in eps_values]
    events, held = simulator.scaled_law_size(args.events, len(eps_values), args.scatter)
    _refuse_above("--events plus warm-up, times the number of epsilons", events, EVENT_CAP)
    _refuse_above("samples the check holds times the number of types",
                  held * model.n_types, CELL_CAP)
    rows = simulator.scaled_law_check(dag, args.discipline, eps_values, args.events,
                                      seed=args.seed, keep_samples=args.scatter, traj=traj)
    header = ["epsilon", "ks_total", "ks_total_critical"] + \
        [f"ks_{lbl}" for lbl in model.labels()]
    csv_rows = [[r.eps, r.ks_total, r.ks_total_critical, *r.ks_per_type] for r in rows]
    _write_csv(args, "ks_sequence", header, [zip(*csv_rows)])
    if args.scatter:
        _write_csv(args, "scaled_scatter", [f"scaled_q_{lbl}" for lbl in model.labels()],
                   _array_chunks(rows[-1].scaled_samples))
    payload = [{"epsilon": r.eps, "ks_total": r.ks_total,
                "ks_total_critical": r.ks_total_critical,
                "ks_per_type": list(r.ks_per_type),
                "mean_scaled": list(r.mean_scaled)} for r in rows]
    _write_json(args, "verify_limit", payload)
    decreasing = all(a.ks_total > b.ks_total for a, b in zip(rows, rows[1:]))
    print(f"KS sequence decreasing: {decreasing}")
    return 0


def cmd_verify(args):
    # the battery and its model generators load only for this command
    from . import acceptance

    names = None
    if args.only:
        names = set(args.only.split(","))
        known = {n for n, _ in acceptance.CRITERIA}
        unknown = names - known
        if unknown:
            raise ModelError(f"unknown criteria {sorted(unknown)}; known: {sorted(known)}")
    failures = acceptance.run_criteria(names)
    print(f"{failures} criterion(s) failed" if failures else "all criteria passed")
    return 1 if failures else 0


def _seed(flag):
    """The seed of a seeded command: --seed, else RHT_SEED, else 0; an integer >= 0."""
    name, text = ("--seed", flag) if flag is not None else \
        ("RHT_SEED", os.environ.get("RHT_SEED", "0"))
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ModelError(f"{name}: a seed is an integer >= 0, got {text!r}")
    return seed


class _Parser(argparse.ArgumentParser):
    """Usage errors in one stderr line and exit 2; the subcommand parsers share the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rht", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"rht {__version__} (model format {MODEL_FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out-dir", default=None, help="write artifacts here instead of stdout")

    def seeded(p):
        p.add_argument("--seed", default=None)  # read by _seed

    def backend(p):
        p.add_argument("--backend", choices=("exact", "float"), default="exact")

    p = sub.add_parser("analyze", help="criticality report, components, DAG")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("pgf", help="evaluate the exact pre-limit PGF at a point")
    common(p)
    backend(p)
    p.add_argument("--z", required=True, help="comma-separated z per type")
    p.add_argument("--discipline", choices=("coc", "cos"), default="coc")
    p.set_defaults(fn=cmd_pgf)

    p = sub.add_parser("laplace", help="limiting Laplace transform (product and mixture forms)")
    common(p)
    backend(p)
    p.add_argument("--t", default=None, help="comma-separated t per type")
    p.add_argument("--t-grid", default="0:4:17", help="lo:hi:steps for a diagonal grid CSV")
    p.add_argument("--cos", action="store_true", help="also evaluate the c.o.s. general form")
    p.set_defaults(fn=cmd_laplace)

    p = sub.add_parser("limit-law", help="K-exponential coefficient matrix and sigma mixture")
    common(p)
    p.set_defaults(fn=cmd_limit_law)

    p = sub.add_parser("moments", help="pre-limit or limiting moments")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", default="total", help="total or type:<index>")
    p.add_argument("--discipline", choices=("coc", "cos"), default="coc")
    p.add_argument("--limit", action="store_true")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("sample", help="exact stationary samples of the queue vector")
    common(p)
    seeded(p)
    p.add_argument("--discipline", choices=("coc", "cos"), default="coc")
    p.add_argument("--n", type=int, default=1000)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("simulate", help="event-driven simulation")
    common(p)
    seeded(p)
    p.add_argument("--discipline", choices=("coc", "cos"), default="coc")
    p.add_argument("--events", type=int, default=100_000)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--sample-every", type=int, default=100)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify-limit", help="simulation vs limit law over an epsilon grid")
    common(p)
    seeded(p)
    p.add_argument("--discipline", choices=("coc", "cos"), default="coc")
    p.add_argument("--eps", default="0.1,0.05,0.02")
    p.add_argument("--events", type=int, default=200_000)
    p.add_argument("--scatter", action="store_true")
    p.set_defaults(fn=cmd_verify_limit)

    p = sub.add_parser("verify", help="run the acceptance battery")
    p.add_argument("--only", default=None, help="comma-separated criterion names")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out_dir", None) and not Path(args.out_dir).is_dir():
            raise ModelError(f"--out-dir: {args.out_dir!r} is not a directory")
        if "seed" in args:
            args.seed = _seed(args.seed)
        return args.fn(args)
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ModelError, DomainError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
