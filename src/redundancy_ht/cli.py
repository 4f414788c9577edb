"""Command-line entry point: analyze | pgf | laplace | limit-law | moments |
sample | simulate | verify-limit | verify.

Exit codes: 0 success, 2 validation error (bad model file or arguments, or
a PGF point at a pole), 3 refusal due to an enumeration/size cap.
Exact-backend outputs serialize all numbers as rational strings; the float
backend (`--backend float`, read by pgf and laplace) emits plain floats.
The environment variable RHT_SEED supplies the default `--seed` of sample,
simulate and verify-limit.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, acceptance, analytic, criticality, moments, prelimit, simulator
from .errors import CapExceeded, DomainError, ModelError, PoleError
from .model import MODEL_FORMAT_VERSION, load_model, parse_scalar

GRID_CAP = 10_000  # laplace --t-grid refuses more steps


def _num(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, np.integer)):
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


def _write_csv(args, name, header, rows):
    if args.out_dir:
        path = Path(args.out_dir) / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        print(f"wrote {path}")
    else:
        w = csv.writer(sys.stdout)
        w.writerow(header)
        w.writerows(rows)


def _load(args):
    # Structural analysis always runs on the model as parsed (exact when the
    # file uses numeric strings); --backend float switches evaluation inputs
    # and outputs to floats, per the exact-structures/float-grids split.
    return load_model(args.model)


def _analysis(model):
    dag = criticality.crp_components(model)
    return criticality.report_from_construction(model, dag), dag


def cmd_analyze(args):
    model, _ = _load(args)
    report, dag = _analysis(model)
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
    model, _ = _load(args)
    exact = args.backend == "exact"
    z = _parse_vector(args.z, model.n_types, exact)
    fn = analytic.pgf_coc if args.discipline == "coc" else analytic.pgf_cos
    val = fn(model, z)
    _write_json(args, "pgf", {"discipline": args.discipline,
                              "z": [_num(x) for x in z], "value": _num(val)})
    return 0


def cmd_laplace(args):
    model, traj = _load(args)
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
    _write_csv(args, "laplace_grid", ["t", "laplace"], rows)
    return 0


def cmd_limit_law(args):
    model, traj = _load(args)
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
    model, traj = _load(args)
    req = moments.MomentRequest(n=args.n, target=args.target,
                                discipline=args.discipline, limit=bool(args.limit))
    report = dag = None
    if req.limit:
        report, dag = _analysis(model)
    val = moments.moment(model, req, report, dag, traj)
    _write_json(args, "moments", {
        "n": req.n, "target": req.target, "discipline": req.discipline,
        "limit": req.limit, "value": _num(val)})
    return 0


def cmd_sample(args):
    model, _ = _load(args)
    x = prelimit.sample_prelimit(model, args.discipline, args.n, args.seed)
    rows = [[i] + list(map(int, row)) for i, row in enumerate(x)]
    _write_csv(args, "samples", ["sample"] + model.labels(), rows)
    return 0


def cmd_simulate(args):
    model, _ = _load(args)
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
    print(f"wall seconds: {est.wall_seconds:.2f}")
    rows = []
    for epoch, counts in enumerate(est.samples):
        for t, c in enumerate(counts):
            rows.append([epoch, t, int(c)])
    _write_csv(args, "simulate_samples", ["epoch", "type_index", "count"], rows)
    return 0


def cmd_verify_limit(args):
    model, traj = _load(args)
    report, dag = _analysis(model)
    if dag.subtrees_laminar:
        law = analytic.limit_law(dag, traj)
    else:
        law = analytic.sigma_mixture(dag, traj)
    eps_values = [parse_scalar(e) for e in args.eps.split(",")]
    if any(e <= 0 for e in eps_values):
        raise ModelError(f"--eps: every epsilon must be positive, got {args.eps!r}")
    eps_values = [float(e) for e in eps_values]
    rows = simulator.scaled_law_check(model, report.lambda_star, law, args.discipline,
                                      eps_values, args.events, seed=args.seed,
                                      keep_samples=args.scatter, traj=traj)
    header = ["epsilon", "ks_total", "ks_total_critical"] + \
        [f"ks_{lbl}" for lbl in model.labels()]
    csv_rows = [[r.eps, r.ks_total, r.ks_total_critical, *r.ks_per_type] for r in rows]
    _write_csv(args, "ks_sequence", header, csv_rows)
    if args.scatter:
        scatter_rows = rows[-1].scaled_samples.tolist()
        _write_csv(args, "scaled_scatter",
                   [f"scaled_q_{lbl}" for lbl in model.labels()], scatter_rows)
    payload = [{"epsilon": r.eps, "ks_total": r.ks_total,
                "ks_total_critical": r.ks_total_critical,
                "ks_per_type": list(r.ks_per_type),
                "mean_scaled": list(r.mean_scaled)} for r in rows]
    _write_json(args, "verify_limit", payload)
    decreasing = all(a.ks_total > b.ks_total for a, b in zip(rows, rows[1:]))
    print(f"KS sequence decreasing: {decreasing}")
    return 0


def cmd_verify(args):
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rht", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"rht {__version__} (model format {MODEL_FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)
    seed_default = int(os.environ.get("RHT_SEED", "0"))

    def common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out-dir", default=None, help="write artifacts here instead of stdout")

    def seeded(p):
        p.add_argument("--seed", type=int, default=seed_default)

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
    group = p.add_mutually_exclusive_group()
    group.add_argument("--limit", action="store_true")
    group.add_argument("--prelimit", dest="limit", action="store_false")
    p.set_defaults(fn=cmd_moments, limit=False)

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
        return args.fn(args)
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ModelError, DomainError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
