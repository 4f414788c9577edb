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

import csv
import json
import math
import numbers
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

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


def _emit(args, filename, write):
    """Hand write() the artifact file `filename` in --out-dir, or stdout."""
    if not args.out_dir:
        write(sys.stdout)
        return
    path = Path(args.out_dir) / filename
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise ModelError(f"--out-dir: cannot write {filename}: {exc.strerror or exc}") from None
    print(f"wrote {path}")


def _write_json(args, name, payload):
    text = json.dumps(payload, indent=2, sort_keys=True)
    _emit(args, f"{name}.json", lambda fh: fh.write(text + "\n"))


def _write_csv(args, name, header, chunks):
    """Write the CSV artifact `name` as `csv.writer` would: the header, then the
    rows of each chunk. A chunk is a 2-D numpy array, one CSV row per array
    row, or equal-length columns of numbers (written as str(), which is
    repr() for floats) or of strings that need no quoting. Integer arrays of
    no negative entry are rendered whole by `_integer_rows`; other arrays go
    by their columns through one str.format call a row."""
    row = ",".join(["{}"] * len(header)) + "\r\n"

    def write(fh):
        csv.writer(fh).writerow(header)
        for chunk in chunks:
            if hasattr(chunk, "dtype"):
                if chunk.dtype.kind == "i" and chunk.size and chunk.min() >= 0:
                    fh.write(_integer_rows(chunk))
                    continue
                chunk = chunk.T.tolist()
            fh.write("".join(map(row.format, *chunk)))

    _emit(args, f"{name}.csv", write)


def _integer_rows(table):
    """The CSV rows of a nonempty 2-D array of integers >= 0, the same text as
    str() of each cell gives, by digit arithmetic on the whole array. Each
    cell is laid out in the width of the largest, right-aligned, with its
    separator after it (a carriage return after the last), and one more
    place per row holds the line feed; the unused leading places are then
    dropped."""
    import numpy as np

    rows, cols = table.shape
    width = len(str(int(table.max())))
    text = np.empty((rows, cols + 1, width + 1), dtype=np.uint8)
    keep = np.zeros(text.shape, dtype=bool)
    text[:, :, width] = ord(",")
    text[:, cols - 1, width] = ord("\r")
    text[:, cols, width] = ord("\n")
    keep[:, :, width] = True
    keep[:, :cols, width - 1] = True  # the units digit, 0 too
    quotient = table.astype(np.int32) if width < 10 else table  # int32 arithmetic is faster
    for k in range(width - 1, -1, -1):
        digits = quotient + ord("0")  # np.divmod is about 3x slower than these steps
        quotient = quotient // 10
        digits -= 10 * quotient
        text[:, :cols, k] = digits
        if k:
            keep[:, :cols, k - 1] = quotient > 0
    # np.compress runs faster than a boolean index on masks with no long runs
    return np.compress(keep.ravel(), text.ravel()).tobytes().decode("ascii")


def _array_chunks(table, numbered=False, long=False):
    """`_write_csv` chunks of about CSV_CELLS entries of a 2-D array, each a
    2-D array: its rows, led by the row number when `numbered`, or with
    `long` one row (row number, column number, entry) per entry. The
    numbered and long layouts are for integer tables."""
    import numpy as np

    n_rows, n_cols = table.shape
    step = max(1, CSV_CELLS // n_cols)
    for r0 in range(0, n_rows, step):
        block = table[r0:r0 + step]
        numbers = np.arange(r0, r0 + len(block))
        if long:
            yield np.column_stack((np.repeat(numbers, n_cols),
                                   np.tile(np.arange(n_cols), len(block)), block.ravel()))
        elif numbered:
            yield np.column_stack((numbers, block))
        else:
            yield block


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
        "K": dag.K,
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
    dag = criticality.crp_components(model) if args.limit else None
    val = moments.moment(model, args.n, args.target, args.discipline, args.limit, dag, traj)
    _write_json(args, "moments", {
        "n": args.n, "target": args.target, "discipline": args.discipline,
        "limit": args.limit, "value": _num(val)})
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


# One flag of a command. `kind` is str or int for a flag that takes a value,
# the tuple of values it allows, or bool for a switch (default False).
Flag = namedtuple("Flag", "help kind default required", defaults=(str, None, False))

_COMMON = {"--model": Flag("model JSON file", required=True),
           "--out-dir": Flag("write artifacts here instead of stdout")}
_BACKEND = {"--backend": Flag("exact rationals or floats", ("exact", "float"), "exact")}
_DISCIPLINE = {"--discipline": Flag("cancel-on-completion or cancel-on-start",
                                    ("coc", "cos"), "coc")}
_SEED = {"--seed": Flag("integer >= 0; defaults to RHT_SEED, else 0")}

# command -> (function, one-line help, flags), the flags in the order `-h` lists
# them. parse_args reads argv against this table by argparse's rules.
COMMANDS = {
    "analyze": (cmd_analyze, "criticality report, components, DAG", _COMMON),
    "pgf": (cmd_pgf, "evaluate the exact pre-limit PGF at a point", {
        **_COMMON, **_BACKEND,
        "--z": Flag("comma-separated z per type", required=True), **_DISCIPLINE}),
    "laplace": (cmd_laplace, "limiting Laplace transform (product and mixture forms)", {
        **_COMMON, **_BACKEND,
        "--t": Flag("comma-separated t per type"),
        "--t-grid": Flag("lo:hi:steps for a diagonal grid CSV", default="0:4:17"),
        "--cos": Flag("also evaluate the c.o.s. general form", bool, False)}),
    "limit-law": (cmd_limit_law, "K-exponential coefficient matrix and sigma mixture",
                  _COMMON),
    "moments": (cmd_moments, "pre-limit or limiting moments", {
        **_COMMON,
        "--n": Flag("moment order", int, required=True),
        "--target": Flag("total or type:<index>", default="total"), **_DISCIPLINE,
        "--limit": Flag("the scaled limit's moment", bool, False)}),
    "sample": (cmd_sample, "exact stationary samples of the queue vector", {
        **_COMMON, **_SEED, **_DISCIPLINE,
        "--n": Flag("number of samples", int, 1000)}),
    "simulate": (cmd_simulate, "event-driven simulation", {
        **_COMMON, **_SEED, **_DISCIPLINE,
        "--events": Flag("events after the warm-up", int, 100_000),
        "--warmup": Flag("warm-up events; defaults to a fifth of --events", int),
        "--sample-every": Flag("departures between sampled queue vectors", int, 100)}),
    "verify-limit": (cmd_verify_limit, "simulation vs limit law over an epsilon grid", {
        **_COMMON, **_SEED, **_DISCIPLINE,
        "--eps": Flag("comma-separated epsilons", default="0.1,0.05,0.02"),
        "--events": Flag("events per epsilon", int, 200_000),
        "--scatter": Flag("also write the scaled samples of the last epsilon", bool, False)}),
    "verify": (cmd_verify, "run the acceptance battery", {
        "--only": Flag("comma-separated criterion names")}),
}
_HELP = ("-h", "--help")
_TOP = (*_HELP, "--version")
# a word that starts with "-" is still a value when it matches this or holds a space
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _explicit_error(name, value):
    """A flag that takes no value was given one after `=`."""
    _usage_error(f"argument {'/'.join(_HELP) if name in _HELP else name}: "
                 f"ignored explicit argument {value!r}")


def _print_and_exit(text):
    print(text)
    raise SystemExit(0)


def _metavar(name, flag):
    if flag.kind is bool:
        return name
    value = "{" + ",".join(flag.kind) + "}" if isinstance(flag.kind, tuple) else \
        name[2:].upper().replace("-", "_")
    return f"{name} {value}"


def _help(command):
    """`rht -h` (command None) or `rht COMMAND -h`, from the command table."""
    if command is None:
        rows = [(name, text) for name, (_, text, _) in COMMANDS.items()]
        rows += [("-h, --help", "show this help and exit"),
                 ("--version", "show the version and exit")]
        head = f"usage: rht [-h] [--version] COMMAND [FLAG ...]\n\n{__doc__.strip()}\n\n" \
            "Every command lists its flags with `rht COMMAND -h`. A flag's value follows\n" \
            "it or an `=`; a unique prefix of a flag's name stands for it."
    else:
        _, text, flags = COMMANDS[command]
        rows = [("-h, --help", "show this help and exit")]
        for name, flag in flags.items():
            note = " (required)" if flag.required else \
                "" if flag.default in (None, False) else f" (default {flag.default})"
            rows.append((_metavar(name, flag), flag.help + note))
        usage = "".join(f"{_metavar(name, flag)} "
                        for name, flag in flags.items() if flag.required)
        head = f"usage: rht {command} [-h] {usage}[FLAG ...]\n\n{text}"
    width = max(len(left) for left, _ in rows) + 2
    return head + "\n\n" + "\n".join(f"  {left:<{width}}{right}" for left, right in rows)


def _read_flag(arg, names):
    """How argparse reads `arg` among the option strings `names`: None for a
    value, else (name, the value after its `=` or None); name None for an
    unknown flag. A unique prefix of a name stands for it."""
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in names:
        return arg, None
    head, eq, tail = arg.partition("=")
    if eq and head in names:
        return head, tail
    if arg[1] == "-":
        found = [(n, tail if eq else None) for n in names if n.startswith(head)]
    else:  # a one-dash name is one letter, which the rest of arg may follow
        found = [(n, arg[2:]) if n == arg[:2] else (n, None)
                 for n in names if n == arg[:2] or n.startswith(arg)]
    if len(found) > 1:
        _usage_error(f"ambiguous option: {arg} could match {', '.join(n for n, _ in found)}")
    if found:
        return found[0]
    if _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None
    return None, None


def _read_all(args, names):
    """_read_flag of each argument before the first `--`; all after it are values."""
    reads = []
    for arg in args:
        if arg == "--":
            break
        reads.append(_read_flag(arg, names))
    return reads


def parse_args(argv):
    """The command and flag values `argv` asks for, as a namespace with one
    attribute per flag of the command (its default where not given) and
    `command`. A usage error prints one `error: ...` line and exits 2; `-h`
    and `--version` print and exit 0, as argparse does."""
    # argparse reads every argument against the top-level flags, and then those
    # after the command against the command's: an ambiguous prefix stops either
    top = _read_all(argv, _TOP)
    i = next((i for i, read in enumerate(top) if read is None), len(top))  # the command
    for name, value in top[:i]:  # the first known flag before it acts
        if name is not None:
            if value is not None:
                _explicit_error(name, value)
            _print_and_exit(f"rht {__version__} (model format {MODEL_FORMAT_VERSION})"
                            if name == "--version" else _help(None))
    if i == len(argv):
        _usage_error("the following arguments are required: command")
    command, rest = argv[i], argv[i + 1:]
    if command not in COMMANDS:
        _usage_error(f"argument command: invalid choice: {command!r} "
                     f"(choose from {', '.join(map(repr, COMMANDS))})")
    unknown = argv[:i]
    flags = COMMANDS[command][2]
    reads = _read_all(rest, (*_HELP, *flags))
    values = {name: flag.default for name, flag in flags.items()}
    given = set()
    j = 0
    while j < len(rest):
        read = reads[j] if j < len(reads) else None
        if read is None or read[0] is None:
            unknown.append(rest[j])
            j += 1
            continue
        name, value = read
        flag = flags.get(name)  # None for -h and --help
        if (flag is None or flag.kind is bool) and value is not None:
            _explicit_error(name, value)
        if flag is None:
            _print_and_exit(_help(command))
        if flag.kind is bool:
            value = True
        elif value is None:
            if j + 1 >= len(reads) or reads[j + 1] is not None:
                _usage_error(f"argument {name}: expected one argument")
            j += 1
            value = rest[j]
        if flag.kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument {name}: invalid int value: {value!r}")
        elif isinstance(flag.kind, tuple) and value not in flag.kind:
            _usage_error(f"argument {name}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, flag.kind))})")
        values[name] = value
        given.add(name)
        j += 1
    missing = [name for name, flag in flags.items() if flag.required and name not in given]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    args = SimpleNamespace(command=command)
    for name, value in values.items():
        setattr(args, name[2:].replace("-", "_"), value)
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        if getattr(args, "out_dir", None) and not Path(args.out_dir).is_dir():
            raise ModelError(f"--out-dir: {args.out_dir!r} is not a directory")
        if hasattr(args, "seed"):
            args.seed = _seed(args.seed)
        return COMMANDS[args.command][0](args)
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ModelError, DomainError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
