"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload exact-enum --seed 1 --seconds 36 --trace 0

A workload is a fixed list of `rht` commands (see workloads.py). The parent
process imports the package from the checkout's `src/` and then computes
nothing: each command runs in a child forked from it, so every command
starts with cold caches, as a fresh `rht` process would, without paying the
interpreter start and import again. Whole rounds of the list run until the
next round would end after `--seconds`. An end-to-end metric sums, over the
commands of its kind, each command's median time over rounds; total_s sums
over all commands.

A command's time is its CPU time in reference seconds: the child's user plus
system time, divided by the CPU time of a fixed pure-Python loop run in the
parent just before and just after it, times REFERENCE_S. The host's speed
moves by tens of percent over seconds and minutes (shared cores, other
tenants); the loop slows with it, so the ratio stays put. A single-threaded
command's CPU time is its wall time on an idle machine. setup_s is timed the
same way, SETUP_PROBES times a run, spread over it.

With `--trace 1` the rounds alternate untraced and traced; the traced ones
record spans around every public function of the layer modules (spans.py)
and give the per-layer metrics, and the difference of the two kinds of round
in total_s is reported as the tracing overhead. Spans of the first
traced round are written to perfbench/runs/trace-<workload>-seed<n>.jsonl.gz.
"""
from __future__ import annotations

import os

# Single-threaded numerics: forking is safe and timings do not depend on how
# many cores happen to be free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RHT_SEED", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import setup_probe  # noqa: E402
from spans import SELF_METRICS, Tracer  # noqa: E402
from workloads import KINDS, WORKLOADS, CheckError, Outputs  # noqa: E402

HERE = Path(__file__).resolve().parent
RUNS = HERE / "runs"
# The reference loop takes 10-12 ms of CPU on a 2-vCPU Xeon virtual machine;
# counting it as REFERENCE_S makes the metrics read as seconds there.
REFERENCE_LOOPS = 100_000
REFERENCE_S = 0.010
SETUP_PROBES = 3

END_TO_END = [(f"{kind.replace('-', '_')}_s", kind) for kind in KINDS]

# name -> (unit, better); self times come from spans.SELF_METRICS
COUNT_METRICS = {
    "criticality.subsets_scanned": ("count-computed", "lower"),
    "criticality.topo_orders": ("count", "lower"),
    "analytic.ordered_vectors": ("count-computed", "lower"),
    "analytic.k_critical_kept": ("ratio", "higher"),
    "prelimit.configs": ("count", "lower"),
    "prelimit.samples_per_s": ("1/s", "higher"),
    "simulator.events": ("count", "lower"),
    "simulator.coc_events_per_s": ("1/s", "higher"),
    "simulator.cos_events_per_s": ("1/s", "higher"),
    "simulator.ks_samples": ("count", "higher"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_metrics():
    out = {name: ("s", "lower") for name in SELF_METRICS}
    out.update(COUNT_METRICS)
    return out


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _fork(body):
    """Run body() in a forked child; returns the child's exit code."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = body()
        except BaseException:
            traceback.print_exc()
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def reference_cpu():
    """CPU seconds of the fixed reference loop in this process."""
    start = time.thread_time()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.thread_time() - start


def children_cpu():
    """User plus system seconds of all waited-for children so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Clock:
    """Turns a child's CPU time into reference seconds, using the reference
    loop's CPU time before and after it; each loop serves two neighbours."""

    def __init__(self):
        self.before = reference_cpu()

    def seconds(self, cpu):
        after = reference_cpu()
        value = cpu / ((self.before + after) / 2) * REFERENCE_S
        self.before = after
        return value


def compute_references(workload, pkg, model_dir, path):
    def body():
        refs = workload.references(pkg, model_dir)
        with open(path, "wb") as fh:
            pickle.dump(refs, fh)
        return 0

    if _fork(body) != 0:
        raise RuntimeError("computing the workload's reference values failed")
    with open(path, "rb") as fh:
        return pickle.load(fh)


def run_command(cli, cmd, model_dir, cmd_dir, tracer, span_path):
    """Fork one `rht` command; returns (exit code, CPU seconds, artifact dir)."""
    shutil.rmtree(cmd_dir, ignore_errors=True)
    out_dir = cmd_dir / "out"
    out_dir.mkdir(parents=True)
    argv = cmd.argv(model_dir, out_dir)

    def body():
        for fd, name in ((1, "stdout.txt"), (2, "stderr.txt")):
            target = os.open(cmd_dir / name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(target, fd)
            os.close(target)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        if tracer is not None:
            (cmd_dir / "trace.json").write_text(json.dumps(tracer.summary()))
            if span_path is not None:
                tracer.dump_spans(span_path, " ".join(["rht", *argv]))
        return code

    start = children_cpu()
    code = _fork(body)
    return code, children_cpu() - start, out_dir


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def run_round(ctx, tracer=None, span_path=None, setup=False):
    clock = Clock()
    setup_s = measure_setup(ctx, clock) if setup else None
    times = {}
    out_dirs, codes = {}, {}
    layer = {"self_ns": defaultdict(int), "counts": defaultdict(int),
             "incl_ns": defaultdict(int), "spans": 0}
    artifact_bytes = 0
    for i, cmd in enumerate(ctx["workload"].commands):
        cmd_dir = ctx["run_dir"] / "cmd" / f"{i:03d}"
        code, cpu, out_dir = run_command(ctx["cli"], cmd, ctx["model_dir"], cmd_dir,
                                         tracer, span_path)
        times[cmd.cid] = clock.seconds(cpu)
        codes[cmd.cid] = code
        out_dirs[cmd.cid] = out_dir
        artifact_bytes += sum(f.stat().st_size for f in out_dir.iterdir())
        if tracer is not None and code == 0:
            summary = json.loads((cmd_dir / "trace.json").read_text())
            for key in ("self_ns", "counts", "incl_ns"):
                for name, val in summary[key].items():
                    layer[key][name] += val
            layer["spans"] += summary["spans"]

    outputs = Outputs(out_dirs, ctx["refs"], ctx["model_dir"])
    failures = []
    for cmd in ctx["workload"].commands:
        if codes[cmd.cid] != 0:
            failures.append((cmd.cid, f"exit code {codes[cmd.cid]}", False))
            continue
        if cmd.check is None:
            continue
        try:
            cmd.check(outputs)
        except CheckError as exc:
            failures.append((cmd.cid, str(exc), True))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            failures.append((cmd.cid, f"unreadable output: {exc!r}", True))
    return {"times": times, "failures": failures, "layer": layer,
            "artifact_bytes": artifact_bytes, "setup_s": setup_s}


def measure_setup(ctx, clock):
    """Reference seconds of a fresh interpreter importing the package and
    writing the workload's model files."""
    dest = ctx["run_dir"] / "setup"
    shutil.rmtree(dest, ignore_errors=True)
    start = children_cpu()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(dest),
                    *ctx["workload"].models], check=True)
    return clock.seconds(children_cpu() - start)


def _median(rounds, fn):
    return statistics.median(fn(r) for r in rounds)


def kind_seconds(rounds, commands, kind=None):
    """Sum over the commands of a kind (all when None) of their median time.
    A command that runs twice a round counts once, with the times of both runs."""
    samples = defaultdict(list)
    for cmd in commands:
        if kind is None or cmd.kind == kind:
            samples[cmd.timed_as] += [r["times"][cmd.cid] for r in rounds]
    return sum(statistics.median(times) for times in samples.values())


def layer_metrics(traced, untraced, commands):
    metrics = {}
    for name in SELF_METRICS:
        metrics[name] = _median(traced, lambda r: r["layer"]["self_ns"].get(name, 0) / 1e9)
    for name in ("criticality.subsets_scanned", "criticality.topo_orders",
                 "analytic.ordered_vectors", "prelimit.configs", "simulator.events",
                 "simulator.ks_samples"):
        metrics[name] = _median(traced, lambda r: r["layer"]["counts"].get(name, 0))

    def per_count(num, den):
        return lambda r: r["layer"]["counts"].get(num, 0) / max(r["layer"]["counts"].get(den, 0), 1)

    def per_second(num, incl):
        return lambda r: r["layer"]["counts"].get(num, 0) * 1e9 / max(
            r["layer"]["incl_ns"].get(incl, 0), 1)

    metrics["analytic.k_critical_kept"] = _median(
        traced, per_count("analytic.k_critical_kept", "analytic.k_critical_scanned"))
    metrics["prelimit.samples_per_s"] = _median(
        traced, per_second("prelimit.samples", "prelimit.sample_prelimit"))
    for disc in ("coc", "cos"):
        metrics[f"simulator.{disc}_events_per_s"] = _median(
            traced, per_second(f"simulator.{disc}_events", f"simulator.{disc}"))
    metrics["cli.artifact_bytes"] = _median(traced, lambda r: r["artifact_bytes"])
    metrics["trace.spans"] = _median(traced, lambda r: r["layer"]["spans"])
    metrics["trace.overhead_s"] = (kind_seconds(traced, commands)
                                   - kind_seconds(untraced, commands))
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pkg = setup_probe.import_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from redundancy_ht import cli

    workload = WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    run_dir = RUNS / f"{tag}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        model_dir = run_dir / "models"
        setup_probe.write_models(model_dir, workload.models)
        refs = compute_references(workload, pkg, model_dir, run_dir / "refs.pickle")
        ctx = {"workload": workload, "cli": cli, "run_dir": run_dir,
               "model_dir": model_dir, "refs": refs}
        tracer = Tracer(pkg) if args.trace else None
        span_path = RUNS / f"trace-{tag}.jsonl.gz"
        span_path.unlink(missing_ok=True)
        gc.freeze()  # fewer copy-on-write faults in each forked command

        untraced, traced = [], []
        probes = 0
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            # a set-up probe starts the round once every seconds / SETUP_PROBES
            elapsed = round_start - start
            setup = not args.trace and probes * args.seconds <= SETUP_PROBES * elapsed
            probes += setup
            untraced.append(run_round(ctx, setup=setup))
            if tracer is not None:
                tracer.install()
                traced.append(run_round(ctx, tracer, span_path if not traced else None))
                tracer.uninstall()
            now = time.perf_counter()
            print(f"round {len(untraced)}: {now - round_start:.3f} s wall, total_s "
                  f"{sum(untraced[-1]['times'].values()):.3f}"
                  + (f", traced {sum(traced[-1]['times'].values()):.3f}" if traced else ""),
                  file=sys.stderr)
            if now - start + (now - round_start) > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rounds = untraced + traced
    failures = [f for r in rounds for f in r["failures"]]
    for cid, message, _ in failures:
        print(f"FAILED {cid}: {message}", file=sys.stderr)
    for problem in refs["problems"]:
        print(f"FAILED reference check: {problem}", file=sys.stderr)
    correct = not refs["problems"] and not any(is_check for _, _, is_check in failures)

    metrics = {}
    if args.trace:
        units = per_layer_metrics()
        for name, value in layer_metrics(traced, untraced, workload.commands).items():
            metrics[name] = {"value": value, "unit": units[name][0]}
    else:
        for name, kind in END_TO_END + [("total_s", None)]:
            metrics[name] = {"value": kind_seconds(untraced, workload.commands, kind),
                             "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(
            r["setup_s"] for r in untraced if r["setup_s"] is not None), "unit": "s"}
    result = {"correct": correct,
              "attempted": len(rounds) * len(workload.commands),
              "failed": len(failures), "metrics": metrics}
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
