"""The benchmark's workloads: fixed lists of `rht` commands on fixed model
files, the references they are checked against, and the checks.

Every workload runs each command kind at least once, because the result line
carries every end-to-end metric; the kinds a workload is not about run as
small probes on the two-type N-model, twice a round. `--seed` picks the
seeds passed to `rht sample`, `rht simulate` and `rht verify-limit`. The
model files and the exact evaluation points do not depend on it: the
cost of exact rational arithmetic depends on the points, and the timings
should not depend on the seed.

Statistical checks are set so that a correct program fails one of them far
less than once in a thousand runs. Sample means of `rht sample` use 5
standard errors. The KS distance uses the critical value at alpha = 1e-6 for
the same sample sizes. Time averages use their batch-means half-widths
widened from 95% to 1 - 1e-9 confidence: near lambda* the 95% intervals
undercover (on the four-server example at 0.8 lambda*, 0.4-0.8% of per-type
deviations exceed two half-widths where 0.05% should), so the t-quantile
is pushed far into the tail. c.o.s. runs are checked on the total only.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import scipy.stats

KINDS = ("analyze", "pgf", "laplace", "limit-law", "moments", "sample", "simulate",
         "verify-limit")

Z_SAMPLE = 5.0
KS_ALPHA = 1e-6
TIME_AVG_ALPHA = 1e-9
BATCHES = 20  # the simulator's batch count, so its half-widths have 19 degrees of freedom
WIDEN = (scipy.stats.t.ppf(1 - TIME_AVG_ALPHA / 2, BATCHES - 1)
         / scipy.stats.t.ppf(0.975, BATCHES - 1))
KS_WIDEN = math.sqrt(math.log(2 / KS_ALPHA) / 2) / math.sqrt(math.log(2 / 0.01) / 2)

Z_POOL = (F(1, 2), F(2, 3), F(3, 4), F(4, 5), F(5, 6), F(6, 7), F(7, 8))
T_POOL = (F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(3), F(7, 2))

# The paper's four-server example (type indices 0..3 for {1},{1,2,3},{3},{3,4}).
PAPER_K_CRITICAL = {(0, 2, 3, 1): F(4, 9), (0, 3, 2, 1): F(2, 9),
                    (2, 3, 0, 1): F(2, 9), (3, 2, 0, 1): F(1, 9)}
PAPER_LIMIT_MATRIX = [[F(1), 0, 0, 0], [0, 0, F(1, 3), F(2, 3)],
                      [F(1, 4), F(1, 4), F(1, 6), F(1, 3)]]
PAPER_SIGMA_WEIGHTS = sorted([F(2, 3), F(1, 3)])


class CheckError(Exception):
    """A command's output disagrees with its reference or a required property."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


@dataclass
class Command:
    cid: str
    kind: str
    model: str
    args: list
    check: object = None  # callable(Outputs) raising CheckError
    copy_of: str = None  # a second run of this command in the round, timed with it

    @property
    def timed_as(self):
        return self.copy_of or self.cid

    def argv(self, model_dir: Path, out_dir: Path) -> list:
        return [self.kind, "--model", str(model_dir / f"{self.model}.json"),
                "--out-dir", str(out_dir), *self.args]


@dataclass
class Workload:
    name: str
    models: list
    commands: list
    references: object  # callable(package, model_dir) -> dict, run in a child process


class Outputs:
    """Artifacts of one round, addressed by command id."""

    def __init__(self, out_dirs: dict, refs: dict, model_dir: Path):
        self.out_dirs = out_dirs
        self.refs = refs
        self.model_dir = model_dir

    def json(self, cid, name):
        return json.loads((self.out_dirs[cid] / f"{name}.json").read_text())

    def csv(self, cid, name):
        with open(self.out_dirs[cid] / f"{name}.csv", newline="") as fh:
            return list(csv.reader(fh))

    def model(self, name):
        return json.loads((self.model_dir / f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# Independent formulas the checks use
# ---------------------------------------------------------------------------

def _model_numbers(doc):
    mu = {s["id"]: F(s["mu"]) for s in doc["servers"]}
    types = [set(t["servers"]) for t in doc["types"]]
    p = [F(t["p"]) for t in doc["types"]]
    return mu, types, p, F(doc["lambda"])


def _paper_mixture_laplace(doc, t):
    """sum_T P*(T) prod_k (1 + sum_S t_S p_S / p(T, i_k))^-1 with the paper's
    weights; a prefix is critical when N lam* p(prefix) = mu(prefix), lam* = 1."""
    mu, types, p, _ = _model_numbers(doc)
    n, lam_star = len(mu), F(1)
    total = F(0)
    for entries, weight in PAPER_K_CRITICAL.items():
        term = weight
        servers, prefix = set(), []
        for s in entries:
            prefix.append(s)
            servers |= types[s]
            p_pref = sum(p[x] for x in prefix)
            if n * lam_star * p_pref == sum(mu[srv] for srv in servers):
                term /= 1 + sum(t[x] * p[x] / p_pref for x in prefix)
        total += term
    return total


def _exp_second_moment(coeffs):
    """E[(sum_k a_k U_k)^2] = (sum a)^2 + sum a^2 for i.i.d. unit exponentials."""
    return sum(coeffs) ** 2 + sum(a * a for a in coeffs)


def _seeds(seed, k):
    rng = random.Random(f"sim-{seed}")
    return [rng.randrange(1, 2 ** 31) for _ in range(k)]


# ---------------------------------------------------------------------------
# Checks shared by the workloads
# ---------------------------------------------------------------------------

def check_analyze(cid, model):
    def check(out):
        got = out.json(cid, "analysis")
        ref = out.refs["criticality"][model]
        require(F(got["lambda_star"]) == ref["lambda_star"],
                f"{model}: lambda* {got['lambda_star']} != max-flow {ref['lambda_star']}")
        subsets = sorted(sorted(s) for s in ref["critical_subsets"])
        require(got["critical_subsets"] == subsets,
                f"{model}: subset scan and construction disagree on the critical subsets")
        require(got["depth_K"] == ref["K"], f"{model}: K {got['depth_K']} != {ref['K']}")
    return check


def check_pgf_one(cid):
    def check(out):
        val = out.json(cid, "pgf")["value"]
        require(val == "1", f"pgf(1) = {val}, not exactly 1")
    return check


def check_pgf_open(cid):
    def check(out):
        val = F(out.json(cid, "pgf")["value"])
        require(0 < val < 1, f"pgf at z in (0,1)^S is {val}, outside (0,1)")
    return check


def check_pgf_inside(cid, float_cid):
    """Exact value in (0,1), and the float backend agrees with it."""
    def check(out):
        check_pgf_open(cid)(out)
        exact = F(out.json(cid, "pgf")["value"])
        approx = float(out.json(float_cid, "pgf")["value"])
        require(abs(approx - float(exact)) <= 1e-12,
                f"float pgf {approx!r} differs from exact {float(exact)!r}")
    return check


def check_laplace_point(cid, model, t, laminar):
    def check(out):
        got = out.json(cid, "laplace")
        prod, mix = F(got["product_form"]), F(got["mixture_form"])
        require(0 < mix <= 1, f"mixture Laplace transform {mix} outside (0,1]")
        if laminar:
            require(got["subtrees_laminar"], f"{model}: expected laminar subtrees")
            require(prod == mix, f"{model}: product {prod} != mixture {mix} on a laminar model")
            if "cos_general" in got:
                cos = F(got["cos_general"])
                require(cos == prod, f"{model}: c.o.s. transform {cos} != product {prod}")
        if model == "four-server":
            want = _paper_mixture_laplace(out.model(model), t)
            require(mix == want, f"four-server mixture {mix} != paper weights {want}")
    return check


def check_laplace_grid(cid, analyze_cid):
    """On the diagonal t every product-form row sums to 1, so L(t) = (1+t)^-K."""
    def check(out):
        k = out.json(analyze_cid, "analysis")["depth_K"]
        rows = out.csv(cid, "laplace_grid")[1:]
        require(len(rows) == 17, f"{len(rows)} grid rows, expected 17")
        for tval, val in rows:
            require(F(val) == (1 + F(tval)) ** -k, f"L({tval}) = {val} != (1+t)^-{k}")
    return check


def check_limit_law(cid, model, analyze_cid):
    def check(out):
        got = out.json(cid, "limit_law")
        k = out.json(analyze_cid, "analysis")["depth_K"]
        require(got["K"] == k and len(got["coefficients"]) == k, "limit law is not K-dimensional")
        weights = [F(a["weight"]) for a in got["sigma_mixture"]]
        require(sum(weights) == 1 and all(w > 0 for w in weights),
                f"sigma mixture weights {weights} are not a distribution")
        if model == "four-server":
            rows = [[F(a) for a in row] for row in got["coefficients"]]
            require(rows == PAPER_LIMIT_MATRIX, f"limit-law matrix {rows} differs from the paper")
            require(sorted(weights) == PAPER_SIGMA_WEIGHTS, f"sigma weights {weights}")
    return check


def check_limit_total(cid, analyze_cid, n):
    def check(out):
        k = out.json(analyze_cid, "analysis")["depth_K"]
        val = F(out.json(cid, "moments")["value"])
        want = math.factorial(n + k - 1) // math.factorial(k - 1)
        require(val == want, f"limit moment {val} != (n+K-1)!/(K-1)! = {want}")
    return check


def check_limit_type(cid, law_cid, type_index):
    def check(out):
        val = F(out.json(cid, "moments")["value"])
        want = F(0)
        for atom in out.json(law_cid, "limit_law")["sigma_mixture"]:
            coeffs = [F(row[type_index]) for row in atom["coefficients"]]
            want += F(atom["weight"]) * _exp_second_moment(coeffs)
        require(val == want, f"type:{type_index} limit moment {val} != sigma-mixture {want}")
    return check


def check_second_moment(cid, first_cid):
    def check(out):
        m2 = F(out.json(cid, "moments")["value"])
        m1 = F(out.json(first_cid, "moments")["value"])
        require(m1 > 0 and m2 >= m1 * m1, f"moments E[Q]={m1}, E[Q^2]={m2} violate Jensen")
    return check


def check_sample_mean(cid, first_cid, n):
    def check(out):
        rows = out.csv(cid, "samples")[1:]
        require(len(rows) == n, f"{len(rows)} samples, expected {n}")
        totals = [sum(int(x) for x in row[1:]) for row in rows]
        mean = sum(totals) / n
        var = sum((x - mean) ** 2 for x in totals) / (n - 1)
        exact = float(F(out.json(first_cid, "moments")["value"]))
        half = Z_SAMPLE * math.sqrt(var / n)
        require(abs(mean - exact) <= half,
                f"sample mean {mean:.4f} outside {exact:.4f} +- {half:.4f}")
    return check


def check_time_averages(cid, ref_key):
    """Per-type time averages within their widened batch-means intervals."""
    def check(out):
        got = out.json(cid, "simulate")
        exact = out.refs["means"][ref_key]
        for avg, half, want, label in zip(got["time_avg"], got["half_width"], exact,
                                          got["type_labels"]):
            require(abs(avg - want) <= WIDEN * half,
                    f"type {label}: time average {avg:.4f} vs exact {want:.4f} "
                    f"(+- {WIDEN * half:.4f})")
    return check


def check_total_average(cid, ref_key):
    """Total time average within the summed per-type half-widths, widened.

    The waiting counts of c.o.s. are mostly zero with bursts, and their
    per-type batch means are too skewed for a per-type check; the sum of
    the half-widths bounds the spread of the total whatever the correlation."""
    def check(out):
        got = out.json(cid, "simulate")
        want = sum(out.refs["means"][ref_key])
        half = WIDEN * sum(got["half_width"])
        require(abs(got["time_avg_total"] - want) <= half,
                f"total time average {got['time_avg_total']:.4f} vs exact {want:.4f} "
                f"(+- {half:.4f})")
    return check


def check_simulate_sane(cid, events):
    def check(out):
        got = out.json(cid, "simulate")
        require(got["events"] == events, f"{got['events']} events, expected {events}")
        require(all(x >= 0 and math.isfinite(x) for x in got["time_avg"]),
                "time averages must be finite and nonnegative")
    return check


SIM_CHECKS = {"coc": check_time_averages, "cos": check_total_average}


def check_ks_sane(cid, n_eps):
    """KS distances are distances, one row per epsilon, scaled means positive."""
    def check(out):
        rows = out.json(cid, "verify_limit")
        require(len(rows) == n_eps, f"{len(rows)} epsilon rows, expected {n_eps}")
        for row in rows:
            require(all(0 <= d <= 1 for d in [row["ks_total"], *row["ks_per_type"]]),
                    f"KS distance outside [0, 1] at eps={row['epsilon']}")
            require(all(m > 0 for m in row["mean_scaled"]), "scaled means must be positive")
    return check


def check_ks(cid):
    def check(out):
        rows = out.json(cid, "verify_limit")
        last = min(rows, key=lambda r: r["epsilon"])
        crit = KS_WIDEN * last["ks_total_critical"]
        require(last["ks_total"] < crit,
                f"total KS {last['ks_total']:.4f} >= critical {crit:.4f} at "
                f"eps={last['epsilon']}")
    return check


# ---------------------------------------------------------------------------
# References, computed in a child process so the parent stays cache-free
# ---------------------------------------------------------------------------

def _criticality_refs(pkg, model_dir, names):
    out = {}
    for name in names:
        model, _ = pkg.load_model(str(model_dir / f"{name}.json"))
        dag = pkg.crp_components(model, pkg.critical_rate(model))
        out[name] = {"lambda_star": dag.lambda_star,
                     "critical_subsets": pkg.critical_subsets_via_construction(dag),
                     "K": dag.K}
    return out


def _config_checks(pkg, model_dir, names, disciplines=("coc", "cos")):
    """Configuration probabilities are positive and sum to exactly 1."""
    problems = []
    for name in names:
        model, _ = pkg.load_model(str(model_dir / f"{name}.json"))
        for disc in disciplines:
            _, probs = pkg.config_distribution(model, disc)
            if not (all(q > 0 for q in probs) and sum(probs) == 1):
                problems.append(f"{name}/{disc}: configuration probabilities invalid")
    return problems


def _oracle_check(pkg):
    """Exact configuration probabilities of the N-model at lambda = 1/2 against
    the truncated-CTMC generator solve, aggregated to first occurrences."""
    from redundancy_ht import simulator

    model = pkg.SystemModel(mu=(F(1), F(1)), lam=F(1, 2),
                            job_types=(frozenset({1, 2}), frozenset({2})),
                            p=(F(1, 2), F(1, 2)))
    entries, probs = pkg.config_distribution(model, "coc")
    pi, _, _ = pkg.ctmc_oracle(model, "coc", truncation_len=12)
    marg = simulator.config_marginals_from_oracle(model, pi)
    worst = max(abs(float(q) - marg.get(e, 0.0)) for e, q in zip(entries, probs))
    # the truncated chain misses at most the mass beyond 12 jobs, here < 1e-3
    return [] if worst < 1e-3 else [f"config probabilities differ from ctmc_oracle by {worst:.2e}"]


def _exact_means(pkg, model_dir, names):
    out = {}
    for name in names:
        model, _ = pkg.load_model(str(model_dir / f"{name}.json"))
        for disc in ("coc", "cos"):
            out[f"{name}/{disc}"] = [float(x) for x in pkg.prelimit.expected_type_counts(model, disc)]
    return out


def _mm1_means(model_dir, name):
    """Complete partitioning: independent M/M/1 queues, E[Q] = rho/(1-rho) in
    system (c.o.c.) and rho^2/(1-rho) waiting (c.o.s.)."""
    mu, types, p, lam = _model_numbers(json.loads((model_dir / f"{name}.json").read_text()))
    n = len(mu)
    rho = [n * lam * ps / mu[next(iter(srv))] for srv, ps in zip(types, p)]
    return {f"{name}/coc": [float(r / (1 - r)) for r in rho],
            f"{name}/cos": [float(r * r / (1 - r)) for r in rho]}


# ---------------------------------------------------------------------------
# Command lists
# ---------------------------------------------------------------------------

def _vec(values):
    return ",".join(str(v) for v in values)


def _float_vec(values):
    return ",".join(repr(float(v)) for v in values)


class _CommandList:
    def __init__(self, seed):
        self.sim_seeds = iter(_seeds(seed, 64))
        self.commands = []
        self.check_makers = {}  # cid -> callable(cid) making its check, for again()

    def add(self, cid, kind, model, *args, check=None):
        self.commands.append(Command(cid, kind, model, list(args), check))
        return cid

    def seed(self):
        return str(next(self.sim_seeds))

    def again(self, cid):
        """Run command `cid` a second time per round, half a round away from the
        first, so that a short command that makes up most of its kind's metric
        is sampled twice as often."""
        i = next(k for k, cmd in enumerate(self.commands) if cmd.cid == cid)
        first = self.commands[i]
        copy = f"{cid}-again"
        self.commands.insert((i + len(self.commands) // 2) % len(self.commands),
                             Command(copy, first.kind, first.model, first.args,
                                     self.check_makers[cid](copy), copy_of=cid))

    def exact_model(self, model, n_types, laminar, cos_variants=True, moments=True,
                    sample_n=0):
        """The exact subcommands on one model; c.o.s. variants where they exist.
        With sample_n = 0 no `rht sample` runs."""
        add = self.add
        rng = random.Random(model)  # fixed points per model
        z = rng.sample(Z_POOL, n_types)
        t = rng.sample(T_POOL, n_types)
        j = rng.randrange(n_types)
        disciplines = ("coc", "cos") if cos_variants else ("coc",)
        an = add(f"{model}:analyze", "analyze", model, check=check_analyze(f"{model}:analyze", model))
        for disc in ("coc", "cos"):
            ex = f"{model}:pgf-{disc}"
            fl = f"{model}:pgf-{disc}-float"
            add(fl, "pgf", model, "--discipline", disc, "--z", _float_vec(z), "--backend", "float")
            add(ex, "pgf", model, "--discipline", disc, "--z", _vec(z),
                check=check_pgf_inside(ex, fl))
        for disc in disciplines:
            one = f"{model}:pgf-{disc}-one"
            add(one, "pgf", model, "--discipline", disc, "--z", _vec([1] * n_types),
                check=check_pgf_one(one))
        lp = f"{model}:laplace"
        self.check_makers[lp] = lambda cid: check_laplace_point(cid, model, t, laminar)
        add(lp, "laplace", model, "--t", _vec(t), "--cos", check=self.check_makers[lp](lp))
        grid = f"{model}:laplace-grid"
        add(grid, "laplace", model, "--t-grid", "0:4:17", check=check_laplace_grid(grid, an))
        law = f"{model}:limit-law"
        self.check_makers[law] = lambda cid: check_limit_law(cid, model, an)
        add(law, "limit-law", model, check=self.check_makers[law](law))
        lt = f"{model}:moments-limit"
        add(lt, "moments", model, "--n", "2", "--limit", check=check_limit_total(lt, an, 2))
        ty = f"{model}:moments-type"
        add(ty, "moments", model, "--n", "2", "--limit", "--target", f"type:{j}",
            check=check_limit_type(ty, law, j))
        for disc in disciplines:
            m1 = f"{model}:moments1-{disc}"
            add(m1, "moments", model, "--n", "1", "--discipline", disc)
            if moments:
                m2 = f"{model}:moments2-{disc}"
                add(m2, "moments", model, "--n", "2", "--discipline", disc,
                    check=check_second_moment(m2, m1))
            if sample_n:
                smp = f"{model}:sample-{disc}"
                add(smp, "sample", model, "--n", str(sample_n), "--discipline", disc,
                    "--seed", self.seed(), check=check_sample_mean(smp, m1, sample_n))

    def pgf_only(self, model, n_types):
        """The enumeration-bound PGF on a model too wide for the other exact commands."""
        z = random.Random(model).sample(Z_POOL, n_types)
        ex = f"{model}:pgf-coc"
        self.add(ex, "pgf", model, "--discipline", "coc", "--z", _vec(z), check=check_pgf_open(ex))

    def probes(self, kinds, copies=2):
        """Small commands of the listed kinds on the N-model, `copies` times,
        spread evenly through the round so each kind samples the whole round."""
        main, sets = self.commands, []
        for k in range(copies):
            self.commands = []
            self._probe_set(kinds, f"probe{k}")
            sets.append(self.commands)
        step = -(-len(main) // copies)
        self.commands = []
        for k in range(copies):
            self.commands += main[k * step:(k + 1) * step] + sets[k]

    def _probe_set(self, kinds, tag):
        model, add = "n-model", self.add
        an = f"{tag}:analyze"
        add(an, "analyze", model, check=check_analyze(an, model))
        if "pgf" in kinds:
            for disc in ("coc", "cos"):
                fl = f"{tag}:pgf-{disc}-float"
                add(fl, "pgf", model, "--discipline", disc, "--z", "0.5,0.75", "--backend", "float")
                ex = f"{tag}:pgf-{disc}"
                add(ex, "pgf", model, "--discipline", disc, "--z", "1/2,3/4",
                    check=check_pgf_inside(ex, fl))
        if "laplace" in kinds:
            lp = f"{tag}:laplace"
            add(lp, "laplace", model, "--t", "1,2", "--cos",
                check=check_laplace_point(lp, model, None, True))
        if "limit-law" in kinds:
            law = f"{tag}:limit-law"
            add(law, "limit-law", model, check=check_limit_law(law, model, an))
        if "moments" in kinds:
            for disc in ("coc", "cos"):
                add(f"{tag}:moments1-{disc}", "moments", model, "--n", "1", "--discipline", disc)
            lt = f"{tag}:moments-limit"
            add(lt, "moments", model, "--n", "2", "--limit", check=check_limit_total(lt, an, 2))
            if "limit-law" in kinds:
                ty = f"{tag}:moments-type"
                add(ty, "moments", model, "--n", "2", "--limit", "--target", "type:0",
                    check=check_limit_type(ty, law, 0))
        if "sample" in kinds:
            for disc in ("coc", "cos"):
                smp = f"{tag}:sample-{disc}"
                add(smp, "sample", model, "--n", "2000", "--discipline", disc,
                    "--seed", self.seed(),
                    check=check_sample_mean(smp, f"{tag}:moments1-{disc}", 2000))
        if "simulate" in kinds:
            for disc in ("coc", "cos"):
                sim = f"{tag}:simulate-{disc}"
                add(sim, "simulate", model, "--discipline", disc, "--events", "5000",
                    "--seed", self.seed(), check=check_simulate_sane(sim, 5000))
        if "verify-limit" in kinds:
            vl = f"{tag}:verify-limit"
            add(vl, "verify-limit", model, "--eps", "0.2,0.1", "--events", "5000",
                "--seed", self.seed(), check=check_ks_sane(vl, 2))


def exact_enum(seed):
    b = _CommandList(seed)
    b.exact_model("four-server", 4, laminar=True, sample_n=4000)
    b.exact_model("diamond", 3, laminar=False, sample_n=4000)
    b.exact_model("n-model", 2, laminar=True, sample_n=4000)
    b.exact_model("gen6", 6, laminar=True, cos_variants=False, moments=False)
    b.pgf_only("gen7", 7)
    b.probes({"simulate", "verify-limit"})
    b.again("gen6:laplace")
    b.again("gen6:limit-law")

    def references(pkg, model_dir):
        small = ["four-server", "diamond", "n-model"]
        problems = (_config_checks(pkg, model_dir, small)
                    + _config_checks(pkg, model_dir, ["gen6"], ("coc",)) + _oracle_check(pkg))
        model, _ = pkg.load_model(str(model_dir / "four-server.json"))
        report = pkg.critical_rate_and_subsets_bruteforce(model)
        weights = {entries: w for (w, _, entries) in pkg.mixture_law(model, report).atoms}
        if weights != PAPER_K_CRITICAL:
            problems.append(f"four-server K-critical weights {weights} differ from the paper")
        return {"criticality": _criticality_refs(pkg, model_dir, small + ["gen6"]),
                "problems": problems}

    models = ["four-server", "diamond", "n-model", "gen6", "gen7"]
    return Workload("exact-enum", models, b.commands, references)


def sim_heavy(seed):
    b = _CommandList(seed)
    add = b.add
    for model, coc_events, cos_events in (("n-model-near", 150_000, 80_000),
                                          ("four-server-near", 150_000, 60_000)):
        for disc, events in (("coc", coc_events), ("cos", cos_events)):
            cid = f"{model}:simulate-{disc}"
            add(cid, "simulate", model, "--discipline", disc, "--events", str(events),
                "--seed", b.seed(), check=SIM_CHECKS[disc](cid, f"{model}/{disc}"))
    add("n-model:verify-limit", "verify-limit", "n-model", "--eps", "0.2,0.1,0.05",
        "--events", "150000", "--seed", b.seed(), check=check_ks("n-model:verify-limit"))
    add("four-server:verify-limit", "verify-limit", "four-server", "--discipline", "cos",
        "--eps", "0.2,0.1", "--events", "40000", "--seed", b.seed(),
        check=check_ks_sane("four-server:verify-limit", 2))
    b.probes({"pgf", "laplace", "limit-law", "moments", "sample"})

    def references(pkg, model_dir):
        return {"criticality": _criticality_refs(pkg, model_dir, ["n-model"]),
                "means": _exact_means(pkg, model_dir, ["n-model-near", "four-server-near"]),
                "problems": []}

    models = ["n-model-near", "four-server-near", "n-model", "four-server"]
    return Workload("sim-heavy", models, b.commands, references)


def wide_types(seed):
    b = _CommandList(seed)
    add = b.add
    for model in ("wide12", "wide14", "partition13"):
        an = f"{model}:analyze"
        add(an, "analyze", model, check=check_analyze(an, model))
        if model == "wide14":
            continue
        if model == "partition13":
            for disc in ("coc", "cos"):
                cid = f"{model}:simulate-{disc}"
                add(cid, "simulate", model, "--discipline", disc, "--events", "20000",
                    "--seed", b.seed(), check=SIM_CHECKS[disc](cid, f"{model}/{disc}"))
            continue
        grid = f"{model}:laplace-grid"
        add(grid, "laplace", model, "--t-grid", "0:4:17", check=check_laplace_grid(grid, an))
        lt = f"{model}:moments-limit"
        b.check_makers[lt] = lambda cid, an=an: check_limit_total(cid, an, 2)
        add(lt, "moments", model, "--n", "2", "--limit", check=b.check_makers[lt](lt))
        for disc in ("coc", "cos"):
            cid = f"{model}:simulate-{disc}"
            add(cid, "simulate", model, "--discipline", disc, "--events", "10000",
                "--seed", b.seed(), check=check_simulate_sane(cid, 10_000))
    b.probes({"pgf", "laplace", "limit-law", "moments", "sample", "verify-limit"})
    b.again("wide12:moments-limit")

    def references(pkg, model_dir):
        means = _mm1_means(model_dir, "partition13")
        return {"criticality": _criticality_refs(pkg, model_dir,
                                                 ["wide12", "wide14", "partition13", "n-model"]),
                "means": means, "problems": []}

    models = ["wide12", "wide14", "partition13", "n-model"]
    return Workload("wide-types", models, b.commands, references)


WORKLOADS = {"exact-enum": exact_enum, "sim-heavy": sim_heavy, "wide-types": wide_types}
