"""Regenerate the benchmark's model files under perfbench/models/.

    python3 perfbench/gen_models.py            # rewrite perfbench/models/*.json
    python3 perfbench/gen_models.py --out DIR  # write them somewhere else

The reference models are written out by hand. The generated ones come from
`random.Random(seed)` with the fixed seeds below; lambda is placed at a fixed
fraction of the exact lambda* that the package's max-flow route computes, so
the files are exact-rational and stable. The benchmark reads the committed
files and never calls this script while it runs.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _doc(mu, types, p, lam):
    return {
        "servers": [{"id": i + 1, "mu": str(m)} for i, m in enumerate(mu)],
        "types": [{"servers": sorted(s), "p": str(ps)} for s, ps in zip(types, p)],
        "lambda": str(lam),
    }


def _four_server(lam):
    return _doc([1, 1, 1, 1], [{1}, {1, 2, 3}, {3}, {3, 4}],
                [F(1, 4), F(1, 4), F(1, 6), F(1, 3)], lam)


def _n_model(lam):
    return _doc([1, 1], [{1, 2}, {2}], [F(1, 2), F(1, 2)], lam)


def _random_types(rng, n_types, n_servers, sizes):
    """Distinct server subsets covering every server, singletons first."""
    pool = list(range(1, n_servers + 1))
    types = {frozenset({srv}) for srv in pool} if n_types >= n_servers else set()
    while len(types) < n_types:
        types.add(frozenset(rng.sample(pool, rng.choice(sizes))))
    types = sorted(types, key=lambda s: (len(s), sorted(s)))
    if set().union(*types) != set(pool):
        return None
    return types


def _generated(seed, n_types, n_servers, load, sizes):
    from redundancy_ht import SystemModel, criticality

    rng = random.Random(seed)
    while True:
        types = _random_types(rng, n_types, n_servers, sizes)
        if types is not None:
            break
    weights = [rng.randint(1, 4) for _ in types]
    p = [F(w, sum(weights)) for w in weights]
    mu = [F(rng.randint(1, 3)) for _ in range(n_servers)]
    probe = SystemModel(mu=tuple(mu), lam=F(1), job_types=tuple(types), p=tuple(p))
    lam_star = criticality.critical_rate(probe)
    return _doc(mu, types, p, load * lam_star)


def _partition(n, load):
    """Complete partitioning: type i runs only on server i, so every type is
    an independent M/M/1 queue with rho_i = N lam p_i / mu_i. Type 1 alone
    has the largest p_i/mu_i; the others load their servers 2/3 to 5/6 as much."""
    mu = [F(1 + i % 3) for i in range(n)]
    weights = [m * (12 if i == 0 else 8 + i % 3) for i, m in enumerate(mu)]
    p = [F(w, sum(weights)) for w in weights]
    lam_star = min(m / (n * ps) for m, ps in zip(mu, p))
    return _doc(mu, [{i + 1} for i in range(n)], p, load * lam_star)


# The seeds are part of the benchmark; perfbench/README.md describes each model.
MODELS = {
    "four-server": lambda: _four_server(F(1, 2)),  # the paper's example, K = 3
    "diamond": lambda: _doc([1, 1, 1], [{1, 3}, {2, 3}, {3}], [F(1, 3)] * 3, F(1, 2)),
    "n-model": lambda: _n_model(F(4, 5)),
    "gen6": lambda: _generated(6, 6, 4, F(4, 5), (1, 1, 2, 2, 3)),  # K = 3
    "gen7": lambda: _generated(4, 7, 5, F(4, 5), (1, 1, 2, 2, 3)),  # K = 2
    "n-model-near": lambda: _n_model(F(9, 10)),  # 0.9 lambda*
    "four-server-near": lambda: _four_server(F(4, 5)),  # 0.8 lambda*
    "wide12": lambda: _generated(12, 12, 8, F(9, 10), (2, 2, 3)),
    "wide14": lambda: _generated(14, 14, 9, F(9, 10), (2, 2, 3)),
    "partition13": lambda: _partition(13, F(3, 5)),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "models"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, make in MODELS.items():
        (out / f"{name}.json").write_text(json.dumps(make(), indent=1) + "\n")
    print(f"wrote {len(MODELS)} model files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
