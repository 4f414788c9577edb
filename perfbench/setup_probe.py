"""Set-up as the benchmark times it: start the interpreter, import the
package from the checkout's `src/`, and write the workload's model files.

    python3 perfbench/setup_probe.py DEST_DIR MODEL [MODEL ...]
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_package():
    """Import redundancy_ht from ROOT/src and nowhere else."""
    src = ROOT / "src"
    if not (src / "redundancy_ht" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source at {src / 'redundancy_ht'}")
    sys.path.insert(0, str(src))
    import redundancy_ht
    import redundancy_ht.cli  # noqa: F401  (everything a command needs)

    if Path(redundancy_ht.__file__).resolve().parent != (src / "redundancy_ht").resolve():
        raise ImportError(f"imported {redundancy_ht.__file__}, not the checkout's copy")
    return redundancy_ht


def write_models(dest: Path, names):
    dest.mkdir(parents=True, exist_ok=True)
    for name in names:
        (dest / f"{name}.json").write_bytes((HERE / "models" / f"{name}.json").read_bytes())


if __name__ == "__main__":
    import_package()
    write_models(Path(sys.argv[1]), sys.argv[2:])
