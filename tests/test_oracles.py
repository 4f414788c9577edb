"""Production modules keep one path each: the paper's literal formulas live
in redundancy_ht.oracles, and no module the package ships imports from it
except the few that exist to run or re-export the oracles."""
import ast
from pathlib import Path

import redundancy_ht

PACKAGE = Path(redundancy_ht.__file__).resolve().parent
# the package namespace re-exports the oracles and the acceptance battery runs them
NOT_PRODUCTION = {"__init__", "acceptance", "oracles"}
# the benchmark's reference check reads this name from simulator
ALLOWED = {("simulator", "config_marginals_from_oracle")}
ORACLES = (
    "OrderedTypeVector", "ordered_vector", "iter_ordered_type_tuples", "ENUM_CAP",
    "enumerate_k_critical", "h_term", "beta_weight", "omega_weight", "p_star", "mixture_law",
    "_sigma_of_atom", "sigma_aggregate", "beta_hat", "beta_hat_sigma_k",
    "sigma_weight_formula", "nested_sum_identity", "laplace_of_mixture",
    "config_distribution", "config_prob", "RepresentationMatrices", "representation_matrices",
    "moment_total_alt", "_frac_or_float", "eulerian", "compositions_by_parts", "_multinomial",
    "geometric_moment_factor", "geometric_moment_eulerian", "moments_identity",
    "_compositions", "linear_exponential_moment",
    "check_stability", "critical_rate_and_subsets_bruteforce", "BRUTEFORCE_CAP",
    "_nonempty_subsets", "_longest_nesting_chain",
    "ctmc_oracle", "_enumerate_states", "STATE_CAP", "config_marginals_from_oracle",
)


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _oracle_imports(tree):
    """The names a module imports from the oracles module ("oracles" for the module itself)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".oracles", "redundancy_ht.oracles"):
                yield from (alias.name for alias in node.names)
            elif module in (".", "redundancy_ht"):
                yield from (alias.name for alias in node.names if alias.name == "oracles")
        elif isinstance(node, ast.Import):
            yield from ("oracles" for alias in node.names
                        if alias.name == "redundancy_ht.oracles")


def _package_imports(tree):
    """The package modules a module imports, at module level or in a function body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if not node.level:
                if path[0] != "redundancy_ht":
                    continue
                path = path[1:]
            if path and path[0]:
                yield path[0]
            else:  # from . import name
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("redundancy_ht."))


def _defined(tree):
    """Names bound at module level by a def, a class or an assignment."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return out


def test_production_modules_import_no_oracle():
    modules = _modules()
    production = set(modules) - NOT_PRODUCTION
    assert {"analytic", "prelimit", "moments", "criticality", "simulator", "model", "cli",
            "generators"} <= production
    found = {(name, imported) for name in sorted(production)
             for imported in _oracle_imports(modules[name])}
    assert found == ALLOWED


def test_model_imports_no_package_module_but_errors():
    # every layer builds on model, so an import back from it closes a cycle
    modules = _modules()
    assert set(_package_imports(modules["moments"])) == {
        "analytic", "criticality", "errors", "model", "prelimit"}
    # simulator imports oracles in a function body only
    assert set(_package_imports(modules["simulator"])) >= {"_kernels", "oracles"}
    assert set(_package_imports(modules["model"])) == {"errors"}


def test_oracles_are_defined_in_the_oracles_module_only():
    modules = _modules()
    assert set(ORACLES) <= _defined(modules["oracles"])
    for name, tree in modules.items():
        if name != "oracles":
            assert not set(ORACLES) & _defined(tree), name
