"""Module boundaries: no module of the package imports a private
(underscore) name from a sibling module, every Perron solve goes through
``rpf_solve``, only ``thermo`` solves Perron problems and assembles Gibbs
chains, a ``TiltFamily`` solves only in ``rpf``, one sampler body and the
Monte Carlo estimator are the only walkers, and one window step serves the
lattice DP."""

import ast
from pathlib import Path

import ldplab

PACKAGE = Path(ldplab.__file__).parent


def test_no_module_imports_a_siblings_private_name():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level > 0 or (node.module or "").split(".")[0] == "ldplab"
            private = [a.name for a in node.names
                       if a.name.startswith("_") and not a.name.endswith("__")]
            if sibling and private:
                offenders.append(f"{path.name}:{node.lineno} imports {', '.join(private)}")
    assert not offenders


def _callers(node, name, scope="<module>"):
    """Innermost enclosing function of each call to ``name`` under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    found = []
    if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None)):
        found.append(scope)
    for child in ast.iter_child_nodes(node):
        found += _callers(child, name, scope)
    return found


def _package_callers(name):
    return [f"{path.name}:{scope}" for path in sorted(PACKAGE.glob("*.py"))
            for scope in _callers(ast.parse(path.read_text(encoding="utf-8")), name)]


def test_perron_kernels_are_called_only_by_rpf_solve():
    for kernel in ("_power_stalls", "_inverse_step", "_collatz_wielandt"):
        assert set(_package_callers(kernel)) == {"thermo.py:rpf_solve"}, kernel


def test_one_window_step_serves_the_per_window_dp_and_the_block_kernel():
    """The z-group shift lives in ``_window``: the per-window DP and the
    k-window kernel's build are its two call sites."""
    assert _package_callers("_window") == ["ldp.py:_lattice_masses"] * 2
    assert _package_callers("_block") == ["ldp.py:_lattice_masses"]


def test_tilt_family_solves_only_in_rpf():
    tree = ast.parse((PACKAGE / "thermo.py").read_text(encoding="utf-8"))
    (cls,) = [node for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == "TiltFamily"]
    assert _callers(cls, "rpf_solve") == ["rpf"]


def test_only_thermo_solves_perron_problems_and_assembles_gibbs_chains():
    assert sorted(_package_callers("rpf_solve")) == [
        "thermo.py:equilibrium_measure", "thermo.py:pressure", "thermo.py:rpf"]
    assert {caller.split(":")[0] for caller in _package_callers("gibbs_measure")} == {"thermo.py"}


def test_walk_kernels_are_called_only_by_the_sampler_body_and_the_mc():
    for kernel in ("markov_walks", "walk_tables"):
        assert sorted(_package_callers(kernel)) == [
            "ldp.py:deviation_mass_mc", "leaf.py:_leaf_rows"], kernel
