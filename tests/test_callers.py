"""Every public function and class of the package, and every public method and
property of its public classes, has a caller outside the tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contact_flow"

# Public names whose only callers are tests, each kept as a contract.  The
# tests call the kernels that ship, and check them against the references in
# tests/oracles.py.
ORACLES = (
    # the bit-reproducibility check: a manifest reruns to the same artifact hashes
    "rerun_manifest",
)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _references_to(module: str, tree: ast.Module) -> set[str]:
    """Names `tree` imports from `module` or reads as `module.<name>`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == module
        ):
            names.add(node.attr)
    return names


def _modules_and_trees() -> tuple[list[Path], dict[Path, ast.Module]]:
    """The package's modules and the syntax tree of every file that may call
    them: the modules, scripts/ and perfbench/."""
    # a re-export in __init__.py is not a caller
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    referrers = [*modules, *ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]
    return modules, {path: _tree(path) for path in referrers}


def _callerless_public_names() -> dict[str, str]:
    modules, trees = _modules_and_trees()
    callerless = {}
    for path in modules:
        tree = trees[path]
        used = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for other, other_tree in trees.items():
            if other != path:
                used |= _references_to(path.stem, other_tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # a decorated function, such as a CLI command, is called through its registration
            registered = isinstance(node, ast.FunctionDef) and node.decorator_list
            if node.name not in used and not registered:
                callerless[node.name] = path.name
    return callerless


def _callerless_members() -> dict[str, str]:
    """`Class.name` of each public method or property of a public class that no
    module, script or perfbench file reads as an attribute (`x.name`)."""
    modules, trees = _modules_and_trees()
    read = {n.attr for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    callerless = {}
    for path in modules:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in read:
                    callerless[f"{cls.name}.{node.name}"] = path.name
    return callerless


def test_every_public_name_has_a_caller_or_is_a_named_oracle():
    callerless = {**_callerless_public_names(), **_callerless_members()}
    unexplained = {name: module for name, module in callerless.items() if name not in ORACLES}
    assert not unexplained, f"public names with no caller outside the tests: {unexplained}"
    # an oracle that gained a caller, or was deleted, leaves the list
    assert sorted(callerless) == sorted(ORACLES)


def test_the_benchmarks_own_tests_pass_on_this_tree():
    # perfbench calls the package's API (drag_loss, energy_gradient, predict_x0,
    # GuidanceConfig, ReferenceShape, ...); a separate process keeps the BLAS
    # thread settings perfbench/run.py makes on import out of this one
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr


def test_the_full_scale_acceptance_suite_passes_on_this_tree(capsys):
    # every acceptance criterion at production size (n=16, N=64), in a process
    # of its own so this run's n=4 suite fixture is not shared; its ACCEPTANCE
    # lines, margins included, are printed into every tier-1 log
    command = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", "tests/test_acceptance.py"]
    env = {**os.environ, "CONTACT_FLOW_ACCEPTANCE_FULL": "1"}
    result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800)
    # each criterion's line, after the progress marks of -q
    lines = [line[line.index("ACCEPTANCE"):] for line in result.stdout.splitlines() if "ACCEPTANCE" in line]
    with capsys.disabled():
        print("", *lines, sep="\n")
    assert result.returncode == 0 and lines, result.stdout + result.stderr
