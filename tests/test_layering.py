"""Import structure of the package, read from the source with ``ast``.

Every import, in the package and in its tests, sits at module level, so
that the import graph is the one a reader sees at the top of each file and
no cycle hides inside a function; the closed-form bounds depend on no other
module of the package but the exception types.  The package runs in one
thread: no module imports a thread or process pool.  Its one runtime
dependency is numpy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "phaseloss"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def package_imports(tree):
    """Names of the phaseloss modules a module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                found.update([node.module] if node.module else
                             [alias.name for alias in node.names])
            elif node.module and node.module.split(".")[0] == "phaseloss":
                found.add(node.module.split(".", 1)[1] if "." in node.module else "phaseloss")
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".", 1)[1] for alias in node.names
                         if alias.name.startswith("phaseloss."))
    return found


def test_modules_found():
    assert {"bounds.py", "gaussian.py", "cli.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.stem)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lazy = [f"{path.name}:{inner.lineno} in {func.name}()"
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(func)
            if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not lazy, "imports inside function bodies: " + ", ".join(lazy)


def test_bounds_imports_no_package_module_but_errors():
    tree = ast.parse((PACKAGE / "bounds.py").read_text(encoding="utf-8"))
    assert package_imports(tree) <= {"errors"}
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    assert not package_imports(errors)


def test_optimizer_builds_no_block_density():
    # the two-mode witnesses come from block vectors, as the two-mode QFI does
    tree = ast.parse((PACKAGE / "iss.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert not names & {"apply_channel", "apply_channel_derivatives"}


CONCURRENCY = {"concurrent", "threading", "multiprocessing"}


def absolute_imports(path):
    """Names of the modules a module imports by absolute name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_concurrency_imports(path):
    found = sorted(name for name in absolute_imports(path)
                   if name.split(".")[0] in CONCURRENCY)
    assert not found, f"{path.name} imports {', '.join(found)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_only_the_standard_library_and_numpy(path):
    allowed = set(sys.stdlib_module_names) | {"numpy", "phaseloss"}
    found = sorted(name for name in absolute_imports(path)
                   if name.split(".")[0] not in allowed)
    assert not found, f"{path.name} imports {', '.join(found)}"


def test_package_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    code = ("import sys, phaseloss, phaseloss.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
