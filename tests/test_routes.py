"""The two routes share no logic: the oracle never imports the closed forms, and they never import it.

The oracle is two modules: `oracle`, the all-shift scan and its certificate,
and `runs`, the one-shift measures that `index --verify` loads alone and
whose gallop the scan imports. Each is pinned on its own. The closure route
(`directive`), which the oracle's certificate and the battery compare with the
blocks, is pinned apart from the block recurrence and the closed forms: they
share only the directive spec (`spec`).

Imports are read from the source with `ast`, the lazy ones inside functions
included, and followed through the package, so an indirect import through a
shared module counts too. The same reading keeps numpy out of the package.
"""

import ast
from pathlib import Path

import pytest

import episturm

PACKAGE = Path(episturm.__file__).parent
CLOSED_FORMS = ("powers", "singular", "partition")


def direct_imports(module: str) -> set[str]:
    """The package modules `module` imports by name, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative imports stay inside the package
                base = f"episturm.{base}" if base else "episturm"
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("episturm.")}
    return {name for name in found if (PACKAGE / f"{name}.py").exists()}


def reachable(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        for name in direct_imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_the_oracle_reaches_no_closed_form():
    assert reachable("oracle") & set(CLOSED_FORMS) == set()
    assert {"blocks", "directive", "runs", "words"} <= reachable("oracle")


def test_the_one_shift_oracle_reaches_no_closed_form():
    # nor the block recurrence or the scan: it reads only the letters it is handed
    assert direct_imports("runs") == {"errors", "words"}
    assert reachable("runs") & {*CLOSED_FORMS, "blocks", "oracle"} == set()


@pytest.mark.parametrize("module", CLOSED_FORMS)
def test_no_closed_form_reaches_the_oracle(module):
    assert {"oracle", "runs"} & reachable(module) == set()
    assert "blocks" in reachable(module)


@pytest.mark.parametrize("module", (*CLOSED_FORMS, "blocks"))
def test_no_closed_form_reaches_the_closure(module):
    assert "directive" not in reachable(module)
    assert "spec" in reachable(module)


def test_the_closure_reaches_no_closed_form():
    assert reachable("directive") & {*CLOSED_FORMS, "blocks"} == set()
    assert reachable("directive") == {"errors", "spec", "words"}


def numpy_imports(tree: ast.AST) -> list[int]:
    """Lines under `tree` that import numpy, lazily or not."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
    ]


@pytest.mark.parametrize("name", sorted(str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py")))
def test_no_module_imports_numpy(name):
    assert numpy_imports(ast.parse((PACKAGE / name).read_text())) == []
