"""Every top-level import of src/, tests/ and scripts/ is read by its module.

A static scan with ast: a name bound by a module-level import, or by an
import inside a module-level `if` block such as `if TYPE_CHECKING:`, must
appear as a name somewhere in the module or in a string annotation.  An
import marked `# noqa: F401` is kept on purpose.  perfbench/ is not scanned.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def _imports(body):
    """Module-level import statements, those in module-level `if` blocks included."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _imports(node.body + node.orelse)


def _read_names(tree) -> set:
    """Every name the module reads: Name nodes and names in string annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for a in annotations:
        for c in ast.walk(a) if a is not None else ():
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                names |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    """The names bound by top-level imports of `source` that it never reads."""
    tree, lines = ast.parse(source), source.splitlines()
    read = _read_names(tree)
    unused = []
    for node in _imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"line {node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "import os\nimport numpy as np\nfrom typing import TYPE_CHECKING\n"
        "import json  # noqa: F401\n"
        "if TYPE_CHECKING:\n    from x import Spec, Other\n"
        "def f(a: 'Spec'):\n    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 6: Other"]
