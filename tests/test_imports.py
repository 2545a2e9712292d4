"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "parasol"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names in an annotation, including one written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Imported names that the module neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used |= {elt.value for elt in node.value.elts}
    return ["%s (line %d)" % (name, line) for name, line in imported.items() if name not in used]


def test_detector_finds_an_unused_import():
    source = "from typing import Callable, Sequence\nimport os.path\n\ndef f(x: 'Sequence'):\n    return x\n"
    assert unused_imports(source) == ["Callable (line 1)", "os (line 2)"]


def test_package_modules_import_only_what_they_use():
    # __init__.py exists to re-export, so it is the one module left out
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
