"""Every name a module of the package imports, or defines as private, is used in that module."""

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


def unreferenced_private_names(source: str) -> list[str]:
    """Single-underscore module-level functions, classes and assignments, and
    single-underscore class methods, that nothing in the module refers to."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for sub in (sub for target in targets for sub in ast.walk(target)):
                if isinstance(sub, ast.Name):
                    defined[sub.id] = node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined[item.name] = item.lineno
    used = {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(tree)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    }
    return [
        "%s (line %d)" % (name, line)
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]


def test_detector_finds_an_unreferenced_private_name():
    source = (
        "_USED, _SPARE = 1, 2\n"
        "def _dead():\n    return _USED\n"
        "class _Kept:\n    def _helper(self):\n        return 0\n"
        "    def __repr__(self):\n        return ''\n"
        "def public():\n    return _Kept\n"
    )
    assert unreferenced_private_names(source) == [
        "_SPARE (line 1)", "_dead (line 2)", "_helper (line 5)"
    ]


def test_package_modules_refer_to_every_private_name():
    found = {
        path.name: unreferenced
        for path in sorted(SRC.glob("*.py"))
        if (unreferenced := unreferenced_private_names(path.read_text(encoding="utf-8")))
    }
    assert found == {}
