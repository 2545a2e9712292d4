"""The Ricci mode and the para-Sasakian fact are read from the structure, never passed in.

A ``ParacontactStructure`` takes its Ricci mode once and caches whether it is
para-Sasakian, so no soliton function takes either as a parameter; only
``ricci`` and ``ricci_xi`` keep a ``mode`` override for the rows that use the
weighted trace on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "parasol"

STRUCTURE_MODE_OVERRIDES = {"__init__", "ricci", "ricci_xi"}


def _parameters(function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = function.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def _functions(node: ast.AST):
    return (
        sub for sub in ast.walk(node) if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
    )


def _class(tree: ast.Module, name: str) -> ast.ClassDef | None:
    return next((n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name), None)


def mode_parameters(source: str) -> list[str]:
    """Every function of a module that takes ``mode`` or ``para_sasakian``, as 'function(parameter)'."""
    return [
        "%s(%s)" % (function.name, name)
        for function in _functions(ast.parse(source))
        for name in _parameters(function)
        if name in ("mode", "para_sasakian")
    ]


def structure_mode_parameters(source: str) -> list[str]:
    """Methods of ``ParacontactStructure`` outside the allowed overrides that take ``mode``."""
    cls = _class(ast.parse(source), "ParacontactStructure")
    return [
        function.name
        for function in _functions(cls) if cls is not None
        if function.name not in STRUCTURE_MODE_OVERRIDES and "mode" in _parameters(function)
    ]


def defines_attribute(source: str, class_name: str, attribute: str) -> bool:
    """Whether the class defines ``attribute`` as a method, a class attribute or on ``self``."""
    cls = _class(ast.parse(source), class_name)
    if cls is None:
        return False
    for node in ast.walk(cls):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == attribute:
            return True
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr == attribute
        ):
            return True
    class_targets = (
        target
        for node in cls.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    )
    return any(isinstance(t, ast.Name) and t.id == attribute for t in class_targets)


def test_detectors_find_mode_parameters_and_attributes():
    source = (
        "def suite(structure, constants, mode='weighted_trace'):\n    pass\n"
        "def _link(structure, *, para_sasakian=False):\n    pass\n"
        "def fine(structure, ricci_mode=None):\n    pass\n"
        "class ParacontactStructure:\n"
        "    def __init__(self, mode=None):\n        pass\n"
        "    def ricci(self, mode=None):\n        pass\n"
        "    def soliton_tensor(self, direction, mode=None):\n        pass\n"
        "class Analysis:\n"
        "    def __init__(self, manifest):\n        self.ricci_mode = manifest.ricci_mode\n"
        "class Report:\n    ricci_mode: str\n"
    )
    assert mode_parameters(source) == [
        "suite(mode)", "_link(para_sasakian)", "__init__(mode)", "ricci(mode)",
        "soliton_tensor(mode)",
    ]
    assert structure_mode_parameters(source) == ["soliton_tensor"]
    assert defines_attribute(source, "Analysis", "ricci_mode")
    assert defines_attribute(source, "Report", "ricci_mode")
    assert not defines_attribute(source, "ParacontactStructure", "ricci_mode")
    assert not defines_attribute("def ricci_mode():\n    pass\n", "Analysis", "ricci_mode")


def test_soliton_functions_take_neither_mode_nor_para_sasakian():
    assert mode_parameters((SRC / "solitons.py").read_text(encoding="utf-8")) == []


def test_only_ricci_and_ricci_xi_override_the_structure_mode():
    assert structure_mode_parameters((SRC / "paracontact.py").read_text(encoding="utf-8")) == []


def test_analysis_reads_the_ricci_mode_from_its_structure():
    source = (SRC / "analysis.py").read_text(encoding="utf-8")
    assert not defines_attribute(source, "Analysis", "ricci_mode")
