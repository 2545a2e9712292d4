"""The structure's own facts are read from the structure, never passed in.

A ``ParacontactStructure`` takes its Ricci mode once and caches whether it is
para-Sasakian, its torse-forming data and its Einstein-like fit, so no soliton
function takes the mode, the para-Sasakian fact or the torse data as a
parameter, and only ``einstein_like_suite`` takes constants (hypothetical ones
pin a branch no manifest reaches).  Only ``ricci`` and ``ricci_xi`` keep a
``mode`` override for the rows that use the weighted trace on purpose, and
``Analysis`` keeps no copy of the fit or the torse data.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "parasol"

STRUCTURE_MODE_OVERRIDES = {"__init__", "ricci", "ricci_xi"}
MODE_PARAMETERS = ("mode", "para_sasakian")


def _parameters(function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = function.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def _functions(node: ast.AST):
    return (
        sub for sub in ast.walk(node) if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
    )


def _class(tree: ast.Module, name: str) -> ast.ClassDef | None:
    return next((n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name), None)


def named_parameters(source: str, names) -> list[str]:
    """Every function of a module that takes one of ``names``, as 'function(parameter)'."""
    return [
        "%s(%s)" % (function.name, name)
        for function in _functions(ast.parse(source))
        for name in _parameters(function)
        if name in names
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
    assert named_parameters(source, MODE_PARAMETERS) == [
        "suite(mode)", "_link(para_sasakian)", "__init__(mode)", "ricci(mode)",
        "soliton_tensor(mode)",
    ]
    assert named_parameters(source, ("constants", "ricci_mode")) == [
        "suite(constants)", "fine(ricci_mode)"
    ]
    assert structure_mode_parameters(source) == ["soliton_tensor"]
    assert defines_attribute(source, "Analysis", "ricci_mode")
    assert defines_attribute(source, "Report", "ricci_mode")
    assert not defines_attribute(source, "ParacontactStructure", "ricci_mode")
    assert not defines_attribute("def ricci_mode():\n    pass\n", "Analysis", "ricci_mode")


def test_soliton_functions_take_neither_mode_nor_para_sasakian():
    assert named_parameters((SRC / "solitons.py").read_text(encoding="utf-8"), MODE_PARAMETERS) == []


def test_soliton_suites_read_the_torse_data_and_the_fit_from_the_structure():
    public = [
        found
        for found in named_parameters(
            (SRC / "solitons.py").read_text(encoding="utf-8"), ("torse", "a_plus_lambda", "constants")
        )
        if not found.startswith("_")
    ]
    assert public == ["einstein_like_suite(constants)"]


def test_only_ricci_and_ricci_xi_override_the_structure_mode():
    assert structure_mode_parameters((SRC / "paracontact.py").read_text(encoding="utf-8")) == []


def test_analysis_reads_the_ricci_mode_from_its_structure():
    source = (SRC / "analysis.py").read_text(encoding="utf-8")
    assert not defines_attribute(source, "Analysis", "ricci_mode")


def test_analysis_keeps_no_fit_or_torse_data():
    source = (SRC / "analysis.py").read_text(encoding="utf-8")
    assert defines_attribute(source, "Analysis", "potential")
    for attribute in ("fit", "fit_constants", "torse"):
        assert not defines_attribute(source, "Analysis", attribute), attribute
