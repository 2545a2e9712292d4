"""Every layer that the benchmark's tracer wraps by name is still there under that name.

``perfbench/tracing.py`` finds the functions it times by module and
attribute name, and a renamed one is silently left untimed.  Its span table
is read from the source, not imported, and each name is resolved here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _span_table() -> list[tuple[str, str, str]]:
    """The ``LAYERS`` table of ``perfbench/tracing.py``: (span name, module, attribute) rows."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS table in %s" % TRACING)


@pytest.mark.parametrize(
    "span, module, attribute", [pytest.param(*row, id=row[0]) for row in _span_table()]
)
def test_every_traced_layer_resolves_in_parasol(span, module, attribute):
    assert module == "parasol" or module.startswith("parasol.")
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        assert hasattr(owner, part), "%s: %s has no %s" % (span, module, attribute)
        owner = getattr(owner, part)
    assert callable(owner)
