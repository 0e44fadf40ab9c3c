"""The benchmark's tracer (`perfbench/tracing.py`) wraps functions by
module and attribute name. A target that no longer resolves is skipped
at run time and its per-layer metric silently goes blank, so every name
must resolve here. The names are read from the tracer's source and only
looked up: nothing is imported from `perfbench/` or patched."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_targets():
    """(module, attribute) of each entry of the tracer's WRAPS table."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPS"]:
            return [(module, attribute) for module, attribute, *_ in ast.literal_eval(node.value)]
    raise AssertionError(f"{TRACING} defines no WRAPS table")


@pytest.mark.parametrize("module, attribute", wrapped_targets())
def test_traced_name_resolves(module, attribute):
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
