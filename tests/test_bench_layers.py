"""`bench/run.py --trace 1` patches fibertap functions by the names that
`bench/layers.py` lists in ``LAYERS``, so a renamed function would silently
drop out of the traced pass. Every listed name must resolve in its module.

The list is read from the file's source, so nothing under ``bench/`` is
imported, run or written.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def traced_functions():
    tree = ast.parse(LAYERS_PY.read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    return [(module, name) for module, names in layers.items() for name in names]


@pytest.mark.parametrize("module,name", traced_functions())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"fibertap.{module}"), name))
