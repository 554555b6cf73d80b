"""The benchmark's tracer wraps minitri functions by name; they must exist.

``perfbench/tracer.py`` lists its targets in ``TARGETS`` as
``{module: {attribute: counter}}``, where ``"SimplicialComplex.x"`` names
a method.  The file is parsed, not imported, so this test reads only the
names.  Deleting or renaming a traced function fails here instead of in
a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [
                (module.value, attr.value)
                for module, attrs in zip(node.value.keys, node.value.values)
                for attr in attrs.keys
            ]
    raise AssertionError("no TARGETS assignment in perfbench/tracer.py")


def test_tracer_targets_exist():
    names = _traced_names()
    assert names
    missing = []
    for module_name, attr in names:
        module = importlib.import_module(f"minitri.{module_name}")
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not callable(vars(owner).get(fn_name)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
