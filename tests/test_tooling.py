import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def patch_points() -> tuple:
    """PATCH_POINTS of perfbench/tracing.py, read from its source without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCH_POINTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no PATCH_POINTS")


def test_every_tracer_patch_point_resolves():
    points = patch_points()
    assert points
    missing = [(module, attr) for module, attr, _ in points
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
