"""The top-level export list mirrors the modules' own export lists, and
no module reaches into another's private names."""

import ast
import importlib
from pathlib import Path

import walshlab

MODULES = ("dyadic", "errors", "transform", "weights", "norms", "counterexample", "kernel_checks")


def test_exports_are_the_union_of_module_exports():
    union = set()
    for name in MODULES:
        union |= set(importlib.import_module(f"walshlab.{name}").__all__)
    assert set(walshlab.__all__) == union
    assert len(walshlab.__all__) == len(set(walshlab.__all__))
    for name in walshlab.__all__:
        assert hasattr(walshlab, name), name


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("walshlab"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{path.name}:{node.lineno} imports {name}")
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    package = Path(walshlab.__file__).resolve().parent
    found = [hit for path in sorted(package.glob("*.py")) for hit in _private_imports(path)]
    assert found == []
