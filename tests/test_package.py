"""The top-level export list mirrors the modules' own export lists."""

import importlib

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
