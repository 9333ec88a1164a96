"""The benchmark's tracer (perfbench/tracer.py) patches operators and
functions by name; a rename or deletion in the package must fail here."""

import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

from tracer import TARGETS  # noqa: E402


def test_every_traced_target_resolves():
    for _, modname, attr, _, _ in TARGETS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer patches the method found in the class's own dict
            assert meth in vars(getattr(mod, cls_name)), attr
        else:
            assert callable(getattr(mod, attr, None)), attr
