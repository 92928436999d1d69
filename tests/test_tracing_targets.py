"""The benchmark tracer's targets resolve against the package.

``bench/tracing.py`` wraps each of its ``TARGETS`` by name, a class method
through the class's own ``__dict__``; a target the package no longer has
breaks the traced benchmark run, so it fails here first.  The tracer module
is only imported, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attribute", [t[:2] for t in tracer_targets()],
                         ids=lambda value: value)
def test_target_resolves(module_name, attribute):
    module = importlib.import_module(f"brokenrct.{module_name}")
    if "." in attribute:
        cls_name, method = attribute.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attribute))
