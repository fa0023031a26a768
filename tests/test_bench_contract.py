"""The library names that the benchmark harness resolves by string.

perfbench/spans.py wraps each of its ENTRY_POINTS in every circleforge module,
and perfbench/child.py reads cache_info() off each of its CACHES; a refactor
that moves one of them would crash a traced benchmark child, so these checks
fail first.  Both files are loaded by path and only read.
"""

import importlib
import importlib.util
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer, name", [entry[:2] for entry in _load("spans").ENTRY_POINTS])
def test_entry_point_resolves(layer, name):
    # importlib, not attribute access: circleforge.scan is also a function
    assert callable(getattr(importlib.import_module(f"circleforge.{layer}"), name))


@pytest.mark.parametrize("label, module, attr", _load("child").CACHES)
def test_cache_has_cache_info(label, module, attr):
    info = getattr(importlib.import_module(module), attr).cache_info()
    assert info.hits >= 0 and info.misses >= 0, label
