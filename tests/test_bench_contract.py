"""The library names that the benchmark harness resolves by string or calls.

perfbench/spans.py wraps each of its ENTRY_POINTS in every circleforge module,
perfbench/child.py reads cache_info() off each of its CACHES, and
perfbench/workloads.py calls the library through its module globals; a
refactor that moves or re-signs one of them would crash a benchmark child, so
these checks fail first.  The files are loaded by path and only read.
"""

import ast
import importlib
import importlib.util
import inspect
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


# the workloads' names for the circleforge modules they import
LIBRARY_GLOBALS = ("arcints", "arcs", "moments", "repcount", "scanmod", "sseries")


def _library_uses():
    """Every `<module>.<name>` chain that perfbench/workloads.py reads off its
    circleforge module globals, found by an AST walk of its source, as
    (label, module, dotted name, the ast.Call that calls it or None)."""
    workloads = _load("workloads")
    with open(workloads.__file__) as source:
        tree = ast.parse(source.read())
    nodes = list(ast.walk(tree))
    calls = {id(node.func): node for node in nodes if isinstance(node, ast.Call)}
    # the inner links of a chain: scanmod.PsiSpec within scanmod.PsiSpec.parse
    inner = {id(node.value) for node in nodes if isinstance(node, ast.Attribute)}
    uses = []
    for node in nodes:
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts, root = [], node
        while isinstance(root, ast.Attribute):
            parts.insert(0, root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id in LIBRARY_GLOBALS:
            name = ".".join(parts)
            uses.append((f"{node.lineno}:{root.id}.{name}", getattr(workloads, root.id), name,
                         calls.get(id(node))))
    return uses


USES = _library_uses()


@pytest.mark.parametrize("module, name, call", [use[1:] for use in USES],
                         ids=[use[0] for use in USES])
def test_workload_use_resolves_and_binds(module, name, call):
    # a renamed entry or a changed signature fails here, not as a run_failed
    # verdict of the benchmark
    target = module
    for part in name.split("."):
        target = getattr(target, part)
    if call is not None:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(keyword.arg for keyword in call.keywords)
        inspect.signature(target).bind(*call.args, **{k.arg: k.value for k in call.keywords})
