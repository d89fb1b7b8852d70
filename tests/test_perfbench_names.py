"""The functions the benchmark traces by name still exist under those names.

perfbench/run.py reports per-function metrics for the names in its
SEARCH_ENUMERATORS and MONOID_FUNCTIONS tuples and for each literal
row("module.name") its span metrics read; its tracer wraps only
module-level functions (plain or lru_cache-wrapped) of each module and
counts the class methods named in its counted_methods list. A name that a
refactor renames or inlines would silently read 0, so this reads those
names from the script's source and checks each one against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from relmon import monoid, search

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
RUN_TREE = ast.parse(RUN_PY.read_text())
TRACED = {"SEARCH_ENUMERATORS": search, "MONOID_FUNCTIONS": monoid}


def traced_names():
    """(tuple name, function name) for each entry of the traced tuples."""
    out = []
    for node in RUN_TREE.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in TRACED:
                out += [(target.id, name) for name in ast.literal_eval(node.value)]
    return out


def row_names():
    """Each "module.name" that the script passes to row() as a literal."""
    return sorted({
        node.args[0].value
        for node in ast.walk(RUN_TREE)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "row"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    })


def counted_methods():
    """"module.method" -> (module, class, method) for the counted methods."""
    for node in ast.walk(RUN_TREE):
        if isinstance(node, ast.keyword) and node.arg == "counted_methods":
            return {f"{m}.{meth}": (m, cls, meth) for m, cls, meth in ast.literal_eval(node.value)}
    return {}


def is_traced_function(obj, module):
    # the tracer's own test for what it wraps
    return (inspect.isfunction(obj) or hasattr(obj, "cache_clear")) and obj.__module__ == module.__name__


def test_both_tuples_are_read():
    assert {group for group, _ in traced_names()} == set(TRACED)


@pytest.mark.parametrize("group, name", traced_names())
def test_traced_name_is_a_module_level_function(group, name):
    assert is_traced_function(getattr(TRACED[group], name, None), TRACED[group]), name


def test_row_literals_and_counted_methods_are_read():
    names = row_names()
    assert {"rel.is_left_adjoint_rel", "pam.check_pam_axioms"} <= set(names)
    assert set(counted_methods()) == {"pam.defined", "pam.value"} <= set(names)


@pytest.mark.parametrize("name", row_names())
def test_row_name_is_a_traced_function_or_counted_method(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"relmon.{module_name}")
    counted = counted_methods().get(name)
    if counted is None:
        assert is_traced_function(getattr(module, attr, None), module), name
    else:
        _, cls, meth = counted
        assert inspect.isfunction(getattr(getattr(module, cls), meth, None)), name
