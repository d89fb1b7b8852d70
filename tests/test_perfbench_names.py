"""The functions the benchmark traces by name still exist under those names.

perfbench/run.py reports per-function metrics for the names in its
SEARCH_ENUMERATORS and MONOID_FUNCTIONS tuples; its tracer wraps only
module-level functions (plain or lru_cache-wrapped) of each module. A name
that a refactor renames or inlines would silently read 0, so this reads the
two tuples from the script's source and checks each name against the module.
"""

import ast
import inspect
from pathlib import Path

import pytest

from relmon import monoid, search

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
TRACED = {"SEARCH_ENUMERATORS": search, "MONOID_FUNCTIONS": monoid}


def traced_names():
    """(tuple name, function name) for each entry of the traced tuples."""
    out = []
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in TRACED:
                out += [(target.id, name) for name in ast.literal_eval(node.value)]
    return out


def test_both_tuples_are_read():
    assert {group for group, _ in traced_names()} == set(TRACED)


@pytest.mark.parametrize("group, name", traced_names())
def test_traced_name_is_a_module_level_function(group, name):
    module = TRACED[group]
    obj = getattr(module, name, None)
    # the tracer's own test for what it wraps
    assert inspect.isfunction(obj) or hasattr(obj, "cache_clear"), name
    assert obj.__module__ == module.__name__, name
