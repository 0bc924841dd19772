"""The names perfbench looks up in flagricci, pinned.

perfbench wraps functions by name when it traces a run, so a rename in the
package breaks `perfbench/run.py --trace 1` and nothing else. Its tables
are read here from the source of perfbench/spans.py and perfbench/workloads.py
as data, with ast; neither file is imported or run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from flagricci import cli, flow, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_tree(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _constant(tree, name):
    """The literal that tree assigns to the module-level name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no module-level %s" % name)


SPANS = _module_tree("spans.py")
SPANNED = _constant(SPANS, "SPANNED")


@pytest.mark.parametrize("layer", sorted(SPANNED))
def test_every_spanned_name_exists_on_its_layer(layer):
    module = importlib.import_module("flagricci." + layer)
    missing = [name for name in SPANNED[layer] if not hasattr(module, name)]
    assert missing == []


def test_find_equilibria_takes_the_grid_n_that_grid_seeds_binds():
    (fn,) = [
        node
        for node in SPANS.body
        if isinstance(node, ast.FunctionDef) and node.name == "_grid_seeds"
    ]
    keys = {
        node.slice.value
        for node in ast.walk(fn)
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
    }
    assert "grid_n" in keys
    assert "grid_n" in inspect.signature(flow.find_equilibria).parameters


def test_cli_holds_what_the_workloads_patch():
    assert callable(cli.atomic_write)
    assert cli.verify_mod is verify
    # the cli workload probes verify's integrations through verify.flow
    assert verify.flow.integrate is flow.integrate


def test_verify_checks_are_the_ones_perfbench_names():
    names = tuple(fn.__name__ for _, fn in verify.ALL_CHECKS)
    assert names == _constant(SPANS, "VERIFY_CHECKS")
    assert len(names) == _constant(_module_tree("workloads.py"), "VERIFY_LINES") == 20
