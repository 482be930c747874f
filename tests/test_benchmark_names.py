"""The package names the benchmark harness (plmbench/) reaches by name.

The tracer wraps layer functions by (module, attribute) and the derived
properties of ``Complex`` by name, the runner records ``_kernel.BACKEND``,
and the workloads call the package through ``plmoves as P``, ``cli`` and
``plmoves.demos``.  A rename or a deletion would otherwise break only the
harness's own slow tests, so the tracer's tables and the workloads' names
are read here from their files, unedited.
"""

import ast
import importlib
import importlib.util
import pathlib
from functools import cached_property

from plmoves import _kernel
from plmoves.complexes import Complex

PLMBENCH = pathlib.Path(__file__).resolve().parent.parent / "plmbench"
TRACER = PLMBENCH / "tracer.py"
WORKLOADS = PLMBENCH / "workloads.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("plmbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_finds_every_name_it_traces_or_records():
    tracer = load_tracer()
    for _, module, attr, _, _ in tracer.LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for prop in tracer.DERIVED_PROPERTIES:
        assert isinstance(Complex.__dict__.get(prop), cached_property), prop
    assert hasattr(_kernel, "BACKEND")


def plmoves_names(path):
    """(module, name) for each name a file imports from plmoves or reads
    as an attribute of a plmoves module it imported."""
    tree = ast.parse(path.read_text())
    modules = {}  # local name -> plmoves module name
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "plmoves":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "plmoves":
            for alias in node.names:
                submodule = "plmoves." + alias.name
                if node.module == "plmoves" and importlib.util.find_spec(submodule):
                    modules[alias.asname or alias.name] = submodule
                else:
                    names.append((node.module, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            names.append((modules[node.value.id], node.attr))
    return names


def test_the_workloads_find_every_plmoves_name_they_use():
    names = plmoves_names(WORKLOADS)
    # the three ways in are all read: P.<name>, cli.main and the demos
    assert ("plmoves", "random_walk") in names
    assert ("plmoves.cli", "main") in names
    assert ("plmoves.demos", "torus7") in names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), (module, name)
