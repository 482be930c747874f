"""The package names the benchmark harness (plmbench/) reaches by name.

The tracer wraps layer functions by (module, attribute) and the derived
properties of ``Complex`` by name, and the runner records
``_kernel.BACKEND``.  A rename would otherwise break only the harness's own
slow tests, so the tracer's tables are read here from its file, unedited.
"""

import importlib
import importlib.util
import pathlib
from functools import cached_property

from plmoves import _kernel
from plmoves.complexes import Complex

TRACER = pathlib.Path(__file__).resolve().parent.parent / "plmbench" / "tracer.py"


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
