"""The ``>>>`` examples in the module docstrings run as tests."""

import doctest
import importlib

import pytest


@pytest.mark.parametrize("name", ["complexes", "homology", "manifold"])
def test_module_examples_pass(name):
    result = doctest.testmod(importlib.import_module("plmoves." + name))
    assert result.attempted and not result.failed, result
