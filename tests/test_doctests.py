"""The ``>>>`` examples in the module docstrings and in README run as tests."""

import doctest
import importlib
import pathlib
import pkgutil
import re

import pytest

import plmoves

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def modules_with_examples():
    """Every plmoves module whose docstrings hold a ``>>>`` example, found by
    walking the package, so a new example is never skipped."""
    finder = doctest.DocTestFinder()
    found = []
    for info in pkgutil.iter_modules(plmoves.__path__):
        module = importlib.import_module("plmoves." + info.name)
        if any(test.examples for test in finder.find(module)):
            found.append(info.name)
    return found


EXAMPLES = modules_with_examples()


def test_examples_are_found_in_every_module_that_had_them():
    listed = {
        "_kernel",
        "complexes",
        "filtration",
        "homology",
        "manifold",
        "moves",
        "search",
        "stark",
    }
    assert listed <= set(EXAMPLES), EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_module_examples_pass(name):
    result = doctest.testmod(importlib.import_module("plmoves." + name))
    assert result.attempted and not result.failed, result


def test_readme_examples_pass():
    # doctest.testfile would read each closing fence as expected output, so
    # the fenced python blocks run one by one, sharing their names in order
    text = README.read_text(encoding="utf-8")
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    globs = {}
    blocks = 0
    for block in re.finditer(r"^```python\n(.*?)^```", text, flags=re.M | re.S):
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block.group(1), globs, README.name, str(README), lineno)
        runner.run(test, clear_globs=False)
        globs = test.globs
        blocks += 1
    assert blocks and runner.tries and not runner.failures, (blocks, runner.tries, runner.failures)
