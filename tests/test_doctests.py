"""The ``>>>`` examples in the module docstrings and in README run as tests."""

import doctest
import importlib
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "name", ["complexes", "filtration", "homology", "manifold", "moves", "search", "stark"]
)
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
