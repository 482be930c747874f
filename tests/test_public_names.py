"""The public surface of ``plmoves`` is the list in README's API section.

A name added to or removed from the package without the same edit to that
list fails here, and so does a name listed under a module that does not
define it.
"""

import importlib
import pathlib
import re
import types

import plmoves

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_api():
    """{module: [names]} from the bullets of README's API section."""
    section = re.search(r"^## API\n(.*?)^## ", README.read_text(), re.M | re.S).group(1)
    bullets = re.findall(r"^- `(\w+)`: (.*?)(?=^- |^\n|\Z)", section, re.M | re.S)
    return {module: re.findall(r"`(\w+)`", body) for module, body in bullets}


def public_names():
    """The names of ``plmoves`` without a leading underscore, less its
    submodules."""
    return {
        name
        for name, value in vars(plmoves).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_readme_lists_every_public_name_once():
    listed = [name for names in readme_api().values() for name in names]
    assert len(listed) == len(set(listed))
    assert set(listed) == public_names()


def test_readme_groups_each_name_under_the_module_that_defines_it():
    for module, names in readme_api().items():
        source = importlib.import_module("plmoves." + module)
        for name in names:
            assert getattr(source, name, None) is getattr(plmoves, name), (module, name)
