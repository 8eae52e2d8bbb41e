"""The README's library example runs, and every exported name exists and
resolves, on first read, to the object its module defines."""

import importlib
import os
import re

import pytest

import lmgsum

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_block_runs():
    with open(README, encoding="utf-8") as f:
        blocks = re.findall(r"^```python\n(.*?)^```", f.read(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in lmgsum.__all__ if not hasattr(lmgsum, name)]
    assert missing == []


def test_dir_lists_every_exported_name():
    assert set(lmgsum.__all__) <= set(dir(lmgsum))


def test_star_import_binds_each_name_to_its_module_object():
    namespace: dict = {}
    exec("from lmgsum import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lmgsum.__all__)
    for name in lmgsum.__all__:
        module = importlib.import_module(f"lmgsum.{lmgsum._EXPORTS[name]}")
        assert namespace[name] is getattr(module, name), name


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'lmgsum' has no attribute 'no_such_name'$"):
        lmgsum.no_such_name
    assert not hasattr(lmgsum, "summary_to_dict")
