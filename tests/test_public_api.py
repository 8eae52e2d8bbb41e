"""The README's library example runs, and every exported name exists."""

import os
import re

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
