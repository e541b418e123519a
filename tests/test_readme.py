"""The README's Library examples run as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_snippets_run():
    with open(README, encoding="utf-8") as fp:
        text = fp.read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for code in blocks:  # in order: later blocks use names the earlier define
        exec(compile(code, "README.md", "exec"), namespace)
