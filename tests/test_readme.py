"""The README's Library and Simulator examples run as written."""

import json
import os
import re

from pmrc.cli import EXIT_OK, main

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


def test_simulator_scenario_runs(tmp_path, capsys):
    with open(README, encoding="utf-8") as fp:
        text = fp.read()
    section = text.split("\n## Simulator\n", 1)[1].split("\n## ", 1)[0]
    (scenario,) = re.findall(r"```json\n(.*?)```", section, re.S)
    path = tmp_path / "scenario.json"
    path.write_text(scenario)
    assert main(["simulate", str(path)]) == EXIT_OK
    *events, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert [e["outcome"] for e in events] == ["success"] * 3
    assert summary["summary"]["downloaded_total"] == 88
