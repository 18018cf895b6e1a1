"""README.md's quickstart runs as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from ontoprobe.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> tuple[list[list[str]], set[str]]:
    """The `ontoprobe` command lines of the first fenced block of the
    Quickstart section, as argument lists, and the run files the section
    names: every `runs/...` path with a suffix, and each file listed in
    parentheses after a `runs/<dir>/` directory."""
    section = README.read_text(encoding="utf-8").split("\n## Quickstart", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ontoprobe ")]
    files = set(re.findall(r"runs/[\w/]+\.\w+", section))
    for directory, listed in re.findall(r"`(runs/[\w/]+/)`[^(`]*\(([^)]*)\)", section):
        files.update(directory + name for name in re.findall(r"`([^`]+)`", listed))
    return commands, files


def test_quickstart_runs_as_written(tmp_path, monkeypatch):
    commands, files = quickstart()
    assert [argv[0] for argv in commands] == ["simulate", "probe", "analyze", "invariance", "report"]
    assert {"runs/analysis/analysis.json", "runs/report/bucket_table.csv", "runs/report/summary.csv"} <= files
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    assert sorted(name for name in files if not (tmp_path / name).is_file()) == []
