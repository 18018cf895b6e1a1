"""README.md's quickstart runs as written, and it names every option of
every stage and no option a stage lacks."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

from ontoprobe.cli import build_parser, main

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


def parser_flags() -> dict[str, set[str]]:
    """The `--flag`s of each subcommand's parser, `--help` aside."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {flag for action in parser._actions for flag in action.option_strings if flag.startswith("--")} - {"--help"}
        for name, parser in subparsers.choices.items()
    }


def named_flags() -> list[tuple[str, str]]:
    """(subcommand, flag) for each `--flag` on an `ontoprobe` command line of
    any fenced block and on each stage's line of the Stage options section."""
    text = README.read_text(encoding="utf-8")
    named = []
    for block in text.split("```")[1::2]:
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("ontoprobe "):
                argv = shlex.split(line)
                named += [(argv[1], arg) for arg in argv[2:] if arg.startswith("--")]
    section = text.partition("\n## Stage options\n")[2].split("\n## ", 1)[0]
    for stage, line in re.findall(r"^- `(\w+)`: (.*)$", section, flags=re.M):
        named += [(stage, flag) for flag in re.findall(r"`(--[\w-]+)`", line)]
    return named


def test_every_flag_of_every_stage_is_in_the_readme():
    text = README.read_text(encoding="utf-8")
    missing = [
        (stage, flag)
        for stage, flags in parser_flags().items()
        for flag in sorted(flags)
        if not re.search(rf"(?<![\w-]){flag}(?![\w-])", text)
    ]
    assert missing == []


def test_every_flag_the_readme_gives_a_stage_exists():
    flags = parser_flags()
    named = named_flags()
    assert {stage for stage, _flag in named} == set(flags)
    assert [(stage, flag) for stage, flag in named if flag not in flags[stage]] == []
