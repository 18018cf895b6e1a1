"""Which lines of `src/ontoprobe` does the tier-1 suite never reach?

    python tools/reach.py [--write] [pytest arguments...]

Run from anywhere; the suite runs from the repository root. It runs the
tier-1 suite in this process under `sys.settrace` and `threading.settrace`,
limited to code in `src/ontoprobe`, and lists every line of function code
that no test reached, as `file:line  text`. Module bodies, class bodies and
the comprehensions inside them run at import, before the tracer starts, and
are not counted.

The list is compared with `tests/data/unreached.txt` by file and text, so a
line that only moved is not new. The script exits 1 on a line new to that
list, or on a test that fails under the tracer other than the known cases
below; `--write` rewrites the list instead. Functions that only run in
another process (the forked statistics worker, the console entry point) are
reported apart and left out of the list.

Standard library only, beside pytest itself. The traced suite takes about
twice as long as tier-1 untraced.
"""

from __future__ import annotations

import argparse
import collections
import inspect
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "ontoprobe"
UNREACHED = ROOT / "tests" / "data" / "unreached.txt"
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]

# (module file, qualified name) of the functions that run only in a child
# process, where this process's tracer cannot see them.
OTHER_PROCESS = {("stats.py", "_serve"), ("cli.py", "entrypoint")}
# A stage case asserts that no collection starts while the stage runs; under
# a tracer one generation-0 collection does. Untraced, they pass.
TRACER_FAILURES = {
    f"tests/test_cli.py::TestCollectorPause::test_stage_runs_with_the_collector_paused[{stage}]"
    for stage in ("simulate", "ingest", "probe", "analyze", "invariance", "report")
}
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def function_lines(code: types.CodeType, at_import: bool = True):
    """(code object, its lines) for every code object nested in `code` that
    does not run at import: not a class body, and not a comprehension of a
    module or class body."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            runs_at_import = not const.co_flags & inspect.CO_OPTIMIZED or (at_import and const.co_name in COMPREHENSIONS)
            if not runs_at_import:
                yield const, {line for _start, _end, line in const.co_lines() if line is not None}
            yield from function_lines(const, runs_at_import)


def executable_lines() -> dict[tuple[str, int], bool]:
    """Each (file name, line) of function code in the package, mapped to
    whether only another process runs it."""
    lines: dict[tuple[str, int], bool] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for code, numbers in function_lines(module):
            other = (path.name, getattr(code, "co_qualname", code.co_name)) in OTHER_PROCESS
            for number in numbers:
                lines[path.name, number] = lines.get((path.name, number), False) or other
    return lines


def traced_run(pytest_args: list[str]) -> tuple[set[tuple[str, int]], int, list[str]]:
    """Run pytest under the tracer: the (file name, line) pairs reached in
    the package, pytest's exit code and the node IDs that failed."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    reached: set[tuple[str, int]] = set()
    inside: dict[types.CodeType, str | None] = {}

    def local(frame, event, _arg):
        if event == "line":
            reached.add((inside[frame.f_code], frame.f_lineno))
        return local

    def on_call(frame, _event, _arg):
        code = frame.f_code
        if code not in inside:
            # A module or class body would mark the `def` lines it runs as reached.
            counted = code.co_filename.startswith(prefix) and code.co_flags & inspect.CO_OPTIMIZED
            inside[code] = Path(code.co_filename).name if counted else None
        if inside[code] is None:
            return None
        reached.add((inside[code], frame.f_lineno))
        return local

    class Failures:
        def __init__(self):
            self.ids: list[str] = []

        def pytest_runtest_logreport(self, report):
            if report.failed:
                self.ids.append(report.nodeid)

    failures = Failures()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args, plugins=[failures])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached, int(code), failures.ids


def entry(name: str, number: int, sources: dict[str, list[str]]) -> str:
    return f"{name}:{number}  {sources[name][number - 1].strip()}"


def key(line: str) -> tuple[str, str]:
    """(file, text) of a `file:line  text` entry: a line that moved keeps its key."""
    place, _, text = line.partition("  ")
    return place.split(":")[0], text


def show(title: str, lines: list[str]) -> None:
    print(title)
    for line in lines:
        print(f"  {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {UNREACHED.relative_to(ROOT)}")
    args, pytest_args = parser.parse_known_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    lines = executable_lines()
    reached, code, failed = traced_run(pytest_args or TIER1)

    sources = {path.name: path.read_text(encoding="utf-8").splitlines() for path in PACKAGE.glob("*.py")}
    unreached = sorted(place for place in lines if place not in reached)
    other = [entry(*place, sources) for place in unreached if lines[place]]
    listed = [entry(*place, sources) for place in unreached if not lines[place]]
    print(f"\n{len(lines)} lines of function code, {len(lines) - len(unreached)} reached in this process")
    show(f"{len(other)} run only in another process ({', '.join(sorted(q for _f, q in OTHER_PROCESS))}):", other)
    show(f"{len(listed)} unreached by any test:", listed)

    expected = [f for f in failed if f in TRACER_FAILURES]
    unexpected = [f for f in failed if f not in TRACER_FAILURES]
    show(f"pytest exit code {code}; {len(expected)} known failures under the tracer:", expected)
    if unexpected:
        show(f"{len(unexpected)} other failures under the tracer:", unexpected)

    if args.write:
        UNREACHED.write_text("".join(f"{line}\n" for line in listed), encoding="utf-8")
        print(f"wrote {UNREACHED.relative_to(ROOT)}")
        return 1 if unexpected else 0
    committed = collections.Counter(map(key, UNREACHED.read_text(encoding="utf-8").splitlines()))
    gone = sorted((committed - collections.Counter(map(key, listed))).elements())
    new = []
    for line in listed:
        if committed[key(line)]:
            committed[key(line)] -= 1
        else:
            new.append(line)
    if gone:
        show(f"{len(gone)} listed lines are now reached or gone; drop them from the list:", [f"{f}  {t}" for f, t in gone])
    if new:
        show(f"{len(new)} lines are new to {UNREACHED.relative_to(ROOT)}:", new)
    return 1 if new or unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main())
