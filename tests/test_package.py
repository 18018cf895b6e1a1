"""The package root exports exactly what it imports, so removing a name
from a module cannot leave a dangling export behind."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import ontoprobe

INIT = Path(ontoprobe.__file__)


def test_every_exported_name_resolves():
    assert len(set(ontoprobe.__all__)) == len(ontoprobe.__all__)
    assert [name for name in ontoprobe.__all__ if not hasattr(ontoprobe, name)] == []


def test_star_import_in_a_fresh_interpreter():
    code = "from ontoprobe import *; import ontoprobe; assert all(n in globals() for n in ontoprobe.__all__)"
    env = {**os.environ, "PYTHONPATH": str(INIT.parent.parent)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


def test_every_public_import_is_exported():
    imported = {
        alias.asname or alias.name
        for node in ast.parse(INIT.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(ontoprobe.__all__)) == []
