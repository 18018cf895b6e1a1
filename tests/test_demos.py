"""The scripts under demos/ run to completion and print their last line."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script, args, last_line",
    [
        ("gateway_scoring.py", [], "unique predictions: 3, invented among them: 66.7%"),
        ("parse_and_bucket.py", [], "bucket 3: mean count 59000.0, members ['GO:0001822', 'GO:0051302']"),
        ("synthetic_pipeline.py", ["--size", "300", "--buckets", "10", "--out", "{out}"], "tables written to {out}/report"),
    ],
)
def test_demo_runs(tmp_path, script, args, last_line):
    argv = [sys.executable, str(DEMOS / script), *(arg.format(out=tmp_path) for arg in args)]
    result = subprocess.run(argv, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == last_line.format(out=tmp_path)
