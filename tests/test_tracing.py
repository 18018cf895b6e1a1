"""perfbench/tracing.py times a stage by rebinding names on the ontoprobe
modules; every name it rebinds must still exist there, and a traced stage
must still record the spans of what it calls."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_current_modules():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = f"import sys; sys.path[:0] = {paths!r}; import tracing; tracing.install(tracing.Tracer()); print('ok')"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_traced_analyze_records_the_statistics_spans(tmp_path):
    from ontoprobe.cli import main

    sim = tmp_path / "sim"
    assert main(["simulate", "--size", "300", "--seed", "2", "--out", str(sim)]) == 0
    table = str(sim / "concepts.csv")
    probe = tmp_path / "probe"
    assert main(["probe", "--ontology", table, "--model-config", str(sim / "model_config.json"), "--out", str(probe)]) == 0
    spans = tmp_path / "spans.json"
    analyze = ["analyze", "--scored", str(probe / "scored.ndjson"), "--ontology", table]
    analyze += ["--occurrences", str(sim / "occurrences.csv"), "--buckets", "20", "--out", str(tmp_path / "analysis")]
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), "--spans", str(spans), "--stage", "analyze", "--", *analyze],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    names = Counter(span[2] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"])
    assert names["stats.spearman"] == 1 and names["stats.granger_f"] == 1
    assert names["runs.run_analyze"] == 1
