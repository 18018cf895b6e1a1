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

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_current_modules():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = f"import sys; sys.path[:0] = {paths!r}; import tracing; tracing.install(tracing.Tracer()); print('ok')"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def traced_spans(tmp_path, stage: str, argv: list[str]) -> Counter:
    """Span counts by name of `ontoprobe argv` run under perfbench/tracing.py."""
    spans = tmp_path / f"{stage}_spans.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), "--spans", str(spans), "--stage", stage, "--", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    return Counter(span[2] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"])


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    """A simulated 300-concept GO run: <sim>/concepts.csv, model_config.json, occurrences.csv."""
    from ontoprobe.cli import main

    sim = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--size", "300", "--seed", "2", "--out", str(sim)]) == 0
    return sim


def test_traced_probe_records_an_extract_id_span_per_concept(tmp_path, sim):
    probe = ["probe", "--ontology", str(sim / "concepts.csv"), "--model-config", str(sim / "model_config.json")]
    names = traced_spans(tmp_path, "probe", [*probe, "--out", str(tmp_path / "probe")])
    assert names["extraction.extract_id"] == 300 and names["runs.run_probe"] == 1


def test_traced_analyze_records_the_statistics_spans(tmp_path, sim):
    from ontoprobe.cli import main

    table = str(sim / "concepts.csv")
    probe = tmp_path / "probe"
    assert main(["probe", "--ontology", table, "--model-config", str(sim / "model_config.json"), "--out", str(probe)]) == 0
    analyze = ["analyze", "--scored", str(probe / "scored.ndjson"), "--ontology", table]
    analyze += ["--occurrences", str(sim / "occurrences.csv"), "--buckets", "20", "--out", str(tmp_path / "analysis")]
    names = traced_spans(tmp_path, "analyze", analyze)
    assert names["stats.spearman"] == 1 and names["stats.granger_f"] == 1
    assert names["runs.run_analyze"] == 1


def test_traced_invariance_records_extract_id_spans(tmp_path, sim):
    invariance = ["invariance", "--ontology", str(sim / "concepts.csv"), "--model-config", str(sim / "model_config.json")]
    invariance += ["--occurrences", str(sim / "occurrences.csv"), "--buckets", "5", "--k-sample", "2"]
    names = traced_spans(tmp_path, "invariance", [*invariance, "--out", str(tmp_path / "invariance")])
    assert names["extraction.extract_id"] > 0 and names["runs.run_invariance"] == 1
