"""Exit codes and the full subcommand pipeline."""

from __future__ import annotations

import argparse
import ast
import contextlib
import gc
import inspect
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import live_children, make_ontology
from ontoprobe import cli
from ontoprobe.cli import build_parser, main
from test_runs import write_corpus


def run_cli(*argv) -> int:
    return main(list(argv))


def main_in_subprocess(argv: list[str]) -> list:
    """[exit code, numpy and scipy modules loaded] of `main(argv)` in a new interpreter."""
    script = (
        "import json, sys; from ontoprobe.cli import main; code = main(json.loads(sys.argv[1])); "
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))]))"
    )
    result = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


class TestPipeline:
    def test_simulate_probe_analyze_invariance_report(self, tmp_path):
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--size", "240", "--seed", "11", "--out", str(sim)) == 0

        probe = tmp_path / "probe"
        assert (
            run_cli(
                "probe",
                "--ontology", str(sim / "concepts.csv"),
                "--kind", "go",
                "--model-config", str(sim / "model_config.json"),
                "--out", str(probe),
            )
            == 0
        )
        assert (probe / "scored.ndjson").exists()

        analysis = tmp_path / "analysis"
        assert (
            run_cli(
                "analyze",
                "--scored", str(probe / "scored.ndjson"),
                "--ontology", str(sim / "concepts.csv"),
                "--occurrences", str(sim / "occurrences.csv"),
                "--buckets", "12",
                "--permutations", "500",
                "--out", str(analysis),
            )
            == 0
        )
        report_data = json.loads((analysis / "analysis.json").read_text(encoding="utf-8"))
        assert report_data["spearman"]["rho"] > 0.5

        inv = tmp_path / "inv"
        assert (
            run_cli(
                "invariance",
                "--ontology", str(sim / "concepts.csv"),
                "--model-config", str(sim / "model_config.json"),
                "--occurrences", str(sim / "occurrences.csv"),
                "--strategies", "PI2",
                "--buckets", "4",
                "--k-sample", "3",
                "--permutations", "100",
                "--out", str(inv),
            )
            == 0
        )

        report = tmp_path / "report"
        assert (
            run_cli(
                "report",
                "--analysis", str(analysis / "analysis.json"),
                "--invariance", str(inv / "invariance_report.json"),
                "--out", str(report),
            )
            == 0
        )
        lines = (report / "bucket_table.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 13
        assert (report / "summary.csv").exists()

    def test_ingest_subcommand(self, tmp_path, go_obo_text):
        source = tmp_path / "go.obo"
        source.write_text(go_obo_text, encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("ingest", "--source", str(source), "--kind", "go", "--out", str(out)) == 0
        assert (out / "concepts.csv").exists()


# The fewest arguments each subcommand accepts.
MINIMAL_ARGS = {
    "ingest": ["--source", "s", "--kind", "go", "--out", "o"],
    "probe": ["--ontology", "c", "--model-config", "m", "--out", "o"],
    "analyze": ["--scored", "s", "--ontology", "c", "--occurrences", "n", "--out", "o"],
    "invariance": ["--ontology", "c", "--model-config", "m", "--occurrences", "n", "--out", "o"],
    "simulate": ["--out", "o"],
    "report": ["--analysis", "a", "--out", "o"],
}


def subparser_options(command: str) -> list[argparse.Action]:
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in subparsers.choices[command]._actions if not isinstance(a, argparse._HelpAction)]


class TestDispatch:
    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGS))
    def test_namespace_matches_runner_parameters(self, command):
        options = subparser_options(command)
        parameters = set(inspect.signature(getattr(cli, f"run_{command}")).parameters)
        # Library-only hooks: a test transport and an in-memory synthetic profile.
        library_only = {"transport", "profile"} if command in ("probe", "invariance") else set()
        assert {a.dest for a in options} == parameters - library_only
        # No option restates a default: one left out stays out of the
        # namespace and the run_* default applies.
        assert all(a.default is argparse.SUPPRESS for a in options)
        namespace = vars(build_parser().parse_args([command, *MINIMAL_ARGS[command]]))
        assert namespace.pop("command") == command
        assert set(namespace) == {a.dest for a in options if a.required}


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_bad_kind_choice(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("ingest", "--source", "x.obo", "--kind", "hpo", "--out", str(tmp_path))
        assert exc.value.code == 2

    def test_kind_is_case_insensitive(self, tmp_path, go_obo_text):
        source = tmp_path / "go.obo"
        source.write_text(go_obo_text, encoding="utf-8")
        assert run_cli("ingest", "--source", str(source), "--kind", "GO", "--out", str(tmp_path / "o")) == 0

    def test_missing_source_file(self, tmp_path, capsys):
        code = run_cli("ingest", "--source", str(tmp_path / "nope.obo"), "--kind", "go", "--out", str(tmp_path))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_model_config(self, tmp_path, capsys):
        ontology = make_ontology(3)
        concepts_path, _ = write_corpus(tmp_path, ontology)
        code = run_cli(
            "probe",
            "--ontology", str(concepts_path),
            "--model-config", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "probe"),
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_scored_file(self, tmp_path, capsys):
        ontology = make_ontology(3)
        concepts_path, occurrences_path = write_corpus(tmp_path, ontology)
        scored = tmp_path / "scored.ndjson"
        scored.write_text("definitely not json\n", encoding="utf-8")
        code = run_cli(
            "analyze",
            "--scored", str(scored),
            "--ontology", str(concepts_path),
            "--occurrences", str(occurrences_path),
            "--out", str(tmp_path / "analysis"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("probe", "concepts.csv"),
            ("analyze", "concepts.csv"),
            ("analyze", "scored.ndjson"),
            ("analyze", "occurrences.csv"),
            ("analyze", "second.csv"),
            ("ingest", "source.csv"),
            ("ingest", "universe.txt"),
        ],
    )
    def test_input_not_utf8_exits_two_naming_it(self, tmp_path, capsys, wikidata_csv_text, command, bad):
        assert run_cli("simulate", "--size", "40", "--seed", "3", "--out", str(tmp_path)) == 0
        config = ("--model-config", str(tmp_path / "model_config.json"))
        assert run_cli("probe", "--ontology", str(tmp_path / "concepts.csv"), *config, "--out", str(tmp_path)) == 0
        (tmp_path / "second.csv").write_bytes((tmp_path / "occurrences.csv").read_bytes())
        (tmp_path / "source.csv").write_text(wikidata_csv_text, encoding="utf-8")
        (tmp_path / "universe.txt").write_text("Q1\nQ2\nQ42\nQ155\nQ308\n", encoding="utf-8")
        path = tmp_path / bad
        path.write_bytes(path.read_bytes() + b"\xff\n")
        args = {
            "probe": ("--ontology", str(tmp_path / "concepts.csv"), *config),
            "analyze": (
                "--scored", str(tmp_path / "scored.ndjson"),
                "--ontology", str(tmp_path / "concepts.csv"),
                "--occurrences", str(tmp_path / "occurrences.csv"),
                "--occurrences", str(tmp_path / "second.csv"),
            ),
            "ingest": ("--source", str(tmp_path / "source.csv"), "--kind", "wikidata",
                       "--universe", str(tmp_path / "universe.txt")),
        }[command]
        code = run_cli(command, *args, "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {path} is not UTF-8 text: " in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("field, value", [("predicted_id", 1234), ("correct", "false")])
    def test_scored_field_of_wrong_type_exits_two(self, tmp_path, capsys, field, value):
        ontology = make_ontology(3)
        concepts_path, occurrences_path = write_corpus(tmp_path, ontology)
        row = {"correct": False, "gold_id": "GO:0000001", "invented": False, "label": "synthetic concept 0000001",
               "predicted_id": "GO:0000002", "raw_text": "GO:0000002", "source": "GO"}
        row[field] = value
        scored = tmp_path / "scored.ndjson"
        scored.write_text(json.dumps(row) + "\n", encoding="utf-8")
        code = run_cli(
            "analyze",
            "--scored", str(scored),
            "--ontology", str(concepts_path),
            "--occurrences", str(occurrences_path),
            "--out", str(tmp_path / "analysis"),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"scored run: line 1 is malformed: {field} must be" in err
        assert "Traceback" not in err
        assert not (tmp_path / "analysis" / "analysis.json").exists()

    @pytest.mark.parametrize(
        "analysis, invariance, message",
        [
            ("{}", None, "analysis file {analysis} has no 'per_bucket'"),
            ("[1]", None, "analysis file {analysis} is not a JSON object"),
            ('{"per_bucket": [{"bucket": 1}]}', None, "analysis file {analysis} has no 'overall'"),
            ('{"per_bucket": [7]}', None, "analysis file {analysis} is malformed: 'int' object is not subscriptable"),
            (None, "[]", "invariance report {invariance} is not a JSON object"),
            (
                None,
                '{"strategies": []}',
                "invariance report {invariance} is malformed: 'list' object has no attribute 'items'",
            ),
            (None, '{"strategies": {"PI1": {"per_bucket": [{"bucket": 1}]}}}', "invariance report {invariance} has no 'avpi'"),
            (
                '{"per_bucket": [{"bucket": 1, "accuracy": [0.5, 0.7]}], "overall": {}, "spearman": {}, "granger": {}}',
                None,
                "analysis file {analysis} is malformed: a table cell must be a number or null, got [0.5, 0.7]",
            ),
            (
                '{"per_bucket": [], "overall": {"accuracy": "a,b"}, "spearman": {}, "granger": {}}',
                None,
                "analysis file {analysis} is malformed: a table cell must be a number or null, got 'a,b'",
            ),
            (
                '{"per_bucket": [], "n_records": true, "overall": {}, "spearman": {}, "granger": {}}',
                None,
                "analysis file {analysis} is malformed: a table cell must be a number or null, got True",
            ),
        ],
    )
    def test_malformed_report_input_exits_two(self, tmp_path, capsys, analysis, invariance, message):
        analysis_path = tmp_path / "analysis.json"
        well_formed = '{"per_bucket": [], "overall": {}, "spearman": {}, "granger": {}}'
        analysis_path.write_text(analysis or well_formed, encoding="utf-8")
        invariance_path = tmp_path / "invariance_report.json"
        invariance_path.write_text(invariance or '{"strategies": {}}', encoding="utf-8")
        code = run_cli(
            "report", "--analysis", str(analysis_path), "--invariance", str(invariance_path),
            "--out", str(tmp_path / "report"),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: " + message.format(analysis=analysis_path, invariance=invariance_path) + "\n"
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "field, changes",
        [
            ("provider", {"provider": 5}),
            ("profile_path", {"profile_path": 5}),
            ("endpoint", {"provider": "CHAT_HTTP", "endpoint": 5}),
            ("max_attempts", {"provider": "CHAT_HTTP", "endpoint": "http://127.0.0.1:9", "max_attempts": 1.5}),
            ("seed", {"seed": 7.5}),
            ("seed", {"seed": "7"}),
            ("seed", {"seed": True}),
            ("temperature", {"temperature": True}),
            ("max_new_tokens", {"max_new_tokens": 2.5}),
            ("model_name", {"model_name": 5}),
        ],
    )
    def test_model_config_field_of_wrong_type_exits_two(self, tmp_path, capsys, field, changes):
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--size", "30", "--seed", "3", "--out", str(sim)) == 0
        config = json.loads((sim / "model_config.json").read_text(encoding="utf-8"))
        (sim / "model_config.json").write_text(json.dumps({**config, **changes}), encoding="utf-8")
        capsys.readouterr()
        probe = tmp_path / "probe"
        code = run_cli(
            "probe",
            "--ontology", str(sim / "concepts.csv"),
            "--model-config", str(sim / "model_config.json"),
            "--out", str(probe),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"{field} must be" in err
        assert "Traceback" not in err
        # Rejected before any model call: nothing was asked, cached or scored.
        assert not probe.exists()


class TestDegenerateExit:
    @staticmethod
    def _perfect_probe(tmp_path):
        """A probe whose model knows every concept: a constant accuracy series."""
        ontology = make_ontology(20)
        concepts_path, occurrences_path = write_corpus(tmp_path, ontology)
        profile = {
            "hallucination_style": "INVENTED",
            "concepts": [{"id": c.id, "recall": 1.0, "popularity": 1} for c in ontology.concepts],
        }
        (tmp_path / "profile.json").write_text(json.dumps(profile), encoding="utf-8")
        config = {
            "provider": "SYNTHETIC",
            "model_name": "perfect-memorizer",
            "profile_path": "profile.json",
        }
        (tmp_path / "model_config.json").write_text(json.dumps(config), encoding="utf-8")

        probe = tmp_path / "probe"
        assert (
            run_cli(
                "probe",
                "--ontology", str(concepts_path),
                "--model-config", str(tmp_path / "model_config.json"),
                "--out", str(probe),
            )
            == 0
        )
        return ["--scored", str(probe / "scored.ndjson"), "--ontology", str(concepts_path)], occurrences_path

    def test_constant_accuracy_exits_three(self, tmp_path, capsys):
        inputs, occurrences_path = self._perfect_probe(tmp_path)
        code = run_cli(
            "analyze",
            *inputs,
            "--occurrences", str(occurrences_path),
            "--buckets", "4",
            "--permutations", "100",
            "--out", str(tmp_path / "analysis"),
        )
        assert code == 3
        assert "rank variance" in capsys.readouterr().err

    def test_constant_accuracy_exits_three_before_a_malformed_second_file_is_read(self, tmp_path, capsys):
        inputs, occurrences_path = self._perfect_probe(tmp_path)
        second = tmp_path / "second.csv"
        second.write_text("concept_id,source,count\nGO:0000001,web,many\n", encoding="utf-8")
        code = run_cli(
            "analyze",
            *inputs,
            "--occurrences", str(occurrences_path),
            "--occurrences", str(second),
            "--buckets", "4",
            "--permutations", "100",
            "--out", str(tmp_path / "analysis"),
        )
        assert code == 3
        assert "rank variance" in capsys.readouterr().err
        assert not (tmp_path / "analysis" / "analysis.json").exists()


class TestTransportExit:
    def test_unreachable_endpoint_exits_four(self, tmp_path, capsys):
        ontology = make_ontology(3)
        concepts_path, _ = write_corpus(tmp_path, ontology)
        config = {
            "provider": "CHAT_HTTP",
            "model_name": "m",
            "endpoint": "http://127.0.0.1:9",
            "max_attempts": 1,
            "max_in_flight": 1,
        }
        (tmp_path / "model_config.json").write_text(json.dumps(config), encoding="utf-8")
        code = run_cli(
            "probe",
            "--ontology", str(concepts_path),
            "--model-config", str(tmp_path / "model_config.json"),
            "--out", str(tmp_path / "probe"),
        )
        assert code == 4
        assert "failed requests" in capsys.readouterr().err
        # the run still produced a complete, loadable scored file
        assert (tmp_path / "probe" / "scored.ndjson").exists()


def collections_during(argv: list[str]) -> tuple[int, list[int]]:
    """The exit code of `main(argv)` in this process, and the generation of
    each collection that started while it ran."""
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        code = main(argv)
    finally:
        gc.callbacks.remove(record)
    return code, started


@pytest.fixture(scope="module")
def stage_argvs(tmp_path_factory) -> dict[str, list[str]]:
    """Each stage's arguments over inputs made beforehand, a few thousand
    rows each: enough allocations to set off collections were the
    collector running."""
    tmp = tmp_path_factory.mktemp("stages")
    sim = tmp / "sim"
    assert run_cli("simulate", "--size", "3000", "--seed", "3", "--out", str(sim)) == 0
    table, config, occurrences = str(sim / "concepts.csv"), str(sim / "model_config.json"), str(sim / "occurrences.csv")
    assert run_cli("probe", "--ontology", table, "--model-config", config, "--out", str(tmp / "p0")) == 0
    analyze = ["--scored", str(tmp / "p0" / "scored.ndjson"), "--ontology", table, "--occurrences", occurrences]
    analyze += ["--buckets", "200", "--permutations", "50"]
    assert run_cli("analyze", *analyze, "--out", str(tmp / "a0")) == 0
    obo = tmp / "go.obo"
    obo.write_text("".join(f"[Term]\nid: GO:{i:07d}\nname: term {i}\n\n" for i in range(1, 3001)), encoding="utf-8")
    return {
        "simulate": ["simulate", "--size", "3000", "--seed", "4", "--out", str(tmp / "sim2")],
        "ingest": ["ingest", "--source", str(obo), "--kind", "go", "--out", str(tmp / "ingest")],
        "probe": ["probe", "--ontology", table, "--model-config", config, "--out", str(tmp / "probe")],
        "analyze": ["analyze", *analyze, "--out", str(tmp / "analysis")],
        "invariance": [
            "invariance", "--ontology", table, "--model-config", config, "--occurrences", occurrences,
            "--strategies", "PI1", "--buckets", "4", "--k-sample", "5", "--permutations", "50",
            "--out", str(tmp / "inv"),
        ],
        "report": ["report", "--analysis", str(tmp / "a0" / "analysis.json"), "--out", str(tmp / "report")],
    }


class TestCollectorPause:
    @pytest.mark.parametrize("stage", ["simulate", "ingest", "probe", "analyze", "invariance", "report"])
    def test_stage_runs_with_the_collector_paused(self, stage_argvs, stage):
        assert collections_during(stage_argvs[stage]) == (0, [])
        assert gc.isenabled()

    def test_a_callers_pause_stays(self, stage_argvs):
        gc.disable()
        try:
            assert run_cli(*stage_argvs["report"]) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_failed_stage_resumes_the_collector(self, stage_argvs, capsys, tmp_path):
        argv = list(stage_argvs["analyze"])
        argv[argv.index("--scored") + 1] = str(tmp_path / "absent.ndjson")
        assert run_cli(*argv) == 2
        assert "error:" in capsys.readouterr().err
        assert gc.isenabled()
        with pytest.raises(SystemExit):
            run_cli("analyze", "--buckets", "many")
        assert gc.isenabled()


class TestInstalledEntrypoint:
    def test_help_runs(self):
        result = subprocess.run(
            [sys.executable, "-c", "import ontoprobe.cli as c; raise SystemExit(c.main(['--help']))"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "ingest" in result.stdout and "simulate" in result.stdout


SRC = Path(__file__).resolve().parent.parent / "src"


class TestImportPath:
    def test_cli_import_leaves_scipy_out(self):
        # Every stage starts by importing the CLI; only the statistics load
        # numpy and only analyze's F-test loads scipy.special, and only a
        # gateway's first HTTP attempt loads http.client and ssl, lazily.
        # requests and urllib3 are never used. Records are NamedTuples, so
        # no class generates code at import and dataclasses, with the
        # inspect, ast and dis it loads, stays out.
        heavy = "{'numpy', 'scipy', 'requests', 'urllib3', 'http.client', 'ssl', 'dataclasses', 'inspect', 'ast', 'dis'}"
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, ontoprobe.cli; "
                f"print(sorted(m for m in sys.modules if m in {heavy} or m.split('.')[0] in {heavy}))",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_stages_without_a_statistic_leave_numpy_out(self, tmp_path, go_obo_text):
        # report flattens an analysis.json; analyze, which loads numpy, makes
        # it here in the test process.
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--size", "120", "--seed", "5", "--out", str(sim)) == 0
        table, config = str(sim / "concepts.csv"), str(sim / "model_config.json")
        assert run_cli("probe", "--ontology", table, "--model-config", config, "--out", str(tmp_path / "p0")) == 0
        analysis = tmp_path / "analysis"
        analyze = ["--scored", str(tmp_path / "p0" / "scored.ndjson"), "--ontology", table]
        analyze += ["--occurrences", str(sim / "occurrences.csv"), "--buckets", "4", "--permutations", "50"]
        assert run_cli("analyze", *analyze, "--out", str(analysis)) == 0
        (tmp_path / "go.obo").write_text(go_obo_text, encoding="utf-8")

        sim2 = tmp_path / "sim2"
        probe = ["--ontology", str(sim2 / "concepts.csv"), "--model-config", str(sim2 / "model_config.json")]
        probe += ["--cache", str(tmp_path / "cache.ndjson")]
        stages = [
            ["simulate", "--size", "120", "--seed", "6", "--out", str(sim2)],
            ["ingest", "--source", str(tmp_path / "go.obo"), "--kind", "go", "--out", str(tmp_path / "ingest")],
            ["probe", *probe, "--out", str(tmp_path / "fresh")],
            ["probe", *probe, "--out", str(tmp_path / "resumed")],
            ["report", "--analysis", str(analysis / "analysis.json"), "--out", str(tmp_path / "report")],
        ]
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import json, sys; from ontoprobe.cli import main; "
                "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
                "print(json.dumps([codes, 'numpy' in sys.modules]))",
                json.dumps(stages),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [[0] * 5, False]
        resumed = json.loads((tmp_path / "resumed" / "manifest.json").read_text(encoding="utf-8"))
        assert resumed["counts"]["from_cache"] == 120

    def test_analyze_main_process_loads_neither_numpy_nor_scipy(self, tmp_path):
        # analyze computes its statistics in a worker process, which loads both.
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--size", "120", "--seed", "5", "--out", str(sim)) == 0
        table = str(sim / "concepts.csv")
        assert run_cli("probe", "--ontology", table, "--model-config", str(sim / "model_config.json"),
                       "--out", str(tmp_path / "probe")) == 0
        analyze = ["analyze", "--scored", str(tmp_path / "probe" / "scored.ndjson"), "--ontology", table]
        analyze += ["--occurrences", str(sim / "occurrences.csv"), "--buckets", "12", "--out", str(tmp_path / "an")]
        assert main_in_subprocess(analyze) == [0, []]
        analysis = json.loads((tmp_path / "an" / "analysis.json").read_text(encoding="utf-8"))
        assert "rho" in analysis["spearman"] and "f_statistic" in analysis["granger"]

    def test_invariance_main_process_loads_neither_numpy_nor_scipy(self, tmp_path, monkeypatch):
        # invariance runs its Spearman tests in a worker process, which loads numpy.
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--size", "120", "--seed", "5", "--out", str(sim)) == 0
        invariance = ["invariance", "--ontology", str(sim / "concepts.csv"), "--model-config",
                      str(sim / "model_config.json"), "--occurrences", str(sim / "occurrences.csv"),
                      "--buckets", "6", "--k-sample", "3", "--repeats", "3", "--permutations", "500"]
        assert main_in_subprocess([*invariance, "--out", str(tmp_path / "worker")]) == [0, []]

        def cannot_start(*args, **kwargs):
            raise OSError("no process")

        # With no worker, this process computes each test.
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", cannot_start)
        assert run_cli(*invariance, "--out", str(tmp_path / "in_process")) == 0
        report = (tmp_path / "worker" / "invariance_report.json").read_bytes()
        assert (tmp_path / "in_process" / "invariance_report.json").read_bytes() == report
        assert "rho" in json.loads(report)["strategies"]["PI2"]["avpi_accuracy_spearman"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="finds the worker in /proc")
    @pytest.mark.parametrize("stage", ["analyze", "invariance"])
    def test_killed_stage_leaves_no_process_behind(self, tmp_path, stage):
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--size", "2000", "--seed", "5", "--out", str(sim)) == 0
        table, occurrences = str(sim / "concepts.csv"), str(sim / "occurrences.csv")
        if stage == "analyze":
            assert run_cli("probe", "--ontology", table, "--model-config", str(sim / "model_config.json"),
                           "--out", str(tmp_path / "probe")) == 0
            argv = ["analyze", "--scored", str(tmp_path / "probe" / "scored.ndjson"), "--ontology", table,
                    "--occurrences", occurrences]
        else:
            argv = ["invariance", "--ontology", table, "--model-config", str(sim / "model_config.json"),
                    "--occurrences", occurrences]
        leader = subprocess.Popen([sys.executable, "-m", "ontoprobe.cli", *argv, "--out", str(tmp_path / "out")],
                                  start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            while not live_children(leader.pid):
                assert leader.poll() is None, "the stage ended before its worker started"
                time.sleep(0.002)
        finally:
            leader.kill()
            leader.wait()
        assert leader.returncode == -signal.SIGKILL
        deadline = time.monotonic() + 5
        try:
            while True:
                try:
                    os.killpg(leader.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a process of the killed stage is still running"
                time.sleep(0.02)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(leader.pid, signal.SIGKILL)

    def test_src_imports_only_stdlib_and_declared_dependencies(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_") for dep in project["dependencies"]}
        allowed = set(sys.stdlib_module_names) | declared | {"ontoprobe"}
        imported = set()
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imported.update((path.name, alias.name.split(".")[0]) for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add((path.name, node.module.split(".")[0]))
        assert sorted((name, module) for name, module in imported if module not in allowed) == []
        # And every declared dependency is used.
        assert declared <= {module for _, module in imported}
