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
from ontoprobe import cli, runs
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

    def test_ingest_flags_of_another_kind_exit_two_naming_the_first(self, tmp_path, capsys, go_obo_text):
        source, universe, out = tmp_path / "go.obo", tmp_path / "u.txt", tmp_path / "out"
        source.write_text(go_obo_text, encoding="utf-8")
        universe.write_text("GO:0000001\n", encoding="utf-8")
        flags = ("--universe", str(universe), "--max-code-chars", "2")
        assert run_cli("ingest", "--source", str(source), "--kind", "go", *flags, "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: --universe applies only to --kind wikidata, not go\n"
        assert run_cli("ingest", "--source", str(source), "--kind", "go", *flags[2:], "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: --max-code-chars applies only to --kind icd10, not go\n"
        assert not out.exists()

    def test_ingest_missing_universe_with_go_exits_two_before_any_write(self, tmp_path, capsys, go_obo_text):
        source, out = tmp_path / "go.obo", tmp_path / "out"
        source.write_text(go_obo_text, encoding="utf-8")
        code = run_cli(
            "ingest", "--source", str(source), "--kind", "go", "--universe", str(tmp_path / "nope.txt"),
            "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --universe applies only to --kind wikidata, not go\n"
        assert not out.exists()

    def test_ingest_empty_universe_path_exits_two_before_any_write(self, tmp_path, capsys, wikidata_csv_text):
        source, out = tmp_path / "sample.csv", tmp_path / "out"
        source.write_text(wikidata_csv_text, encoding="utf-8")
        code = run_cli("ingest", "--source", str(source), "--kind", "wikidata", "--universe", "", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--universe", "error: cannot read Wikidata universe: the path is empty\n"),
            ("--source", "error: cannot read WIKIDATA source: the path is empty\n"),
        ],
    )
    def test_ingest_empty_path_is_refused_not_read_as_the_directory(
        self, tmp_path, capsys, wikidata_csv_text, flag, message
    ):
        """`Path("")` is the current directory, which the stage once tried to read."""
        source, out = tmp_path / "sample.csv", tmp_path / "out"
        source.write_text(wikidata_csv_text, encoding="utf-8")
        paths = {"--source": str(source), flag: ""}
        code = run_cli("ingest", "--kind", "wikidata", *[x for pair in paths.items() for x in pair], "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err == message
        assert "'.'" not in err
        assert not out.exists()

    def test_ingest_negative_max_code_chars_exits_two_naming_the_flag(self, tmp_path, capsys, icd_csv_text):
        source, out = tmp_path / "icd.csv", tmp_path / "out"
        source.write_text(icd_csv_text, encoding="utf-8")
        code = run_cli("ingest", "--source", str(source), "--kind", "icd10", "--max-code-chars", "-1", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == "error: --max-code-chars must be non-negative\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind, prefixes", [("uberon", "GO"), ("go", "UBERON, ZFA")])
    def test_ingest_obo_of_another_kind_exits_two_naming_the_prefixes(self, tmp_path, capsys, kind, prefixes):
        source, out = tmp_path / "terms.obo", tmp_path / "out"
        ids = ["GO:0000001", "GO:0000002"] if kind == "uberon" else ["UBERON:0000001", "ZFA:0000001"]
        source.write_text("".join(f"[Term]\nid: {i}\nname: term {i}\n\n" for i in ids), encoding="utf-8")
        assert run_cli("ingest", "--source", str(source), "--kind", kind, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {source} holds no {kind.upper()} concept; its [Term] IDs have the prefixes {prefixes}\n"
        assert not out.exists()

    def test_ingest_source_without_a_concept_exits_two(self, tmp_path, capsys):
        source, out = tmp_path / "icd.csv", tmp_path / "out"
        source.write_text("code,label\nA01.123,long code\n", encoding="utf-8")
        assert run_cli("ingest", "--source", str(source), "--kind", "icd10", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {source} holds no ICD10 concept\n"
        assert not out.exists()

    def test_simulate_size_beyond_seven_digit_ids_exits_two_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--size", "10000000", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: --size must be at most 9999999, as GO IDs have seven digits\n"
        assert not out.exists()

    @pytest.mark.parametrize("repeats", ["10", "7", "-5"])
    def test_invariance_repeats_without_pi1_exits_two_before_any_work(self, tmp_path, capsys, repeats):
        sim, out = tmp_path / "sim", tmp_path / "inv"
        assert run_cli("simulate", "--size", "40", "--out", str(sim)) == 0
        code = run_cli(
            "invariance", "--ontology", str(sim / "concepts.csv"), "--model-config", str(sim / "model_config.json"),
            "--occurrences", str(sim / "occurrences.csv"), "--strategies", "PI2", "--repeats", repeats,
            "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --repeats applies only when --strategies includes PI1\n"
        assert not out.exists()

    @pytest.mark.parametrize("strategy, recorded", [("PI1", 10), ("PI2", None)])
    def test_invariance_without_repeats_records_ten_only_with_pi1(self, tmp_path, strategy, recorded):
        sim, out = tmp_path / "sim", tmp_path / "inv"
        assert run_cli("simulate", "--size", "40", "--out", str(sim)) == 0
        code = run_cli(
            "invariance", "--ontology", str(sim / "concepts.csv"), "--model-config", str(sim / "model_config.json"),
            "--occurrences", str(sim / "occurrences.csv"), "--strategies", strategy, "--buckets", "4",
            "--out", str(out),
        )
        assert code == 0
        assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["parameters"]["m_repeats"] == recorded

    def test_probe_sample_zero_exits_two_before_reading_any_input(self, tmp_path, capsys):
        config, out = tmp_path / "model_config.json", tmp_path / "probe"
        config.write_text(json.dumps({"provider": "SYNTHETIC", "model_name": "m"}), encoding="utf-8")
        code = run_cli(
            "probe", "--ontology", str(tmp_path / "absent.csv"), "--model-config", str(config),
            "--sample", "0", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --sample must be positive\n"
        assert not out.exists()

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
        probe = tmp_path / "probe"
        assert run_cli("probe", "--ontology", str(tmp_path / "concepts.csv"), *config, "--out", str(probe)) == 0
        (tmp_path / "scored.ndjson").write_bytes((probe / "scored.ndjson").read_bytes())
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
        code, err, probe = self._probe_with_changed_config(tmp_path, capsys, changes)
        assert code == 2
        assert f"{field} must be" in err
        assert "Traceback" not in err
        # Rejected before any model call: nothing was asked, cached or scored.
        assert not probe.exists()

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"endpoint": "http://127.0.0.1:9"}, "endpoint applies only to CHAT_HTTP and COMPLETION_HTTP, not SYNTHETIC"),
            # `simulate`'s config names a profile, which an HTTP model never reads.
            ({"provider": "CHAT_HTTP", "endpoint": "http://127.0.0.1:9"},
             "profile_path applies only to SYNTHETIC, not CHAT_HTTP"),
            ({"max_attempts": 2}, "max_attempts applies only to CHAT_HTTP and COMPLETION_HTTP, not SYNTHETIC"),
        ],
        ids=["synthetic-endpoint", "http-profile", "synthetic-max_attempts"],
    )
    def test_model_config_field_of_another_provider_exits_two(self, tmp_path, capsys, changes, message):
        code, err, probe = self._probe_with_changed_config(tmp_path, capsys, changes)
        assert (code, err) == (2, f"error: {message}\n")
        assert not probe.exists()

    def test_model_config_of_unknown_provider_exits_two(self, tmp_path, capsys):
        code, err, probe = self._probe_with_changed_config(tmp_path, capsys, {"provider": "GPT4"})
        assert (code, err) == (2, "error: invalid model config: 'GPT4' is not a valid Provider\n")
        assert not probe.exists()

    @staticmethod
    def _probe_with_changed_config(tmp_path, capsys, changes):
        """(exit code, stderr, out dir) of `probe` under `simulate`'s model config with `changes`."""
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
        return code, capsys.readouterr().err, probe


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


class TestEmptyPathOptions:
    @pytest.mark.parametrize(
        "stage, flag",
        [(stage, "--out") for stage in ("simulate", "ingest", "probe", "analyze", "invariance", "report")]
        + [("probe", "--cache"), ("invariance", "--cache")],
    )
    def test_empty_path_exits_two_naming_the_flag_and_writes_nothing(
        self, stage_argvs, tmp_path, monkeypatch, capsys, stage, flag
    ):
        """`Path("")` is the current directory, where the stage once wrote its outputs."""
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        # The last of a repeated option wins.
        argv = [*stage_argvs[stage], "--out", str(tmp_path / "out"), flag, ""]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {flag} must not be empty\n"
        assert list(tmp_path.rglob("*")) == [cwd]

    @pytest.mark.parametrize("stage", ["probe", "invariance"])
    def test_cache_naming_a_directory_exits_two_naming_the_flag_and_the_path(
        self, stage_argvs, tmp_path, capsys, stage
    ):
        """The cache once opened the directory itself and failed with a bare
        `[Errno 21] Is a directory`, naming neither the option nor the path."""
        cache = tmp_path / "cache"
        cache.mkdir()
        argv = [*stage_argvs[stage], "--out", str(tmp_path / "out"), "--cache", str(cache)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: --cache must name a file, not the directory {cache}\n"
        assert list(tmp_path.rglob("*")) == [cache]


STAGES = ("simulate", "ingest", "probe", "analyze", "invariance", "report")


@pytest.fixture
def reads(monkeypatch) -> list[Path]:
    """The files a stage reads (every input goes through `Path.read_bytes`);
    a stage that starts its statistics worker fails."""
    seen = []
    read_bytes = Path.read_bytes

    def recording(self):
        seen.append(self)
        return read_bytes(self)

    def no_worker(*args, **kwargs):
        raise AssertionError("the statistics worker started")

    monkeypatch.setattr(Path, "read_bytes", recording)
    monkeypatch.setattr(runs, "stats_worker", no_worker)
    return seen


class TestOutDirectory:
    @pytest.mark.parametrize("stage", STAGES)
    def test_out_naming_a_file_exits_two_before_any_read(self, stage_argvs, tmp_path, capsys, reads, stage):
        """The stage once did all its work, then failed with a bare `[Errno 17] File exists`."""
        out = tmp_path / "F"
        out.write_bytes(b"not a run\n")
        assert run_cli(*stage_argvs[stage], "--out", str(out)) == 2
        assert reads == []
        assert capsys.readouterr().err == f"error: --out must name a directory, not the file {out}\n"
        assert out.read_bytes() == b"not a run\n"
        assert list(tmp_path.rglob("*")) == [out]

    @pytest.mark.parametrize("stage", STAGES)
    def test_out_holding_another_commands_run_exits_two_before_any_other_read(
        self, stage_argvs, tmp_path, capsys, reads, stage
    ):
        """The stage once replaced the other run's manifest and exited 0."""
        other = "probe" if stage == "simulate" else "simulate"
        out = tmp_path / "run"
        out.mkdir()
        manifest = json.dumps({"command": other, "run_id": "0123456789abcdef"}).encode("utf-8")
        (out / "manifest.json").write_bytes(manifest)
        assert run_cli(*stage_argvs[stage], "--out", str(out)) == 2
        assert reads == [out / "manifest.json"]
        assert capsys.readouterr().err == (
            f"error: --out {out} holds a run of another command ({other}); give {stage} its own directory\n"
        )
        assert (out / "manifest.json").read_bytes() == manifest
        assert list(tmp_path.rglob("*")) == [out, out / "manifest.json"]

    @pytest.mark.parametrize("stage", STAGES)
    def test_out_holding_an_unreadable_manifest_exits_two(self, stage_argvs, tmp_path, capsys, reads, stage):
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_bytes(b"{")
        assert run_cli(*stage_argvs[stage], "--out", str(out)) == 2
        assert reads == [out / "manifest.json"]
        assert capsys.readouterr().err == (
            f"error: --out {out} holds a manifest.json that cannot be read: manifest {out / 'manifest.json'} "
            "is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
        )
        assert list(tmp_path.rglob("*")) == [out, out / "manifest.json"]

    def test_manifest_without_a_command_is_another_commands(self, stage_argvs, tmp_path, capsys, reads):
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text("{}", encoding="utf-8")
        assert run_cli(*stage_argvs["report"], "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: --out {out} holds a run of another command (None); give report its own directory\n"
        )

    @pytest.mark.parametrize("stage", STAGES)
    def test_a_stage_reruns_into_its_own_directory(self, stage_argvs, tmp_path, stage):
        """A rerun into the stage's own directory resumes: the earlier manifest is its own."""
        out = tmp_path / "run"
        assert run_cli(*stage_argvs[stage], "--out", str(out)) == 0
        first = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert run_cli(*stage_argvs[stage], "--out", str(out)) == 0
        second = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert (first["command"], first["run_id"]) == (second["command"], second["run_id"])


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
        # inspect, ast and dis it loads, stays out. Only a pooled HTTP batch
        # loads concurrent.futures, which imports logging.
        heavy = (
            "{'numpy', 'scipy', 'requests', 'urllib3', 'http.client', 'ssl', 'dataclasses', 'inspect', 'ast', 'dis',"
            " 'concurrent', 'logging'}"
        )
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

    @staticmethod
    def src_nodes():
        """(module, enclosing def and class names, node) for every AST node in src/."""

        def visit(node, module: str, scope: tuple[str, ...]):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = (*scope, node.name)
            yield module, scope, node
            for child in ast.iter_child_nodes(node):
                yield from visit(child, module, scope)

        for path in sorted(SRC.rglob("*.py")):
            yield from visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())

    def test_one_csv_writer_in_src(self):
        """Every table is written through `ontology._csv_text`, so its quoting
        rule holds for all of them: nothing else in src/ builds a `csv.writer`."""
        writers, other_imports = [], []
        for module, scope, node in self.src_nodes():
            if isinstance(node, ast.Attribute) and node.attr == "writer" and getattr(node.value, "id", None) == "csv":
                writers.append((module, scope))
            if isinstance(node, ast.ImportFrom) and node.module == "csv" or isinstance(node, ast.Import) and any(
                alias.name == "csv" and alias.asname for alias in node.names
            ):
                other_imports.append((module, ast.unparse(node)))
        assert other_imports == []
        assert writers == [("ontology", ("_csv_text", "text"))]

    def test_one_decoder_of_stage_inputs_in_src(self):
        """Every stage input is read once, by `ontology._read_input`, so its
        rules (UTF-8, one leading byte-order mark dropped, line ends kept) hold
        for all of them, and the manifest records the sha256 it returns: the
        digest of the bytes the stage parsed. Besides it, only
        `runs.file_digest`, a public helper that nothing in src/ calls, the
        atomic writer and the response cache (whose byte-level loader keeps its
        own torn-line rules) open or read a file."""
        callers, digesters = set(), set()
        for module, scope, node in self.src_nodes():
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                if name in ("open", "read_text", "read_bytes"):
                    callers.add((module, scope[:1]))
                if name == "file_digest":
                    digesters.add((module, scope))
        assert digesters == set()
        assert sorted(callers) == [
            ("gateway", ("ResponseCache",)),
            ("ontology", ("_read_input",)),
            ("runs", ("atomic_write_text",)),
            ("runs", ("file_digest",)),
        ]

    def test_no_select_select_and_no_cue_from_template_text_in_src(self):
        """`select.select` refuses a descriptor numbered 1024 or more, so the
        gateway checks an idle connection with `select.poll`. A completion's
        ID-prefix cue is `PromptTemplate.cue`: no stage derives it again from
        template text through the removed `extraction.completion_cue`."""
        found = []
        for module, scope, node in self.src_nodes():
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "select" and getattr(func.value, "id", None) == "select":
                    found.append((module, scope, "select.select"))
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "completion_cue":
                    found.append((module, scope, "completion_cue"))
            if isinstance(node, ast.ImportFrom) and node.module == "select":
                found.append((module, scope, ast.unparse(node)))
        assert found == []

    def test_one_json_line_decoder_in_src(self):
        """Every NDJSON line, a cache row or a scored row, is decoded by
        `ontology._json_line`, which alone reaches into the C scanner. Besides
        it, only the JSON-file reader and the HTTP transport, each reading one
        whole document, call json.loads."""
        loads, scanners = set(), set()
        for module, scope, node in self.src_nodes():
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("json.loads", "loads"):
                loads.add((module, scope[:1]))
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr, ast.unparse(node)}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {getattr(node, "module", None), *(alias.name for alias in node.names)}
            else:
                continue
            if names & {"scan_once", "scanstring", "json.decoder"}:
                scanners.add(module)
        assert (sorted(loads), sorted(scanners)) == (
            [("gateway", ("_read_json",)), ("gateway", ("_requests_transport",)), ("ontology", ("_json_line",))],
            ["ontology"],
        )

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
