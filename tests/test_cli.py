"""Exit codes and the full subcommand pipeline."""

from __future__ import annotations

import argparse
import inspect
import json
import subprocess
import sys

import pytest

from conftest import make_ontology
from ontoprobe import cli
from ontoprobe.cli import build_parser, main
from test_runs import write_corpus


def run_cli(*argv) -> int:
    return main(list(argv))


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


class TestDegenerateExit:
    def test_constant_accuracy_exits_three(self, tmp_path, capsys):
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
        code = run_cli(
            "analyze",
            "--scored", str(probe / "scored.ndjson"),
            "--ontology", str(concepts_path),
            "--occurrences", str(occurrences_path),
            "--buckets", "4",
            "--permutations", "100",
            "--out", str(tmp_path / "analysis"),
        )
        assert code == 3
        assert "rank variance" in capsys.readouterr().err


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


class TestInstalledEntrypoint:
    def test_help_runs(self):
        result = subprocess.run(
            [sys.executable, "-c", "import ontoprobe.cli as c; raise SystemExit(c.main(['--help']))"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "ingest" in result.stdout and "simulate" in result.stdout


class TestImportPath:
    def test_cli_import_leaves_scipy_out(self):
        # Every stage starts by importing the CLI; only analyze's F-test
        # loads scipy.special, lazily.
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, ontoprobe.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
