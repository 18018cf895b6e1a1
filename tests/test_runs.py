"""End-to-end orchestration: ingest, probe, analyze, invariance, simulate, report."""

from __future__ import annotations

import contextlib
import gc
import inspect
import json
import multiprocessing
import os
import re
import shutil
import warnings
from collections import Counter
from pathlib import Path

import pytest

from conftest import GO_OBO, make_config, make_ontology, make_profile
from ontoprobe import (
    Concept,
    ConfigurationError,
    DegenerateInputError,
    HallucinationStyle,
    ModelConfig,
    OccurrenceRecord,
    Ontology,
    OntologyKind,
    ParseError,
    Provider,
    SyntheticProfile,
    atomic_write_text,
    derive_seed,
    load_ontology,
    read_concept_table,
    read_occurrences,
    read_scored_records,
    run_analyze,
    run_ingest,
    run_invariance,
    run_probe,
    run_report,
    run_simulate,
    score,
    write_concept_table,
    write_occurrences,
    write_scored_records,
)
from ontoprobe import metrics, runs, stats
from ontoprobe.gateway import TransportFailure


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "probe-sample") == derive_seed(42, "probe-sample")

    def test_label_separation(self):
        assert derive_seed(42, "probe-sample") != derive_seed(42, "analyze-spearman")

    def test_master_separation(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_range(self):
        for master in range(20):
            assert 0 <= derive_seed(master, "x") < 2**64


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "deep" / "file.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text(encoding="utf-8") == "hello\n"
        assert [p.name for p in target.parent.iterdir()] == ["file.txt"]

    def test_overwrites(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text(encoding="utf-8") == "two"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "file.txt", "x")
        finally:
            os.umask(old)
        assert (tmp_path / "file.txt").stat().st_mode & 0o777 == 0o666 & ~umask


class TestIngest:
    def test_go_obo(self, tmp_path, go_obo_text):
        source = tmp_path / "go.obo"
        source.write_text(go_obo_text, encoding="utf-8")
        manifest = run_ingest(source, "go", tmp_path / "out")
        assert manifest.counts == {"concepts": 8, "universe": 10}
        assert re.fullmatch(r"[0-9a-f]{16}", manifest.run_id)
        ontology = load_ontology(tmp_path / "out" / "concepts.csv")
        assert ontology.kind is OntologyKind.GO
        assert ontology.id_index["GO:0001822"].label == "kidney development"

    def test_icd_filter(self, tmp_path, icd_csv_text):
        source = tmp_path / "icd.csv"
        source.write_text(icd_csv_text, encoding="utf-8")
        manifest = run_ingest(source, "icd10", tmp_path / "out", max_code_chars=4)
        assert manifest.counts["concepts"] == 7
        assert manifest.counts["universe"] == 10

    def test_wikidata_with_universe(self, tmp_path, wikidata_csv_text):
        source = tmp_path / "sample.csv"
        source.write_text(wikidata_csv_text, encoding="utf-8")
        universe = tmp_path / "universe.txt"
        universe.write_text("Q1\nQ2\nQ42\nQ155\nQ308\nQ99999\n", encoding="utf-8")
        manifest = run_ingest(source, "wikidata", tmp_path / "out", universe_path=universe)
        assert manifest.counts["concepts"] == 5
        assert manifest.counts["universe"] == 6

    def test_universe_enters_run_id(self, tmp_path, wikidata_csv_text):
        source = tmp_path / "sample.csv"
        source.write_text(wikidata_csv_text, encoding="utf-8")
        ids = []
        for name, extra in (("none", None), ("small", "Q5\n"), ("large", "Q5\nQ7\n")):
            universe = None
            if extra is not None:
                universe = tmp_path / f"{name}.txt"
                universe.write_text("Q1\nQ2\nQ42\nQ155\nQ308\n" + extra, encoding="utf-8")
            ids.append(run_ingest(source, "wikidata", tmp_path / name, universe_path=universe).run_id)
        assert len(set(ids)) == 3

    def test_manifest_file_round_trips(self, tmp_path, go_obo_text):
        source = tmp_path / "go.obo"
        source.write_text(go_obo_text, encoding="utf-8")
        manifest = run_ingest(source, "go", tmp_path / "out")
        on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert on_disk["run_id"] == manifest.run_id
        assert on_disk["command"] == "ingest"
        assert Path(on_disk["outputs"]["concepts"]).exists()


def write_corpus(tmp_path, ontology, counts=None):
    """Concept table + occurrence file for a synthetic ontology.

    Default counts are distinct, ascending, and irregularly spaced so
    derived bucket-mean series are not degenerate regression inputs."""
    concepts_path = tmp_path / "concepts.csv"
    atomic_write_text(concepts_path, write_concept_table(ontology))
    occurrences_path = tmp_path / "occurrences.csv"
    if counts is None:
        import random

        draws = sorted(random.Random(20240818).sample(range(1, 10**6), len(ontology.concepts)))
        counts = {c.id: n for c, n in zip(ontology.concepts, draws)}
    records = [OccurrenceRecord(cid, "corpus", n) for cid, n in counts.items()]
    atomic_write_text(occurrences_path, write_occurrences(records))
    return concepts_path, occurrences_path


def monotone_profile(ontology, floor=0.05, ceiling=0.95, **kwargs):
    n = len(ontology.concepts)
    curve = {
        c.id: floor + (ceiling - floor) * i / max(n - 1, 1)
        for i, c in enumerate(ontology.concepts)
    }
    return SyntheticProfile(
        memorization_curve=curve,
        hallucination_style=HallucinationStyle.INVENTED,
        popularity={c.id: i + 1 for i, c in enumerate(ontology.concepts)},
        universe=frozenset(ontology.universe),
        **kwargs,
    )


class TestProbe:
    def test_perfect_recall_scores_everything(self, tmp_path):
        ontology = make_ontology(30)
        concepts_path, _ = write_corpus(tmp_path, ontology)
        manifest = run_probe(
            concepts_path, make_config(), tmp_path / "run", profile=make_profile(ontology, recall=1.0)
        )
        assert manifest.counts == {
            "requested": 30,
            "completed": 30,
            "failed": 0,
            "from_cache": 0,
            "correct": 30,
        }
        records = read_scored_records(
            (tmp_path / "run" / "scored.ndjson").read_text(encoding="utf-8"), ontology
        )
        assert all(r.correct for r in records)
        assert manifest.template_keys == ["GO/CHAT/EN"]

    def test_sample_is_seeded_and_sized(self, tmp_path):
        ontology = make_ontology(50)
        concepts_path, _ = write_corpus(tmp_path, ontology)
        profile = make_profile(ontology, recall=1.0)
        a = run_probe(concepts_path, make_config(), tmp_path / "a", sample=10, seed=5, profile=profile)
        b = run_probe(concepts_path, make_config(), tmp_path / "b", sample=10, seed=5, profile=profile)
        c = run_probe(concepts_path, make_config(), tmp_path / "c", sample=10, seed=6, profile=profile)
        text_a = (tmp_path / "a" / "scored.ndjson").read_bytes()
        assert text_a == (tmp_path / "b" / "scored.ndjson").read_bytes()
        assert text_a != (tmp_path / "c" / "scored.ndjson").read_bytes()
        assert a.counts["requested"] == 10
        assert a.run_id == b.run_id != c.run_id
        assert "probe-sample" in a.derived_seeds

    def test_sample_covering_everything_takes_all(self, tmp_path):
        ontology = make_ontology(8)
        concepts_path, _ = write_corpus(tmp_path, ontology)
        manifest = run_probe(
            concepts_path, make_config(), tmp_path / "run", sample=100, profile=make_profile(ontology)
        )
        assert manifest.counts["requested"] == 8
        assert manifest.derived_seeds == {}

    def test_rerun_resumes_from_cache(self, tmp_path):
        ontology = make_ontology(20)
        concepts_path, _ = write_corpus(tmp_path, ontology)
        profile = make_profile(ontology, recall=0.6)
        first = run_probe(concepts_path, make_config(seed=2), tmp_path / "one", profile=profile)
        assert first.counts["from_cache"] == 0

        # simulate an interrupted run: only half the cache survives
        full_cache = (tmp_path / "one" / "cache.ndjson").read_text(encoding="utf-8")
        lines = full_cache.splitlines(keepends=True)
        (tmp_path / "two").mkdir()
        (tmp_path / "two" / "cache.ndjson").write_text("".join(lines[:10]), encoding="utf-8")

        second = run_probe(concepts_path, make_config(seed=2), tmp_path / "two", profile=profile)
        assert second.counts["from_cache"] == 10
        assert second.counts["failed"] == 0
        assert (tmp_path / "one" / "scored.ndjson").read_bytes() == (
            tmp_path / "two" / "scored.ndjson"
        ).read_bytes()
        assert first.run_id == second.run_id

    def test_torn_cache_line_survives_two_resumes(self, tmp_path):
        ontology = make_ontology(200)
        concepts_path, _ = write_corpus(tmp_path, ontology)
        profile = make_profile(ontology, recall=0.6)
        run_probe(concepts_path, make_config(seed=2), tmp_path / "one", profile=profile)

        # a kill mid-append: 150 whole lines, then half of line 151
        lines = (tmp_path / "one" / "cache.ndjson").read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / "two").mkdir()
        torn = "".join(lines[:150]) + lines[150][: len(lines[150]) // 2]
        (tmp_path / "two" / "cache.ndjson").write_text(torn, encoding="utf-8")

        expected = (tmp_path / "one" / "scored.ndjson").read_bytes()
        for from_cache in (150, 200):
            manifest = run_probe(concepts_path, make_config(seed=2), tmp_path / "two", profile=profile)
            assert manifest.counts["from_cache"] == from_cache
            assert (tmp_path / "two" / "scored.ndjson").read_bytes() == expected
        assert len((tmp_path / "two" / "cache.ndjson").read_text(encoding="utf-8").splitlines()) == 200

    def test_shared_cache_never_replays_another_model(self, tmp_path):
        ontology = make_ontology(200)
        concepts_path, _ = write_corpus(tmp_path, ontology)
        profile = make_profile(ontology, recall=0.5)
        shared = tmp_path / "shared.ndjson"
        run_probe(concepts_path, make_config(seed=1), tmp_path / "one", cache_path=shared, profile=profile)
        # same model name and provider, different seed: a different model
        other = run_probe(concepts_path, make_config(seed=2), tmp_path / "two", cache_path=shared, profile=profile)
        assert other.counts["from_cache"] == 0
        run_probe(concepts_path, make_config(seed=2), tmp_path / "fresh", profile=profile)
        scored = (tmp_path / "two" / "scored.ndjson").read_bytes()
        assert scored == (tmp_path / "fresh" / "scored.ndjson").read_bytes()
        assert scored != (tmp_path / "one" / "scored.ndjson").read_bytes()

    def test_profile_edited_in_place_never_replays_old_answers(self, tmp_path):
        ontology = make_ontology(200)
        concepts_path, _ = write_corpus(tmp_path, ontology)
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(make_profile(ontology, recall=0.5).to_dict()), encoding="utf-8")
        config = ModelConfig(Provider.SYNTHETIC, "synthetic-memorizer", profile_path=str(profile_path))
        shared = tmp_path / "shared.ndjson"
        run_probe(concepts_path, config, tmp_path / "one", cache_path=shared)
        profile_path.write_text(json.dumps(make_profile(ontology, recall=0.0).to_dict()), encoding="utf-8")
        edited = run_probe(concepts_path, config, tmp_path / "two", cache_path=shared)
        assert edited.counts["from_cache"] == 0
        run_probe(concepts_path, config, tmp_path / "fresh")
        scored = (tmp_path / "two" / "scored.ndjson").read_bytes()
        assert scored == (tmp_path / "fresh" / "scored.ndjson").read_bytes()
        assert scored != (tmp_path / "one" / "scored.ndjson").read_bytes()

    def test_cache_handle_closed_when_run_ends(self, tmp_path):
        ontology = make_ontology(30)
        concepts_path, occurrences_path = write_corpus(tmp_path, ontology)
        profile = make_profile(ontology, recall=0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_probe(concepts_path, make_config(), tmp_path / "probe", profile=profile)
            run_invariance(
                concepts_path, make_config(), occurrences_path, tmp_path / "inv",
                buckets=3, k_sample=2, m_repeats=2, permutations=20, profile=profile,
            )
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_exhausted_transport_counts_failures(self, tmp_path):
        ontology = make_ontology(6)
        concepts_path, _ = write_corpus(tmp_path, ontology)

        def transport(url, payload, headers):
            raise TransportFailure("endpoint unreachable")

        config = ModelConfig(
            Provider.CHAT_HTTP,
            "m",
            endpoint="https://api.example.test",
            max_attempts=1,
            max_in_flight=1,
        )
        manifest = run_probe(concepts_path, config, tmp_path / "run", transport=transport)
        assert manifest.counts["failed"] == 6
        assert manifest.counts["completed"] == 0
        records = read_scored_records(
            (tmp_path / "run" / "scored.ndjson").read_text(encoding="utf-8"), ontology
        )
        assert all(r.predicted is None and r.raw_text == "" for r in records)

    def test_wikidata_answer_beyond_int_conversion_limit(self, tmp_path, wikidata_ontology):
        concepts_path, _ = write_corpus(tmp_path, wikidata_ontology)
        qid = "Q" + "7" * 5000

        def transport(url, payload, headers):
            return 200, {"choices": [{"message": {"content": f"That is {qid}."}}]}

        config = ModelConfig(Provider.CHAT_HTTP, "m", endpoint="https://api.example.test", max_in_flight=1)
        cache = tmp_path / "cache.ndjson"
        fresh = run_probe(concepts_path, config, tmp_path / "fresh", cache_path=cache, transport=transport)
        resumed = run_probe(concepts_path, config, tmp_path / "resumed", cache_path=cache, transport=transport)
        n = len(wikidata_ontology.concepts)
        assert fresh.counts["failed"] == resumed.counts["failed"] == 0
        assert resumed.counts["from_cache"] == n
        text = (tmp_path / "resumed" / "scored.ndjson").read_text(encoding="utf-8")
        records = read_scored_records(text, wikidata_ontology)
        assert [r.predicted for r in records] == [qid] * n
        assert not any(r.correct for r in records)

    def test_lone_surrogate_in_answer_is_replaced_fresh_and_resumed(self, tmp_path):
        ontology = make_ontology(3)
        concepts_path, _ = write_corpus(tmp_path, ontology)

        def transport(url, payload, headers):
            return 200, json.loads('{"choices": [{"message": {"content": "GO:0000001 \\ud800"}}]}')

        config = ModelConfig(Provider.CHAT_HTTP, "m", endpoint="https://api.example.test", max_in_flight=1)
        cache = tmp_path / "cache.ndjson"
        fresh = run_probe(concepts_path, config, tmp_path / "fresh", cache_path=cache, transport=transport)
        resumed = run_probe(concepts_path, config, tmp_path / "resumed", cache_path=cache, transport=transport)
        assert fresh.counts["failed"] == resumed.counts["failed"] == 0
        assert resumed.counts["from_cache"] == 3
        text = (tmp_path / "resumed" / "scored.ndjson").read_text(encoding="utf-8")
        assert text == (tmp_path / "fresh" / "scored.ndjson").read_text(encoding="utf-8")
        records = read_scored_records(text, ontology)
        assert [(r.predicted, r.raw_text) for r in records] == [("GO:0000001", "GO:0000001 \ufffd")] * 3

    def test_completion_style_defaults_and_extracts_bare_digits(self, tmp_path):
        ontology = make_ontology(5)
        concepts_path, _ = write_corpus(tmp_path, ontology)

        def transport(url, payload, headers):
            assert url.endswith("/completions")
            digits = re.search(r"synthetic concept (\d{7})", payload["prompt"]).group(1)
            return 200, {"choices": [{"text": f" {digits}."}]}

        config = ModelConfig(
            Provider.COMPLETION_HTTP, "m", endpoint="https://api.example.test", max_in_flight=1
        )
        manifest = run_probe(concepts_path, config, tmp_path / "run", transport=transport)
        assert manifest.template_keys == ["GO/COMPLETION/EN"]
        assert manifest.counts["correct"] == 5

    def test_kind_mismatch_rejected(self, tmp_path):
        ontology = make_ontology(3)
        concepts_path, _ = write_corpus(tmp_path, ontology)
        with pytest.raises(ConfigurationError, match="expected ICD10"):
            run_probe(concepts_path, make_config(), tmp_path / "run", kind="icd10", profile=make_profile(ontology))

    def test_empty_concept_table_rejected(self, tmp_path):
        empty = Ontology(OntologyKind.GO, (), frozenset({"GO:0000001"}))
        concepts_path = tmp_path / "concepts.csv"
        atomic_write_text(concepts_path, write_concept_table(empty))
        with pytest.raises(ConfigurationError, match="no probeable concepts"):
            run_probe(concepts_path, make_config(), tmp_path / "run", profile=SyntheticProfile({}))

    def test_bad_sample_rejected(self, tmp_path):
        ontology = make_ontology(3)
        concepts_path, _ = write_corpus(tmp_path, ontology)
        with pytest.raises(ConfigurationError, match="sample"):
            run_probe(concepts_path, make_config(), tmp_path / "run", sample=0, profile=make_profile(ontology))


def probe_then_analyze(tmp_path, n=240, buckets=12, seed=3, **analyze_kwargs):
    ontology = make_ontology(n)
    concepts_path, occurrences_path = write_corpus(tmp_path, ontology)
    profile = monotone_profile(ontology)
    run_probe(concepts_path, make_config(seed=seed), tmp_path / "probe", profile=profile)
    manifest = run_analyze(
        tmp_path / "probe" / "scored.ndjson",
        concepts_path,
        [occurrences_path],
        tmp_path / "analysis",
        buckets=buckets,
        permutations=analyze_kwargs.pop("permutations", 2000),
        **analyze_kwargs,
    )
    analysis = json.loads((tmp_path / "analysis" / "analysis.json").read_text(encoding="utf-8"))
    return ontology, manifest, analysis


class TestAnalyze:
    def test_planted_monotone_recall_recovered(self, tmp_path):
        _, manifest, analysis = probe_then_analyze(tmp_path)
        assert analysis["n_records"] == 240
        assert len(analysis["per_bucket"]) == 12
        assert analysis["spearman"]["rho"] >= 0.8
        assert analysis["spearman"]["p_value"] < 0.05
        assert "f_statistic" in analysis["granger"]
        assert manifest.counts == {"records": 240, "excluded": 0}

    def test_per_bucket_fields(self, tmp_path):
        _, _, analysis = probe_then_analyze(tmp_path, n=120, buckets=6)
        for row in analysis["per_bucket"]:
            assert row["occupancy"] == 20
            assert row["n_scored"] == 20
            assert 0.0 <= row["accuracy"] <= 1.0
            assert row["n_jaccard"] <= row["n_levenshtein"]
        accuracies = [row["accuracy"] for row in analysis["per_bucket"]]
        assert accuracies[-1] > accuracies[0]

    def test_overall_block_consistent(self, tmp_path):
        ontology, _, analysis = probe_then_analyze(tmp_path, n=120, buckets=6)
        scored = read_scored_records(
            (tmp_path / "probe" / "scored.ndjson").read_text(encoding="utf-8"), ontology
        )
        assert analysis["overall"]["accuracy"] == pytest.approx(
            sum(r.correct for r in scored) / len(scored)
        )
        assert analysis["bias"]["k"] == 500
        assert analysis["excluded_missing_occurrence"] == 0

    def test_short_bucket_series_records_granger_error(self, tmp_path):
        _, _, analysis = probe_then_analyze(tmp_path, n=60, buckets=6)
        assert analysis["granger"] == {
            "error": "series too short for lag 3: need at least 11 observations, got 6",
            "lag": 3,
        }
        assert "rho" in analysis["spearman"]

    @pytest.mark.parametrize("option", ["buckets", "lag", "permutations", "top_k"])
    def test_count_option_below_one_rejected_before_any_work(self, tmp_path, option):
        ontology = make_ontology(30)
        concepts_path, occurrences_path = write_corpus(tmp_path, ontology)
        run_probe(concepts_path, make_config(), tmp_path / "probe", profile=monotone_profile(ontology))
        with pytest.raises(ConfigurationError, match=f"--{option.replace('_', '-')} must be positive"):
            run_analyze(
                tmp_path / "probe" / "scored.ndjson", concepts_path, [occurrences_path], tmp_path / "analysis", **{option: 0}
            )
        assert not (tmp_path / "analysis").exists()

    def test_missing_occurrence_rows_fatal_by_default(self, tmp_path):
        ontology = make_ontology(30)
        concepts_path, _ = write_corpus(tmp_path, ontology)
        partial = {c.id: i + 1 for i, c in enumerate(ontology.concepts[:24])}
        occurrences_path = tmp_path / "partial.csv"
        atomic_write_text(
            occurrences_path,
            write_occurrences([OccurrenceRecord(cid, "corpus", n) for cid, n in partial.items()]),
        )
        run_probe(concepts_path, make_config(), tmp_path / "probe", profile=monotone_profile(ontology))
        with pytest.raises(ConfigurationError, match=r"6 scored concepts have no occurrence row \(e\.g\. GO:0000025"):
            run_analyze(
                tmp_path / "probe" / "scored.ndjson",
                concepts_path,
                [occurrences_path],
                tmp_path / "analysis",
                buckets=4,
                permutations=100,
            )
        manifest = run_analyze(
            tmp_path / "probe" / "scored.ndjson",
            concepts_path,
            [occurrences_path],
            tmp_path / "analysis",
            buckets=4,
            permutations=100,
            allow_missing=True,
        )
        assert manifest.counts == {"records": 24, "excluded": 6}

    def test_one_similarity_pass_per_wrong_record(self, tmp_path, monkeypatch):
        ontology = make_ontology(80)
        concepts = ontology.concepts
        concepts_path, _ = write_corpus(tmp_path, ontology)
        # Cycle through correct, wrong-but-real (has a Jaccard), invented
        # and absent predictions.
        def prediction(i, concept):
            return [concept.id, concepts[(i + 7) % 80].id, f"GO:99{i:05d}", None][i % 4]

        records = [score(ontology, c, prediction(i, c)) for i, c in enumerate(concepts)]
        scored_path = tmp_path / "scored.ndjson"
        atomic_write_text(scored_path, write_scored_records(records))
        # 10 concepts lack an occurrence row and are excluded.
        occurrences_path = tmp_path / "partial.csv"
        atomic_write_text(
            occurrences_path,
            write_occurrences([OccurrenceRecord(c.id, "corpus", 3 * i + 1) for i, c in enumerate(concepts[:70])]),
        )
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        original = metrics.levenshtein
        monkeypatch.setattr(metrics, "levenshtein", counting)
        monkeypatch.setattr(runs, "levenshtein", counting)
        run_analyze(
            scored_path, concepts_path, [occurrences_path], tmp_path / "analysis",
            buckets=7, permutations=100, allow_missing=True,
        )
        analysis = json.loads((tmp_path / "analysis" / "analysis.json").read_text(encoding="utf-8"))

        kept = records[:70]
        wrong = [(r.predicted, r.concept.id) for r in kept if not r.correct and r.predicted is not None]
        assert calls == wrong
        assert analysis["n_records"] == 70
        assert analysis["excluded_missing_occurrence"] == 10
        overall = analysis["overall"]
        assert overall["n_levenshtein"] == len(wrong) == 35
        assert overall["n_jaccard"] == 18
        per_bucket = analysis["per_bucket"]
        assert sum(row["n_scored"] for row in per_bucket) == analysis["n_records"]
        assert sum(row["n_levenshtein"] for row in per_bucket) == overall["n_levenshtein"]
        assert sum(row["n_jaccard"] for row in per_bucket) == overall["n_jaccard"]

    def test_constant_accuracy_is_degenerate(self, tmp_path):
        ontology = make_ontology(40)
        concepts_path, occurrences_path = write_corpus(tmp_path, ontology)
        run_probe(concepts_path, make_config(), tmp_path / "probe", profile=make_profile(ontology, recall=1.0))
        with pytest.raises(DegenerateInputError, match="rank variance"):
            run_analyze(
                tmp_path / "probe" / "scored.ndjson",
                concepts_path,
                [occurrences_path],
                tmp_path / "analysis",
                buckets=4,
                permutations=100,
            )

    def test_second_occurrence_file_compared(self, tmp_path):
        ontology = make_ontology(60)
        concepts_path, occurrences_path = write_corpus(tmp_path, ontology)
        primary = {
            r.concept_id: r.count
            for r in read_occurrences(occurrences_path.read_text(encoding="utf-8"))
        }
        # second source broadly agrees, with jitter
        second = {c.id: primary[c.id] + (i % 3) for i, c in enumerate(ontology.concepts)}
        second_path = tmp_path / "second.csv"
        atomic_write_text(
            second_path,
            write_occurrences([OccurrenceRecord(cid, "other", n) for cid, n in second.items()]),
        )
        run_probe(concepts_path, make_config(), tmp_path / "probe", profile=monotone_profile(ontology))
        run_analyze(
            tmp_path / "probe" / "scored.ndjson",
            concepts_path,
            [occurrences_path, second_path],
            tmp_path / "analysis",
            buckets=6,
            permutations=500,
        )
        analysis = json.loads((tmp_path / "analysis" / "analysis.json").read_text(encoding="utf-8"))
        comparison = analysis["occurrence_comparison"]
        assert comparison["n_shared"] == 60
        assert comparison["spearman"]["rho"] > 0.9
        assert "error" in comparison["granger"]  # 6 buckets is too short for lag 3

    def test_disjoint_occurrence_files_degenerate(self, tmp_path):
        ontology = make_ontology(20)
        concepts_path, occurrences_path = write_corpus(tmp_path, ontology)
        stranger_path = tmp_path / "stranger.csv"
        atomic_write_text(
            stranger_path,
            write_occurrences([OccurrenceRecord(f"GO:{i:07d}", "other", i) for i in range(5000, 5020)]),
        )
        run_probe(concepts_path, make_config(), tmp_path / "probe", profile=monotone_profile(ontology))
        with pytest.raises(DegenerateInputError, match="shared"):
            run_analyze(
                tmp_path / "probe" / "scored.ndjson",
                concepts_path,
                [occurrences_path, stranger_path],
                tmp_path / "analysis",
                buckets=4,
                permutations=100,
            )

    def test_occurrence_file_count_limits(self, tmp_path):
        ontology = make_ontology(5)
        concepts_path, occurrences_path = write_corpus(tmp_path, ontology)
        run_probe(concepts_path, make_config(), tmp_path / "probe", profile=monotone_profile(ontology))
        scored = tmp_path / "probe" / "scored.ndjson"
        with pytest.raises(ConfigurationError, match="at least one"):
            run_analyze(scored, concepts_path, [], tmp_path / "x", buckets=2)
        with pytest.raises(ConfigurationError, match="at most two"):
            run_analyze(
                scored,
                concepts_path,
                [occurrences_path, occurrences_path, occurrences_path],
                tmp_path / "x",
                buckets=2,
            )


class TestAnalyzeWorker:
    """analyze computes its statistics in one worker process (stats.worker)."""

    @staticmethod
    def _corpus(tmp_path, recall=None):
        ontology = make_ontology(60)
        concepts_path, occurrences_path = write_corpus(tmp_path, ontology)
        profile = monotone_profile(ontology) if recall is None else make_profile(ontology, recall=recall)
        run_probe(concepts_path, make_config(), tmp_path / "probe", profile=profile)
        return tmp_path / "probe" / "scored.ndjson", concepts_path, occurrences_path

    def test_statistics_run_in_the_worker(self, tmp_path, monkeypatch):
        calls = []
        compute = stats._compute

        def spy(core, *args):
            calls.append((core.__name__, stats._worker.get() is not None))
            return compute(core, *args)

        monkeypatch.setattr(stats, "_compute", spy)
        _, _, analysis = probe_then_analyze(tmp_path, n=60, buckets=6)
        assert calls == [("_spearman", True), ("_granger_f", True)]
        assert analysis["granger"]["error"].startswith("series too short for lag 3")

    @pytest.mark.parametrize(
        "failure, error",
        [(None, None), ("second file", ParseError), ("missing rows", ConfigurationError), ("constant", DegenerateInputError)],
    )
    def test_no_child_left_after_return_or_raise(self, tmp_path, failure, error):
        scored, concepts_path, occurrences_path = self._corpus(tmp_path, recall=1.0 if failure == "constant" else None)
        paths = [occurrences_path]
        if failure == "second file":
            paths.append(tmp_path / "second.csv")
            paths[1].write_text("concept_id,source,count\nGO:0000001,web,many\n", encoding="utf-8")
        elif failure == "missing rows":
            rows = occurrences_path.read_text(encoding="utf-8").splitlines()
            occurrences_path.write_text("\n".join(rows[:-5]) + "\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error) if error else contextlib.nullcontext():
                run_analyze(scored, concepts_path, paths, tmp_path / "analysis", buckets=6, permutations=200)
            gc.collect()
        assert multiprocessing.active_children() == []
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_pool_that_cannot_start_gives_the_same_analysis(self, tmp_path, monkeypatch):
        scored, concepts_path, occurrences_path = self._corpus(tmp_path)
        run_analyze(scored, concepts_path, [occurrences_path], tmp_path / "worker", buckets=12, permutations=500)

        def cannot_start(*args, **kwargs):
            raise OSError("no process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", cannot_start)
        run_analyze(scored, concepts_path, [occurrences_path], tmp_path / "in_process", buckets=12, permutations=500)
        worker = (tmp_path / "worker" / "analysis.json").read_bytes()
        assert (tmp_path / "in_process" / "analysis.json").read_bytes() == worker
        assert "f_statistic" in json.loads(worker)["granger"]


class TestInvarianceRun:
    def _setup(self, tmp_path, n=40):
        ontology = make_ontology(n)
        concepts_path, occurrences_path = write_corpus(tmp_path, ontology)
        profile = monotone_profile(ontology, temperature_sensitivity=1.0)
        return ontology, concepts_path, occurrences_path, profile

    def test_all_strategies_end_to_end(self, tmp_path):
        _, concepts_path, occurrences_path, profile = self._setup(tmp_path)
        manifest = run_invariance(
            concepts_path,
            make_config(seed=4),
            occurrences_path,
            tmp_path / "inv",
            buckets=4,
            k_sample=5,
            m_repeats=4,
            permutations=200,
            profile=profile,
        )
        report = json.loads((tmp_path / "inv" / "invariance_report.json").read_text(encoding="utf-8"))
        assert sorted(report["strategies"]) == ["PI1", "PI2", "PI3"]
        assert report["n_sampled"] == 20
        for name in ("pi1", "pi2", "pi3"):
            assert (tmp_path / "inv" / f"invariance_{name}.ndjson").exists()
        # temperature-0 repeats of a deterministic model never vary
        pi1 = report["strategies"]["PI1"]
        assert all(row["avpi"] == 1.0 for row in pi1["per_bucket"])
        assert pi1["avpi_accuracy_spearman"] == {"error": "constant series has no rank variance"}
        assert manifest.counts["answers_pi1"] == 20 * 4
        assert manifest.counts["answers_pi2"] == 20 * 11
        assert manifest.counts["answers_pi3"] == 20 * 5

    def test_spearman_tests_run_in_a_worker_without_scipy(self, tmp_path, monkeypatch):
        _, concepts_path, occurrences_path, profile = self._setup(tmp_path)
        opened, calls = [], []
        start, compute = stats._start, stats._compute

        def spy_start(libraries):
            opened.append(libraries)
            return start(libraries)

        def spy_compute(core, *args):
            calls.append((core.__name__, stats._worker.get() is not None))
            return compute(core, *args)

        monkeypatch.setattr(stats, "_start", spy_start)
        monkeypatch.setattr(stats, "_compute", spy_compute)
        run_invariance(concepts_path, make_config(seed=4), occurrences_path, tmp_path / "inv", buckets=4, k_sample=5,
                       m_repeats=4, permutations=200, profile=profile)
        assert opened == [("numpy.random",)]
        assert calls == [("_spearman", True)] * 3
        assert multiprocessing.active_children() == []

    def test_degenerate_statistic_leaves_no_reference_cycle(self, tmp_path):
        # The worker's DegenerateInputError, re-raised in the caller, must
        # not tie the stage's frames (and so its ontology) into a cycle:
        # under the CLI's collector pause that would keep them to the end.
        ontology, concepts_path, occurrences_path, _ = self._setup(tmp_path, n=60)
        profile = make_profile(ontology, recall=1.0)
        enabled = gc.isenabled()
        gc.collect()
        gc.garbage.clear()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_invariance(concepts_path, make_config(), occurrences_path, tmp_path / "inv", strategies=("PI1",),
                           buckets=4, k_sample=5, permutations=100, profile=profile)
            gc.collect()
            held = [o for o in gc.garbage if isinstance(o, Concept)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        report = json.loads((tmp_path / "inv" / "invariance_report.json").read_text(encoding="utf-8"))
        assert report["strategies"]["PI1"]["avpi_accuracy_spearman"] == {"error": "constant series has no rank variance"}
        assert held == []

    def test_strategy_subset(self, tmp_path):
        _, concepts_path, occurrences_path, profile = self._setup(tmp_path, n=20)
        run_invariance(
            concepts_path,
            make_config(),
            occurrences_path,
            tmp_path / "inv",
            strategies=("PI2",),
            buckets=2,
            k_sample=3,
            permutations=100,
            profile=profile,
        )
        report = json.loads((tmp_path / "inv" / "invariance_report.json").read_text(encoding="utf-8"))
        assert list(report["strategies"]) == ["PI2"]
        assert not (tmp_path / "inv" / "invariance_pi1.ndjson").exists()
        spearman_block = report["strategies"]["PI2"]["avpi_accuracy_spearman"]
        assert "rho" in spearman_block or "error" in spearman_block

    def test_unknown_strategy_rejected(self, tmp_path):
        _, concepts_path, occurrences_path, profile = self._setup(tmp_path, n=6)
        with pytest.raises(ValueError):
            run_invariance(
                concepts_path,
                make_config(),
                occurrences_path,
                tmp_path / "inv",
                strategies=("PI9",),
                profile=profile,
            )

    @pytest.mark.parametrize("option", ["permutations", "buckets", "k_sample"])
    def test_zero_permutations_rejected_before_any_call(self, tmp_path, option):
        _, concepts_path, occurrences_path, profile = self._setup(tmp_path, n=6)
        with pytest.raises(ConfigurationError, match=f"--{option.replace('_', '-')} must be positive"):
            run_invariance(concepts_path, make_config(), occurrences_path, tmp_path / "inv", profile=profile, **{option: 0})
        assert not (tmp_path / "inv").exists()

    def test_single_repeat_rejected_before_any_call(self, tmp_path):
        _, concepts_path, occurrences_path, _ = self._setup(tmp_path, n=6)
        calls = []

        def transport(url, payload, headers):
            calls.append(payload)
            return 200, {"choices": [{"message": {"content": "GO:0000001"}}]}

        config = ModelConfig(Provider.CHAT_HTTP, "m", endpoint="https://api.example.test", max_in_flight=1)
        with pytest.raises(ConfigurationError, match="--repeats must be at least 2"):
            run_invariance(
                concepts_path, config, occurrences_path, tmp_path / "inv",
                strategies=("PI2", "PI1"), buckets=3, k_sample=2, m_repeats=1, transport=transport,
            )
        assert calls == []
        assert not (tmp_path / "inv").exists()

    def test_style_and_permutations_enter_run_id(self, tmp_path):
        _, concepts_path, occurrences_path, profile = self._setup(tmp_path, n=12)
        ids = [
            run_invariance(
                concepts_path,
                make_config(),
                occurrences_path,
                tmp_path / f"inv{i}",
                strategies=("PI1",),
                buckets=3,
                k_sample=2,
                m_repeats=2,
                profile=profile,
                **kwargs,
            ).run_id
            for i, kwargs in enumerate(
                [
                    {"style": "CHAT", "permutations": 100},
                    {"style": "COMPLETION", "permutations": 100},
                    {"style": "CHAT", "permutations": 200},
                ]
            )
        ]
        assert len(set(ids)) == 3

    def test_deterministic_outputs(self, tmp_path):
        _, concepts_path, occurrences_path, profile = self._setup(tmp_path, n=24)
        for name in ("one", "two"):
            run_invariance(
                concepts_path,
                make_config(seed=8),
                occurrences_path,
                tmp_path / name,
                strategies=("PI2",),
                buckets=3,
                k_sample=4,
                permutations=100,
                profile=profile,
            )
        assert (tmp_path / "one" / "invariance_pi2.ndjson").read_bytes() == (
            tmp_path / "two" / "invariance_pi2.ndjson"
        ).read_bytes()
        assert (tmp_path / "one" / "invariance_report.json").read_bytes() == (
            tmp_path / "two" / "invariance_report.json"
        ).read_bytes()


class TestSimulate:
    def test_outputs_parse_and_connect(self, tmp_path):
        run_simulate(tmp_path / "sim", size=200, seed=9)
        ontology = load_ontology(tmp_path / "sim" / "concepts.csv")
        assert len(ontology.concepts) == 200
        profile = SyntheticProfile.from_file(tmp_path / "sim" / "profile.json")
        assert set(profile.memorization_curve) == {c.id for c in ontology.concepts}
        assert all(0.0 <= p <= 1.0 for p in profile.memorization_curve.values())
        config = ModelConfig.from_file(tmp_path / "sim" / "model_config.json")
        assert config.provider is Provider.SYNTHETIC
        assert Path(config.profile_path) == (tmp_path / "sim" / "profile.json").resolve()

    def test_probe_runs_off_simulated_config(self, tmp_path):
        run_simulate(tmp_path / "sim", size=80, seed=1)
        manifest = run_probe(
            tmp_path / "sim" / "concepts.csv",
            tmp_path / "sim" / "model_config.json",
            tmp_path / "probe",
        )
        assert manifest.counts["requested"] == 80
        assert 0 < manifest.counts["correct"] < 80

    def test_same_seed_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            run_simulate(tmp_path / name, size=120, seed=31)
        for filename in ("concepts.csv", "occurrences.csv", "profile.json", "model_config.json"):
            assert (tmp_path / "a" / filename).read_bytes() == (tmp_path / "b" / filename).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        run_simulate(tmp_path / "a", size=120, seed=31)
        run_simulate(tmp_path / "c", size=120, seed=32)
        assert (tmp_path / "a" / "occurrences.csv").read_bytes() != (
            tmp_path / "c" / "occurrences.csv"
        ).read_bytes()

    def test_heavy_tail_spans_orders_of_magnitude(self, tmp_path):
        manifest = run_simulate(tmp_path / "sim", size=500, seed=2, max_exponent=5.0)
        assert manifest.counts["max_count"] / manifest.counts["min_count"] >= 1000

    def test_recall_monotone_in_popularity(self, tmp_path):
        run_simulate(tmp_path / "sim", size=150, seed=4)
        profile = SyntheticProfile.from_file(tmp_path / "sim" / "profile.json")
        pairs = sorted((profile.popularity[cid], profile.memorization_curve[cid]) for cid in profile.popularity)
        recalls = [r for _, r in pairs]
        assert recalls == sorted(recalls)

    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ConfigurationError, match="size"):
            run_simulate(tmp_path / "x", size=0)
        with pytest.raises(ConfigurationError, match="max-exponent"):
            run_simulate(tmp_path / "x", max_exponent=0.0)
        with pytest.raises(ValueError):
            run_simulate(tmp_path / "x", hallucination_style="WILD")
        for sensitivity in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="^--temperature-sensitivity must be finite and non-negative$"):
                run_simulate(tmp_path / "x", temperature_sensitivity=sensitivity)
        assert not (tmp_path / "x").exists()


SUMMARY_METRICS = [
    "n_records",
    "accuracy",
    "mean_levenshtein",
    "n_levenshtein",
    "mean_jaccard",
    "n_jaccard",
    "unique_predicted",
    "pct_unique_invented",
    "pct_errors_from_invented",
    "spearman_rho",
    "spearman_p_value",
    "granger_f",
    "granger_p_value",
    "granger_lag",
    "bias_k",
    "bias_unassigned",
]


class TestReport:
    def _pipeline(self, tmp_path, with_invariance=False):
        ontology = make_ontology(120)
        concepts_path, occurrences_path = write_corpus(tmp_path, ontology)
        profile = monotone_profile(ontology, temperature_sensitivity=1.0)
        run_probe(concepts_path, make_config(seed=6), tmp_path / "probe", profile=profile)
        run_analyze(
            tmp_path / "probe" / "scored.ndjson",
            concepts_path,
            [occurrences_path],
            tmp_path / "analysis",
            buckets=6,
            permutations=500,
        )
        invariance_report = None
        if with_invariance:
            run_invariance(
                concepts_path,
                make_config(seed=6),
                occurrences_path,
                tmp_path / "inv",
                strategies=("PI2",),
                buckets=6,
                k_sample=4,
                permutations=100,
                profile=profile,
            )
            invariance_report = tmp_path / "inv" / "invariance_report.json"
        return tmp_path / "analysis" / "analysis.json", invariance_report

    def test_bucket_table_shape(self, tmp_path):
        analysis_path, _ = self._pipeline(tmp_path)
        run_report(analysis_path, tmp_path / "report")
        lines = (tmp_path / "report" / "bucket_table.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "bucket,mean_occurrence,accuracy,avpi_pi1,avpi_pi2,avpi_pi3,"
            "mean_levenshtein,mean_jaccard,r_bi"
        )
        assert len(lines) == 1 + 6
        # no invariance input: the AvPI columns stay empty
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[3] == cells[4] == cells[5] == ""

    def test_summary_metrics_pinned(self, tmp_path):
        analysis_path, _ = self._pipeline(tmp_path)
        run_report(analysis_path, tmp_path / "report")
        lines = (tmp_path / "report" / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "metric,value"
        assert [line.split(",")[0] for line in lines[1:]] == SUMMARY_METRICS

    def test_values_round_trip_exactly(self, tmp_path):
        analysis_path, _ = self._pipeline(tmp_path)
        run_report(analysis_path, tmp_path / "report")
        analysis = json.loads(analysis_path.read_text(encoding="utf-8"))
        rows = dict(
            line.split(",", 1)
            for line in (tmp_path / "report" / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
        )
        assert float(rows["accuracy"]) == analysis["overall"]["accuracy"]
        assert float(rows["spearman_rho"]) == analysis["spearman"]["rho"]
        assert int(rows["n_records"]) == analysis["n_records"]

    def test_invariance_column_filled(self, tmp_path):
        analysis_path, invariance_path = self._pipeline(tmp_path, with_invariance=True)
        run_report(analysis_path, tmp_path / "report", invariance_path=invariance_path)
        lines = (tmp_path / "report" / "bucket_table.csv").read_text(encoding="utf-8").splitlines()
        filled = [line.split(",")[4] for line in lines[1:]]
        assert all(cell != "" for cell in filled)
        assert all(0.0 <= float(cell) <= 1.0 for cell in filled)

    def test_invalid_analysis_json(self, tmp_path):
        bad = tmp_path / "analysis.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError, match="not valid JSON"):
            run_report(bad, tmp_path / "report")

    def test_missing_analysis_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            run_report(tmp_path / "absent.json", tmp_path / "report")


RUNNERS = {
    "ingest": run_ingest,
    "probe": run_probe,
    "analyze": run_analyze,
    "invariance": run_invariance,
    "simulate": run_simulate,
    "report": run_report,
}
# Keywords that say where a run writes and how it reaches the model; the
# model itself enters the run id through the manifest's `model` block.
NOT_IDENTITY = {"out_dir", "cache_path", "transport", "config", "profile"}


@pytest.fixture(scope="module")
def stage_runs(tmp_path_factory):
    """Every stage once, off one `simulate --size 300`: per command, the
    manifest on disk and the paths `runs.file_digest` read during the run."""
    root = tmp_path_factory.mktemp("stages")
    sim = root / "sim"
    (root / "go.obo").write_text(GO_OBO, encoding="utf-8")
    stages = {
        "simulate": lambda out: run_simulate(out, size=300, seed=4),
        "ingest": lambda out: run_ingest(root / "go.obo", "go", out),
        "probe": lambda out: run_probe(sim / "concepts.csv", sim / "model_config.json", out, kind="go"),
        "analyze": lambda out: run_analyze(
            root / "probe" / "scored.ndjson",
            sim / "concepts.csv",
            [sim / "occurrences.csv", sim / "occurrences.csv"],
            out,
            buckets=10,
            permutations=200,
        ),
        "invariance": lambda out: run_invariance(
            sim / "concepts.csv",
            sim / "model_config.json",
            sim / "occurrences.csv",
            out,
            strategies=("PI1",),
            buckets=10,
            k_sample=2,
            m_repeats=2,
            permutations=100,
        ),
        "report": lambda out: run_report(
            root / "analyze" / "analysis.json", out, invariance_path=root / "invariance" / "invariance_report.json"
        ),
    }
    file_digest = runs.file_digest
    digested: Counter = Counter()

    def counting_digest(path):
        digested[str(path)] += 1
        return file_digest(path)

    results = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runs, "file_digest", counting_digest)
        for command, run in stages.items():
            out = sim if command == "simulate" else root / command
            digested.clear()
            manifest = run(out)
            on_disk = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            assert on_disk["run_id"] == manifest.run_id
            results[command] = (on_disk, Counter(digested))
    return results


def _input_files(manifest: dict) -> list[dict]:
    entries = []
    for entry in manifest["inputs"].values():
        entries.extend(entry if isinstance(entry, list) else [] if entry is None else [entry])
    return entries


class TestRunIdentity:
    @pytest.mark.parametrize("command", sorted(RUNNERS))
    def test_manifest_records_every_keyword_once(self, stage_runs, command):
        manifest, _ = stage_runs[command]
        signature = set(inspect.signature(RUNNERS[command]).parameters)
        keywords = signature - NOT_IDENTITY
        assert not set(manifest["inputs"]) & set(manifest["parameters"])
        assert set(manifest["inputs"]) | set(manifest["parameters"]) == keywords - {"seed"}
        assert (manifest["seed"] is not None) == ("seed" in keywords)
        assert (manifest["model"] is not None) == ("config" in signature)

    @pytest.mark.parametrize("command", sorted(RUNNERS))
    def test_each_input_digested_once(self, stage_runs, command):
        manifest, digested = stage_runs[command]
        files = _input_files(manifest)
        assert sorted(digested.elements()) == sorted(entry["path"] for entry in files)
        for entry in files:
            assert entry["sha256"] == runs.file_digest(entry["path"])

    def test_model_block_names_the_answering_model(self, stage_runs):
        model = stage_runs["probe"][0]["model"]
        assert set(model) == {"provider", "model_name", "temperature", "identity"}
        assert [model["provider"], model["model_name"], model["temperature"]] == ["SYNTHETIC", "synthetic-memorizer", 0.0]
        assert re.fullmatch(r"[0-9a-f]{64}", model["identity"])
    def test_inputs_copied_elsewhere_keep_run_ids(self, tmp_path):
        run_simulate(tmp_path / "a", size=300, seed=4)
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        ids = {}
        for name in ("a", "b"):
            inputs = tmp_path / name
            probe = run_probe(inputs / "concepts.csv", inputs / "model_config.json", tmp_path / f"probe_{name}")
            invariance = run_invariance(
                inputs / "concepts.csv",
                inputs / "model_config.json",
                inputs / "occurrences.csv",
                tmp_path / f"invariance_{name}",
                strategies=("PI2",),
                buckets=10,
                k_sample=2,
                permutations=100,
            )
            ids[name] = (probe.run_id, invariance.run_id)
        scored = [(tmp_path / f"probe_{name}" / "scored.ndjson").read_bytes() for name in ("a", "b")]
        assert scored[0] == scored[1]
        assert ids["a"] == ids["b"]

    @pytest.mark.parametrize(
        "name, value",
        [("max_in_flight", 1), ("requests_per_minute", 600.0), ("max_attempts", 2), ("backoff_base", 0.0)],
    )
    def test_pacing_and_retry_settings_leave_run_id(self, tmp_path, name, value):
        ontology = make_ontology(20)
        concepts_path, _ = write_corpus(tmp_path, ontology)
        profile = make_profile(ontology, recall=0.5)
        base = run_probe(concepts_path, make_config(), tmp_path / "base", profile=profile)
        tuned_config = make_config()._replace(**{name: value})
        tuned = run_probe(concepts_path, tuned_config, tmp_path / "tuned", profile=profile)
        assert (tmp_path / "base" / "scored.ndjson").read_bytes() == (tmp_path / "tuned" / "scored.ndjson").read_bytes()
        assert base.run_id == tuned.run_id

    def test_profile_enters_run_id(self, tmp_path):
        ontology = make_ontology(20)
        concepts_path, _ = write_corpus(tmp_path, ontology)
        manifests = [
            run_probe(concepts_path, make_config(), tmp_path / f"r{recall}", profile=make_profile(ontology, recall=recall))
            for recall in (1.0, 0.0)
        ]
        assert [m.counts["correct"] for m in manifests] == [20, 0]
        assert manifests[0].run_id != manifests[1].run_id
