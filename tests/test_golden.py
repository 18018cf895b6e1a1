"""Byte-identity of every data output, pinned across changes.

One in-process chain writes each data output the pipeline has:
`simulate --size 3000 --seed 3`, then `probe` (CHAT over every concept and
a COMPLETION sample), `analyze` (plain, and with a share of occurrence rows
missing, a second occurrence source and `--allow-missing`), `invariance`
(CHAT, and COMPLETION for PI1 and PI2 only: completion templates exist in
English alone, and PI3 asks in five languages), `report`, a NEAR_MISS run (the Jaccard path) and
`ingest` of OBO, ICD-10 and Wikidata with a universe, each ingested table
probed once. Each file's sha256 must equal the value in
`data/golden_sha256.json`. The response cache holds timestamps, so only its
(key_hash, prompt, raw_text) rows are pinned.

A changed hash means a changed output: state the change, never re-pin to
make a change pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from conftest import ICD_CSV, WIKIDATA_CSV, make_config, make_profile
from ontoprobe import (
    HallucinationStyle,
    load_ontology,
    read_concept_table,
    run_analyze,
    run_ingest,
    run_invariance,
    run_probe,
    run_report,
    run_simulate,
    write_concept_table,
)

GOLDEN = Path(__file__).parent / "data" / "golden_sha256.json"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cache_rows_sha256(path: Path) -> str:
    """sha256 of the cache's (key_hash, prompt, raw_text) rows, in file order."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n") if line]
    material = json.dumps([[r["key_hash"], r["prompt"], r["raw_text"]] for r in rows], ensure_ascii=False)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _write_obo(concepts_csv: Path, out: Path, n: int) -> None:
    """The first n simulated concepts as GO terms, with an obsolete GO term
    and a foreign term after every 25th, which enter only the universe."""
    lines = ["format-version: 1.2", "ontology: go", ""]
    rows = [line.split(",", 2) for line in concepts_csv.read_text(encoding="utf-8").splitlines()[1 : n + 1]]
    for i, (_source, concept_id, label) in enumerate(rows, start=1):
        lines += ["[Term]", f"id: {concept_id} ! trailing comment", f"name: {label}", ""]
        if i % 25 == 0:
            lines += ["[Term]", f"id: GO:{9000000 + i:07d}", f"name: obsolete term {i}", "is_obsolete: true", ""]
            lines += ["[Term]", f"id: CHEBI:{i:05d}", f"name: imported term {i}", ""]
    lines += ["[Typedef]", "id: part_of", "name: part of", ""]
    out.write_text("\n".join(lines), encoding="utf-8")


def _split_occurrences(occurrences_csv: Path, partial: Path, second: Path) -> None:
    """`partial` drops every 9th row (11%); `second` is a second source with
    rescaled counts that lacks every 20th row."""
    header, *rows = occurrences_csv.read_text(encoding="utf-8").splitlines()
    partial.write_text("\n".join([header] + [r for i, r in enumerate(rows) if i % 9 != 4]) + "\n", encoding="utf-8")
    second_rows = []
    for i, row in enumerate(rows):
        _source, concept_id, count = row.split(",")
        if i % 20 != 7:
            second_rows.append(f"second,{concept_id},{int(count) * 3 // 2 + i % 5}")
    second.write_text("\n".join([header] + second_rows) + "\n", encoding="utf-8")


def golden_outputs(root: Path) -> dict[str, str]:
    """Run the chain under `root`; the sha256 of each data output by name."""
    files: dict[str, Path] = {}
    sim = root / "sim"
    run_simulate(sim, size=3000, seed=3)
    for name in ("concepts.csv", "occurrences.csv", "profile.json", "model_config.json"):
        files[f"simulate/{name}"] = sim / name
    concepts, config, occurrences = sim / "concepts.csv", sim / "model_config.json", sim / "occurrences.csv"

    run_probe(concepts, config, root / "probe", seed=3)
    run_probe(concepts, config, root / "probe_completion", seed=3, sample=500, style="COMPLETION")
    files["probe/scored.ndjson"] = root / "probe" / "scored.ndjson"
    files["probe_completion/scored.ndjson"] = root / "probe_completion" / "scored.ndjson"
    scored = files["probe/scored.ndjson"]

    run_analyze(scored, concepts, [occurrences], root / "analyze", buckets=25, permutations=2000, seed=3)
    partial, second = root / "partial.csv", root / "second.csv"
    _split_occurrences(occurrences, partial, second)
    run_analyze(
        scored, concepts, [partial, second], root / "analyze_missing",
        buckets=25, permutations=2000, seed=3, allow_missing=True,
    )
    files["analyze/analysis.json"] = root / "analyze" / "analysis.json"
    files["analyze_missing/analysis.json"] = root / "analyze_missing" / "analysis.json"

    small = {"buckets": 10, "k_sample": 5, "m_repeats": 4, "permutations": 2000, "seed": 3}
    run_invariance(concepts, config, occurrences, root / "invariance", **small)
    run_invariance(
        concepts, config, occurrences, root / "invariance_completion",
        strategies=("PI1", "PI2"), style="COMPLETION", **small,
    )
    for name in ("invariance_pi1.ndjson", "invariance_pi2.ndjson", "invariance_pi3.ndjson", "invariance_report.json"):
        files[f"invariance/{name}"] = root / "invariance" / name
    for name in ("invariance_pi1.ndjson", "invariance_pi2.ndjson", "invariance_report.json"):
        files[f"invariance_completion/{name}"] = root / "invariance_completion" / name

    run_report(files["analyze/analysis.json"], root / "report", root / "invariance" / "invariance_report.json")
    files["report/bucket_table.csv"] = root / "report" / "bucket_table.csv"
    files["report/summary.csv"] = root / "report" / "summary.csv"

    near = root / "near"
    run_simulate(near, size=1000, seed=3, hallucination_style="NEAR_MISS")
    run_probe(near / "concepts.csv", near / "model_config.json", near / "probe", seed=3)
    run_analyze(
        near / "probe" / "scored.ndjson", near / "concepts.csv", [near / "occurrences.csv"], near / "analyze",
        buckets=10, permutations=500, seed=3,
    )
    files["near/scored.ndjson"] = near / "probe" / "scored.ndjson"
    files["near/analysis.json"] = near / "analyze" / "analysis.json"

    obo, icd, wikidata, universe = root / "go.obo", root / "icd.csv", root / "wikidata.csv", root / "universe.txt"
    _write_obo(concepts, obo, 300)
    icd.write_text(ICD_CSV, encoding="utf-8")
    wikidata.write_text(WIKIDATA_CSV, encoding="utf-8")
    universe.write_text("Q1\nQ2\nQ42\nQ155\nQ308\nQ64\nQ90\n", encoding="utf-8")
    ingests = {
        "ingest_go": (obo, "go", {}),
        "ingest_icd4": (icd, "icd10", {}),
        "ingest_icd6": (icd, "icd10", {"max_code_chars": 6}),
        "ingest_wikidata": (wikidata, "wikidata", {"universe_path": universe}),
    }
    for run, (source, kind, options) in ingests.items():
        table = root / run / "concepts.csv"
        run_ingest(source, kind, root / run, **options)
        text = table.read_text(encoding="utf-8")
        assert write_concept_table(read_concept_table(text)) == text
        ontology = load_ontology(table)
        run_probe(
            table, make_config(seed=3), root / run / "probe", seed=3,
            profile=make_profile(ontology, recall=0.5, style=HallucinationStyle.POPULAR_ID),
        )
        files[f"{run}/concepts.csv"] = table
        files[f"{run}/scored.ndjson"] = root / run / "probe" / "scored.ndjson"

    hashes = {name: _sha256(path) for name, path in files.items()}
    hashes["probe/cache.ndjson rows"] = _cache_rows_sha256(root / "probe" / "cache.ndjson")
    hashes["invariance/cache.ndjson rows"] = _cache_rows_sha256(root / "invariance" / "cache.ndjson")
    return hashes


def test_data_outputs_match_pinned_hashes(tmp_path):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = golden_outputs(tmp_path)
    assert sorted(actual) == sorted(pinned)
    changed = {name: actual[name] for name in pinned if actual[name] != pinned[name]}
    assert not changed, f"data outputs changed: {sorted(changed)}"
