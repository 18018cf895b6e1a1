"""Acceptance gate: one test per shipping criterion.

Each test carries its own independently written oracle (full-matrix edit
distance, hand-rolled tie-averaged ranks, planted causal series) so a
regression in the library cannot hide behind a shared helper. The
terminal summary prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import csv
import json
import random
import time
from pathlib import Path

import numpy as np

from conftest import make_config, make_ontology, make_profile
from ontoprobe import (
    ModelConfig,
    ModelGateway,
    OccurrenceRecord,
    OntologyKind,
    atomic_write_text,
    bias_ratio,
    bucketize,
    extract_id,
    granger_f,
    jaccard_label_similarity,
    levenshtein,
    parse_icd10,
    parse_obo,
    parse_wikidata_sample,
    pi_value,
    read_concept_table,
    read_occurrences,
    run_analyze,
    run_invariance,
    run_probe,
    run_simulate,
    spearman,
    write_concept_table,
    write_occurrences,
)


def reference_levenshtein(a: str, b: str) -> int:
    """Textbook full-matrix dynamic program, written independently."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            substitution = table[i - 1][j - 1] + (a[i - 1] != b[j - 1])
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1, substitution)
    return table[m][n]


def reference_average_ranks(values) -> list[float]:
    """Tie-averaged ranks computed from scratch (1-indexed)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def planted_causal_pair(seed: int, n: int = 60, lag: int = 3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = rng.normal(scale=0.1, size=n)
    y[lag:] += 0.8 * x[:-lag]
    return x, y


def test_criterion_1_edit_distance_and_label_overlap_oracles():
    started = time.perf_counter()
    rng = random.Random(20240819)
    alphabet = "GO:0123456789abcdefghij ._-"
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 21)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 21)))
        assert levenshtein(a, b) == reference_levenshtein(a, b)

    assert levenshtein("GO:0060219", "GO:0060519") == 1
    assert jaccard_label_similarity("heart valve morphogenesis", "heart trabecula morphogenesis") == 0.5
    assert jaccard_label_similarity("regulation of cell division", "regulation of cell motility") == 0.6

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s, limit 5s"


def test_criterion_2_prediction_invariance_formula():
    started = time.perf_counter()
    assert pi_value(10, 1) == 1.0
    assert pi_value(10, 10) == 0.0
    assert pi_value(10, 4) == 1.0 - 3 / 9
    assert pi_value(11, 4) == 1.0 - 3 / 10
    for m in range(1, 21):
        for u in range(1, m + 1):
            if m < 2:
                continue
            assert 0.0 <= pi_value(m, u) <= 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s, limit 1s"


def test_criterion_3_correlation_and_causality_calibration():
    started = time.perf_counter()

    # rank-then-Pearson reference agreement
    rng = np.random.default_rng(20240820)
    for trial in range(100):
        if trial % 2 == 0:
            x = rng.normal(size=50)
            y = rng.normal(size=50)
        else:
            x = rng.integers(0, 8, size=50).astype(float)
            y = rng.integers(0, 8, size=50).astype(float)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        expected = np.corrcoef(reference_average_ranks(list(x)), reference_average_ranks(list(y)))[0, 1]
        assert abs(spearman(x, y, n_permutations=1).rho - expected) < 1e-12

    # permutation p-value calibration under the null
    rejections = 0
    for trial in range(1000):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        result = spearman(x, y, n_permutations=999, seed=trial)
        rejections += result.p_value <= 0.05
    rate = rejections / 1000
    assert 0.03 <= rate <= 0.07, f"null rejection rate {rate} outside 0.05 +/- 0.02"

    # planted-lag causality: high power, bounded false alarms
    detected = sum(
        granger_f(*planted_causal_pair(seed), lag=3).p_value < 0.05 for seed in range(200)
    )
    assert detected >= 190, f"detected {detected}/200 planted signals, need >= 190"

    alarms = 0
    for seed in range(200):
        noise_rng = np.random.default_rng(100000 + seed)
        x = noise_rng.normal(size=60)
        y = noise_rng.normal(size=60)
        alarms += granger_f(x, y, lag=3).p_value < 0.05
    assert alarms <= 20, f"{alarms}/200 false alarms, limit 20"

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.2f}s, limit 120s"


def test_criterion_4_planted_memorization_recovered(tmp_path):
    started = time.perf_counter()
    sim = tmp_path / "sim"
    run_simulate(sim, size=5000, seed=20240821)
    run_probe(sim / "concepts.csv", sim / "model_config.json", tmp_path / "probe")
    run_analyze(
        tmp_path / "probe" / "scored.ndjson",
        sim / "concepts.csv",
        [sim / "occurrences.csv"],
        tmp_path / "analysis",
        buckets=50,
    )
    analysis = json.loads((tmp_path / "analysis" / "analysis.json").read_text(encoding="utf-8"))
    assert analysis["spearman"]["rho"] >= 0.9, f"rho {analysis['spearman']['rho']} below 0.9"
    assert analysis["spearman"]["p_value"] < 0.05

    # control: shuffling the occurrence counts must break the correlation
    occurrences = read_occurrences((sim / "occurrences.csv").read_text(encoding="utf-8"))
    counts = [r.count for r in occurrences]
    random.Random(1).shuffle(counts)
    shuffled = [
        OccurrenceRecord(r.concept_id, r.source_tag, count) for r, count in zip(occurrences, counts)
    ]
    atomic_write_text(tmp_path / "control.csv", write_occurrences(shuffled))
    run_analyze(
        tmp_path / "probe" / "scored.ndjson",
        sim / "concepts.csv",
        [tmp_path / "control.csv"],
        tmp_path / "control_analysis",
        buckets=50,
    )
    control = json.loads((tmp_path / "control_analysis" / "analysis.json").read_text(encoding="utf-8"))
    assert control["spearman"]["p_value"] >= 0.05, (
        f"shuffled control still significant: p={control['spearman']['p_value']}"
    )

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.2f}s, limit 120s"


def test_criterion_5_invariance_tracks_accuracy(tmp_path):
    started = time.perf_counter()
    sim = tmp_path / "sim"
    run_simulate(sim, size=2000, seed=7, temperature_sensitivity=1.0)
    run_invariance(
        sim / "concepts.csv",
        ModelConfig.from_file(sim / "model_config.json"),
        sim / "occurrences.csv",
        tmp_path / "inv",
        buckets=50,
        k_sample=5,
        m_repeats=5,
        permutations=2000,
        seed=3,
    )
    report = json.loads((tmp_path / "inv" / "invariance_report.json").read_text(encoding="utf-8"))

    pi1 = report["strategies"]["PI1"]
    assert all(row["avpi"] == 1.0 for row in pi1["per_bucket"]), "PI1 must be fully invariant at temperature 0"

    for name in ("PI2", "PI3"):
        block = report["strategies"][name]["avpi_accuracy_spearman"]
        assert "rho" in block, f"{name} correlation degenerate: {block}"
        assert block["rho"] >= 0.7, f"{name} rho {block['rho']} below 0.7"
        assert block["p_value"] < 0.05

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.2f}s, limit 120s"


def test_criterion_6_ontology_parsing_and_round_trip(
    go_obo_text, uberon_obo_text, icd_csv_text, wikidata_csv_text
):
    go = parse_obo(go_obo_text, "GO")
    assert {c.id for c in go.concepts} == {
        "GO:0001822",
        "GO:0060993",
        "GO:0060219",
        "GO:0060519",
        "GO:0003179",
        "GO:0061384",
        "GO:0051302",
        "GO:2000145",
    }
    assert "GO:0000005" in go.universe and "BFO:0000003" in go.universe
    assert len(go.universe) == 10

    uberon = parse_obo(uberon_obo_text, "UBERON")
    assert len(uberon.concepts) == 6
    assert all(c.id.startswith("UBERON:") for c in uberon.concepts)
    assert "CL:0000000" in uberon.universe and "BFO:0000002" in uberon.universe
    assert len(uberon.universe) == 8

    icd = parse_icd10(icd_csv_text, max_code_chars=4)
    assert {c.id for c in icd.concepts} == {"A00", "A00.0", "B01", "C34.1", "E11.9", "J45", "K21"}
    assert {"S72.001", "V97.33X", "T36.0X1"} <= icd.universe
    assert len(icd.universe) == 10

    wikidata = parse_wikidata_sample(wikidata_csv_text, None)
    assert len(wikidata.concepts) == 5

    for ontology in (go, uberon, icd, wikidata):
        text = write_concept_table(ontology)
        again = read_concept_table(text)
        assert again == ontology
        assert write_concept_table(again) == text


def test_criterion_7_extraction_golden_file():
    golden = Path(__file__).parent / "data" / "extraction_golden.csv"
    with golden.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    for row in rows:
        kind = OntologyKind(row["kind"])
        expected = row["expected"] or None
        got = extract_id(kind, row["raw_text"])
        assert got == expected, f"{kind.value}: {row['raw_text']!r} -> {got!r}, expected {expected!r}"


def test_criterion_8_repetition_bias_ratio():
    # worked example: 1000 concepts, bucket of 20, 10 of the top 500 land there
    records = [OccurrenceRecord(f"GO:{i:07d}", "corpus", i) for i in range(1, 1001)]
    assignment = bucketize(records, n_buckets=50)
    assert assignment.occupancy == tuple([20] * 50)
    top = [(f"GO:{i:07d}", 2) for i in range(101, 111)]  # 10 ids in bucket 6
    top += [(f"GO:{i:07d}", 1) for i in range(201, 691)]  # 490 elsewhere
    report = bias_ratio(assignment, top, k=500)
    bucket6 = report.per_bucket[5]
    assert bucket6.n_top == 10 and bucket6.bucket_size == 20
    assert bucket6.ratio == 1.0

    # conservation: every top-k ID is either in a bucket or counted unassigned
    rng = random.Random(20240822)
    for _ in range(50):
        n = rng.randrange(2, 400)
        occ = [OccurrenceRecord(f"GO:{i:07d}", "corpus", rng.randrange(1, 10**5)) for i in range(1, n + 1)]
        assignment = bucketize(occ, rng.randrange(1, 60))
        pool = [r.concept_id for r in occ] + [f"GO:9{i:06d}" for i in range(50)]
        repeated = [(cid, rng.randrange(1, 9)) for cid in rng.sample(pool, rng.randrange(1, len(pool)))]
        k = rng.randrange(1, 600)
        report = bias_ratio(assignment, repeated, k=k)
        assert sum(b.n_top for b in report.per_bucket) + report.unassigned == min(k, len(repeated))


def test_criterion_9_determinism_and_resume(tmp_path):
    # same master seed, two independent runs: byte-identical data outputs
    for name in ("a", "b"):
        sim = tmp_path / name / "sim"
        run_simulate(sim, size=400, seed=5)
        run_probe(sim / "concepts.csv", sim / "model_config.json", tmp_path / name / "probe")
        run_analyze(
            tmp_path / name / "probe" / "scored.ndjson",
            sim / "concepts.csv",
            [sim / "occurrences.csv"],
            tmp_path / name / "analysis",
            buckets=20,
            permutations=2000,
        )
    for relative in ("sim/concepts.csv", "sim/occurrences.csv", "probe/scored.ndjson", "analysis/analysis.json"):
        assert (tmp_path / "a" / relative).read_bytes() == (tmp_path / "b" / relative).read_bytes(), relative

    # interrupted probe: a truncated cache resumes to the identical output
    full_cache = (tmp_path / "a" / "probe" / "cache.ndjson").read_text(encoding="utf-8")
    lines = full_cache.splitlines(keepends=True)
    assert len(lines) == 400
    resumed = tmp_path / "resumed"
    resumed.mkdir()
    (resumed / "cache.ndjson").write_text("".join(lines[:150]), encoding="utf-8")
    manifest = run_probe(
        tmp_path / "a" / "sim" / "concepts.csv",
        tmp_path / "a" / "sim" / "model_config.json",
        resumed,
    )
    assert manifest.counts["from_cache"] == 150
    assert (resumed / "scored.ndjson").read_bytes() == (
        tmp_path / "a" / "probe" / "scored.ndjson"
    ).read_bytes()
    # the resumed cache converges to the same full set of responses
    assert len((resumed / "cache.ndjson").read_text(encoding="utf-8").splitlines()) == 400
