"""Run orchestration: the functions behind the CLI subcommands.

Every run writes its data outputs atomically (temp file + rename) plus a
manifest recording each input file with its sha256, the run's parameters,
seed and answering model, derived seeds, template keys, extraction
patterns, and counts. All randomness in a run flows from one
master seed, fanned out per purpose through derive_seed, so a single
integer reproduces an experiment byte for byte. Data outputs are
deterministic given (inputs, seed); the manifest additionally records a
wall-clock timestamp and cache-hit counts, which naturally differ
between a fresh run and a resumed one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from collections import Counter
from contextlib import closing, contextmanager
from pathlib import Path
from typing import NamedTuple

from . import invariance as inv
from .errors import ConfigurationError, DegenerateInputError, ParseError
from .extraction import DEFAULT_PATTERNS, completion_cue, extract_id
from .gateway import (
    HallucinationStyle,
    ModelConfig,
    ModelGateway,
    Provider,
    ResponseCache,
    SyntheticProfile,
    _read_json,
)
from .metrics import (
    ProbeRecord,
    _error_pairs,
    _mean_similarity,
    accuracy,
    error_similarity,  # noqa: F401 - not called here; perfbench/tracing.py rebinds it on this module
    hallucination_stats,
    levenshtein,  # noqa: F401 - likewise
    read_scored_records,
    repeated_id_counts,
    score,
    write_scored_records,
)
from .ontology import (
    Concept,
    Ontology,
    OntologyKind,
    parse_icd10,
    parse_obo,
    parse_wikidata_sample,
    read_concept_table,
    write_concept_table,
)
from .popularity import (
    OccurrenceRecord,
    bias_ratio,
    bucket_mean_counts,
    bucketize,
    per_bucket_accuracy,
    read_occurrences,
    write_occurrences,
)
from .prompts import Language, PromptStyle, render, template_for
from .stats import granger_f, spearman, worker as stats_worker

BUCKET_TABLE_HEADER = "bucket,mean_occurrence,accuracy,avpi_pi1,avpi_pi2,avpi_pi3,mean_levenshtein,mean_jaccard,r_bi"
SUMMARY_HEADER = "metric,value"


def derive_seed(master: int, label: str) -> int:
    """Stable per-purpose seed derived from the run's master seed."""
    digest = hashlib.sha256(f"{master}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename.

    The temp file is created with mode 0666 so the umask applies, as it
    would to a plain open().
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest(NamedTuple):
    run_id: str
    command: str
    timestamp: str
    inputs: dict
    parameters: dict
    seed: int | None
    model: dict | None
    ontology: dict | None
    template_keys: list[str]
    extraction_rules: dict[str, str]
    derived_seeds: dict[str, int]
    counts: dict[str, int]
    outputs: dict[str, str]


def _write_json(path: str | Path, data) -> None:
    atomic_write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _finish_run(out_dir: Path, command: str, inputs: dict, parameters: dict, seed=None, gateway=None, ontology=None,
                template_keys=(), extraction_rules=(), derived_seeds=(), counts=(), outputs=()):
    """Stamp, save and return the run's manifest. `inputs` (each a path, a list
    of paths or None) and `parameters` are keyed by run_* keyword. The run id
    hashes the command, the sha256 of each input, the parameters, the seed and
    the model that answered (`gateway`), not where the inputs lie."""
    recorded = {name: _input_entry(value) for name, value in inputs.items()}
    digests = {
        name: [e["sha256"] for e in entry] if isinstance(entry, list) else entry and entry["sha256"]
        for name, entry in recorded.items()
    }
    model = gateway and {
        "provider": gateway.config.provider.value,
        "model_name": gateway.config.model_name,
        "temperature": gateway.config.temperature,
        "identity": gateway.identity,
    }
    material = json.dumps([command, digests, parameters, seed, model], sort_keys=True)
    run_id = hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    manifest = RunManifest(
        run_id, command, stamp, recorded, parameters, seed, model, ontology, list(template_keys),
        dict(extraction_rules), dict(derived_seeds), dict(counts), dict(outputs),
    )
    _write_json(out_dir / "manifest.json", manifest._asdict())
    return manifest


def _input_entry(value):
    """An input's manifest entry: {"path", "sha256"}, a list of them, or None."""
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return [_input_entry(path) for path in value]
    return {"path": str(value), "sha256": file_digest(value)}


def _rule_digests() -> dict[str, str]:
    return {
        kind.value: hashlib.sha256(pattern.encode("utf-8")).hexdigest()
        for kind, pattern in DEFAULT_PATTERNS.items()
    }


def _ontology_descriptor(ontology: Ontology) -> dict:
    return {
        "kind": ontology.kind.value,
        "concept_count": len(ontology.concepts),
        "universe_count": len(ontology.universe),
    }


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def load_ontology(path: str | Path, kind: str | None = None) -> Ontology:
    """Read a canonical concept table, optionally checking its kind."""
    ontology = read_concept_table(_read_text(path))
    if kind is not None and ontology.kind is not OntologyKind(kind.upper()):
        raise ConfigurationError(f"{path} holds a {ontology.kind.value} table, expected {kind.upper()}")
    return ontology


def _load_occurrences(path: str | Path) -> list[OccurrenceRecord]:
    occurrences = read_occurrences(_read_text(path))
    if not occurrences:
        raise ParseError(f"{path} holds no occurrence records")
    return occurrences


def _require_positive(**values: int) -> None:
    """Reject a count option below 1 before the run does any work."""
    for name, value in values.items():
        if value < 1:
            raise ConfigurationError(f"--{name.replace('_', '-')} must be positive")


def _statistic(test, *args, fields: tuple[str, ...], **kwargs) -> dict:
    """The named fields of `test(*args, **kwargs)`, or {"error": reason}
    when the series cannot carry the statistic (too short, constant)."""
    try:
        result = test(*args, **kwargs)
    except (ValueError, DegenerateInputError) as exc:
        return {"error": str(exc)}
    return {name: getattr(result, name) for name in fields}


@contextmanager
def _open_gateway(config: ModelConfig, out_dir: Path, cache_path, profile, transport):
    """Gateway over the run's response cache (default <out_dir>/cache.ndjson);
    its connections and the cache's append handle are closed when the block ends."""
    cache = ResponseCache(cache_path if cache_path is not None else out_dir / "cache.ndjson")
    try:
        with closing(ModelGateway(config, profile=profile, cache=cache, transport=transport)) as gateway:
            yield gateway
    finally:
        cache.close()


def run_ingest(
    source_path: str | Path,
    kind: str,
    out_dir: str | Path,
    universe_path: str | Path | None = None,
    max_code_chars: int = 4,
) -> RunManifest:
    """Convert a source resource into the canonical concept table."""
    source_path = Path(source_path)
    out_dir = Path(out_dir)
    kind_enum = OntologyKind(kind.upper())
    text = _read_text(source_path)
    if kind_enum in (OntologyKind.GO, OntologyKind.UBERON):
        ontology = parse_obo(text, kind_enum.value)
    elif kind_enum is OntologyKind.ICD10:
        ontology = parse_icd10(text, max_code_chars=max_code_chars)
    else:
        universe_text = _read_text(universe_path) if universe_path else None
        ontology = parse_wikidata_sample(text, universe_text)

    concepts_path = out_dir / "concepts.csv"
    atomic_write_text(concepts_path, write_concept_table(ontology))
    return _finish_run(
        out_dir,
        "ingest",
        inputs={"source_path": source_path, "universe_path": universe_path},
        parameters={"kind": kind_enum.value, "max_code_chars": max_code_chars},
        ontology=_ontology_descriptor(ontology),
        counts={"concepts": len(ontology.concepts), "universe": len(ontology.universe)},
        outputs={"concepts": str(concepts_path)},
    )


def _style_for(config: ModelConfig, style: str | None) -> PromptStyle:
    if style is not None:
        return PromptStyle(style.upper())
    return PromptStyle.COMPLETION if config.provider is Provider.COMPLETION_HTTP else PromptStyle.CHAT


def run_probe(
    ontology_path: str | Path,
    config: ModelConfig | str | Path,
    out_dir: str | Path,
    sample: int | None = None,
    seed: int = 0,
    style: str | None = None,
    language: str = "EN",
    kind: str | None = None,
    cache_path: str | Path | None = None,
    transport=None,
    profile: SyntheticProfile | None = None,
) -> RunManifest:
    """Probe every concept (or a seeded sample) and write the scored run.

    Requests already present in the response cache are not re-issued, so
    an interrupted run picks up where it stopped. Requests that exhaust
    their retries are scored as wrong with an empty response and counted
    in the manifest; the CLI turns a nonzero failure count into exit
    code 4.
    """
    out_dir = Path(out_dir)
    if not isinstance(config, ModelConfig):
        config = ModelConfig.from_file(config)
    ontology = load_ontology(ontology_path, kind)
    if not ontology.concepts:
        raise ConfigurationError(f"{ontology_path} has no probeable concepts")

    prompt_style = _style_for(config, style)
    language = language.upper()
    template = template_for(ontology.kind, prompt_style, Language(language))

    concepts = list(ontology.concepts)
    derived: dict[str, int] = {}
    if sample is not None:
        _require_positive(sample=sample)
        if sample < len(concepts):
            derived["probe-sample"] = derive_seed(seed, "probe-sample")
            rng = random.Random(derived["probe-sample"])
            keep = sorted(rng.sample(range(len(concepts)), sample))
            concepts = [concepts[i] for i in keep]

    with _open_gateway(config, out_dir, cache_path, profile, transport) as gateway:
        prompts = [render(template, concept) for concept in concepts]
        responses = gateway.complete_batch([(p, 0, None) for p in prompts])

    cue = completion_cue(template.text)
    records: list[ProbeRecord] = []
    failed = 0
    cached = 0
    for concept, response in zip(concepts, responses):
        if response is None:
            failed += 1
            records.append(score(ontology, concept, None, ""))
            continue
        if response.from_cache:
            cached += 1
        records.append(score(ontology, concept, extract_id(ontology.kind, cue + response.raw_text), response.raw_text))

    scored_path = out_dir / "scored.ndjson"
    atomic_write_text(scored_path, write_scored_records(records))
    return _finish_run(
        out_dir,
        "probe",
        inputs={"ontology_path": ontology_path},
        parameters={"sample": sample, "style": prompt_style.value, "language": language, "kind": kind and kind.upper()},
        seed=seed,
        gateway=gateway,
        ontology=_ontology_descriptor(ontology),
        template_keys=[f"{ontology.kind.value}/{prompt_style.value}/{language}"],
        extraction_rules=_rule_digests(),
        derived_seeds=derived,
        counts={
            "requested": len(concepts),
            "completed": len(concepts) - failed,
            "failed": failed,
            "from_cache": cached,
            "correct": sum(1 for r in records if r.correct),
        },
        outputs={"scored": str(scored_path), "cache": str(gateway.cache.path)},
    )


def run_analyze(
    scored_path: str | Path,
    ontology_path: str | Path,
    occurrence_paths: list[str | Path],
    out_dir: str | Path,
    buckets: int = 50,
    lag: int = 3,
    permutations: int = 10000,
    top_k: int = 500,
    seed: int = 0,
    allow_missing: bool = False,
) -> RunManifest:
    """Bucketed popularity analysis of one scored run.

    The first occurrence file defines the buckets and the popularity
    series; a second file, when given, is compared against the first
    over shared concepts (same bucketing, per-bucket mean vs mean).
    """
    scored_path = Path(scored_path)
    out_dir = Path(out_dir)
    if not occurrence_paths:
        raise ConfigurationError("analyze requires at least one occurrence file")
    if len(occurrence_paths) > 2:
        raise ConfigurationError("analyze takes at most two occurrence files")
    _require_positive(buckets=buckets, lag=lag, permutations=permutations, top_k=top_k)

    # The statistics run in a worker process that loads numpy and scipy
    # while this one reads the inputs and does the per-record work.
    with stats_worker():
        ontology = load_ontology(ontology_path)
        records = read_scored_records(_read_text(scored_path), ontology)
        if not records:
            raise ParseError(f"{scored_path} holds no scored records")
        occurrences = _load_occurrences(occurrence_paths[0])

        assignment = bucketize(occurrences, buckets)
        missing = {r.concept.id for r in records if r.concept.id not in assignment.membership}
        excluded = 0
        if missing:
            if not allow_missing:
                shown = ", ".join(sorted(missing)[:5])
                raise ConfigurationError(
                    f"{len(missing)} scored concepts have no occurrence row (e.g. {shown}); "
                    "rerun with --allow-missing to exclude them"
                )
            kept = [r for r in records if r.concept.id not in missing]
            excluded = len(records) - len(kept)
            records = kept
            if not records:
                raise ConfigurationError("all scored records were excluded for missing occurrence rows")

        means = bucket_mean_counts(assignment, occurrences)
        acc_rows = per_bucket_accuracy(assignment, records)
        # One similarity pass over the wrong records; buckets and the overall
        # figures aggregate the same per-record values in record order.
        pairs = _error_pairs(ontology, records)
        pairs_by_bucket: dict[int, list] = {}
        for pair in pairs:
            pairs_by_bucket.setdefault(assignment.membership[pair[0].concept.id], []).append(pair)
        n_scored = Counter(assignment.membership[r.concept.id] for r in records)
        per_bucket = [
            {
                "bucket": bucket,
                "occupancy": assignment.occupancy[bucket - 1],
                "mean_occurrence": mean,
                "n_scored": n_scored[bucket],
                "accuracy": acc,
                **_mean_similarity(pairs_by_bucket.get(bucket, []))._asdict(),
            }
            for (bucket, acc), mean in zip(acc_rows, means)
        ]
        repeated = repeated_id_counts(records)
        bias = bias_ratio(assignment, repeated, top_k) if repeated else None
        overall = {
            "accuracy": accuracy(records),
            **_mean_similarity(pairs)._asdict(),
            **hallucination_stats(ontology, records)._asdict(),
        }

        series = [
            (bucket, mean, acc) for (bucket, acc), mean in zip(acc_rows, means) if acc is not None and mean is not None
        ]
        xs = [mean for _bucket, mean, _acc in series]
        ys = [acc for _bucket, _mean, acc in series]
        spearman_seed = derive_seed(seed, "analyze-spearman")
        correlation = spearman(xs, ys, n_permutations=permutations, seed=spearman_seed)
        # Granger needs a longer series than Spearman (3*lag + 2 points); a
        # short bucket series shouldn't take the correlation result with it.
        granger_block = {
            **_statistic(granger_f, xs, ys, lag=lag, fields=("f_statistic", "p_value", "n_effective", "df")),
            "lag": lag,
        }

        report = {
            "n_buckets": buckets,
            "n_records": len(records),
            "excluded_missing_occurrence": excluded,
            "overall": overall,
            "per_bucket": per_bucket,
            "spearman": {**correlation._asdict(), "series_buckets": [bucket for bucket, _mean, _acc in series]},
            "granger": granger_block,
            # json.dumps writes a NamedTuple as an array: the nested rows are converted too.
            "bias": None if bias is None else {**bias._asdict(), "per_bucket": [b._asdict() for b in bias.per_bucket]},
        }
        # Read only after the primary test, whose degenerate series exits first.
        if len(occurrence_paths) == 2:
            report["occurrence_comparison"] = _compare_occurrences(
                occurrences, Path(occurrence_paths[1]), buckets, permutations, derive_seed(seed, "analyze-comparison"), lag
            )

    analysis_path = out_dir / "analysis.json"
    _write_json(analysis_path, report)
    return _finish_run(
        out_dir,
        "analyze",
        inputs={"scored_path": scored_path, "ontology_path": ontology_path, "occurrence_paths": occurrence_paths},
        parameters={
            "buckets": buckets, "lag": lag, "permutations": permutations, "top_k": top_k, "allow_missing": allow_missing
        },
        seed=seed,
        ontology=_ontology_descriptor(ontology),
        derived_seeds={"analyze-spearman": spearman_seed},
        counts={"records": len(records), "excluded": excluded},
        outputs={"analysis": str(analysis_path)},
    )


def _compare_occurrences(
    primary: list[OccurrenceRecord],
    secondary_path: Path,
    buckets: int,
    permutations: int,
    seed: int,
    lag: int,
) -> dict:
    secondary = read_occurrences(_read_text(secondary_path))
    secondary_by_id = {r.concept_id: r for r in secondary}
    shared = [r for r in primary if r.concept_id in secondary_by_id]
    if len(shared) < 3:
        raise DegenerateInputError("fewer than 3 concepts shared between the two occurrence files")
    assignment = bucketize(shared, buckets)
    xs_all = bucket_mean_counts(assignment, shared)
    ys_all = bucket_mean_counts(assignment, [secondary_by_id[r.concept_id] for r in shared])
    xs = [x for x, y in zip(xs_all, ys_all) if x is not None and y is not None]
    ys = [y for x, y in zip(xs_all, ys_all) if x is not None and y is not None]
    correlation = spearman(xs, ys, n_permutations=permutations, seed=seed)
    return {
        "n_shared": len(shared),
        "spearman": {"rho": correlation.rho, "p_value": correlation.p_value},
        "granger": _statistic(granger_f, xs, ys, lag=lag, fields=("f_statistic", "p_value", "lag")),
    }


def run_invariance(
    ontology_path: str | Path,
    config: ModelConfig | str | Path,
    occurrence_path: str | Path,
    out_dir: str | Path,
    strategies: tuple[str, ...] = ("PI1", "PI2", "PI3"),
    buckets: int = 50,
    k_sample: int = 20,
    m_repeats: int = 10,
    permutations: int = 10000,
    seed: int = 0,
    style: str | None = None,
    cache_path: str | Path | None = None,
    transport=None,
    profile: SyntheticProfile | None = None,
) -> RunManifest:
    """Run the selected invariance strategies over a per-bucket sample.

    Writes one record file per strategy plus a report correlating AvPI
    with answer-level accuracy across buckets. A constant AvPI series
    (PI1 against a deterministic model) has no rank correlation; the
    report records that reason instead of a coefficient.
    """
    out_dir = Path(out_dir)
    _require_positive(buckets=buckets, k_sample=k_sample, permutations=permutations)
    # The permutation tests run in a worker process that loads numpy while
    # this one reads the inputs and runs the batches; it forks before the
    # gateway starts a thread. Spearman needs no scipy.
    with stats_worker(libraries=("numpy.random",)):
        if not isinstance(config, ModelConfig):
            config = ModelConfig.from_file(config)
        ontology = load_ontology(ontology_path)
        occurrences = _load_occurrences(occurrence_path)
        chosen = [inv.Strategy(s.upper()) for s in strategies]
        if not chosen:
            raise ConfigurationError("no invariance strategies selected")
        if inv.Strategy.PI1 in chosen and m_repeats < 2:
            raise ConfigurationError("--repeats must be at least 2")
        prompt_style = _style_for(config, style)

        assignment = bucketize(occurrences, buckets)
        sample_seed = derive_seed(seed, "invariance-sample")
        sampled = inv.sample_concepts(ontology, assignment, k=k_sample, seed=sample_seed)
        concepts = [c for bucket in sorted(sampled) for c in sampled[bucket]]
        if not concepts:
            raise ConfigurationError("sampling produced no concepts; occurrence file matches no ontology concepts")

        with _open_gateway(config, out_dir, cache_path, profile, transport) as gateway:
            outputs: dict[str, str] = {"cache": str(gateway.cache.path)}
            report: dict = {
                "n_buckets": buckets,
                "k_sample": k_sample,
                "n_sampled": len(concepts),
                "strategies": {},
            }
            counts: dict[str, int] = {"sampled": len(concepts)}
            for strategy in chosen:
                if strategy is inv.Strategy.PI1:
                    records = inv.run_pi1(gateway, concepts, m=m_repeats, style=prompt_style)
                elif strategy is inv.Strategy.PI2:
                    records = inv.run_pi2(gateway, concepts, style=prompt_style)
                else:
                    records = inv.run_pi3(gateway, concepts, style=prompt_style)
                path = out_dir / f"invariance_{strategy.value.lower()}.ndjson"
                atomic_write_text(path, inv.write_invariance_records(records))
                outputs[strategy.value.lower()] = str(path)
                counts[f"answers_{strategy.value.lower()}"] = sum(r.m for r in records)

                rows = inv.aggregate_avpi(records, assignment, ontology)
                if len(rows) < 3:
                    correlation = {"error": f"only {len(rows)} occupied buckets; correlation needs at least 3"}
                else:
                    correlation = _statistic(
                        spearman,
                        [row.avpi for row in rows],
                        [row.accuracy for row in rows],
                        n_permutations=permutations,
                        seed=derive_seed(seed, f"avpi-{strategy.value}"),
                        fields=("rho", "p_value"),
                    )
                report["strategies"][strategy.value] = {
                    "per_bucket": [{k: v for k, v in row._asdict().items() if k != "strategy"} for row in rows],
                    "avpi_accuracy_spearman": correlation,
                }

    languages = inv.DEFAULT_LANGUAGES if inv.Strategy.PI3 in chosen else (Language.EN,)
    report_path = out_dir / "invariance_report.json"
    _write_json(report_path, report)
    outputs["report"] = str(report_path)
    return _finish_run(
        out_dir,
        "invariance",
        inputs={"ontology_path": ontology_path, "occurrence_path": occurrence_path},
        parameters={
            "strategies": [s.value for s in chosen],
            "buckets": buckets,
            "k_sample": k_sample,
            "m_repeats": m_repeats,
            "permutations": permutations,
            "style": prompt_style.value,
        },
        seed=seed,
        gateway=gateway,
        ontology=_ontology_descriptor(ontology),
        template_keys=sorted(f"{ontology.kind.value}/{prompt_style.value}/{lang.value}" for lang in languages),
        extraction_rules=_rule_digests(),
        derived_seeds={"invariance-sample": sample_seed},
        counts=counts,
        outputs=outputs,
    )


def default_recall_curve(count: int, max_count: int) -> float:
    """Monotone recall curve: log-scaled occurrence share, capped at 1."""
    return min(1.0, math.log1p(count) / math.log1p(max_count))


def run_simulate(
    out_dir: str | Path,
    size: int = 1000,
    seed: int = 0,
    max_exponent: float = 5.0,
    hallucination_style: str = "INVENTED",
    temperature_sensitivity: float = 0.5,
) -> RunManifest:
    """Generate a synthetic GO-shaped ontology with a planted long tail.

    Occurrence counts are log-uniform (heavy-tailed like real web
    counts) and recall rises monotonically with popularity, so the
    planted correlation between popularity and accuracy is recoverable
    end to end. Also writes a ready-to-use SYNTHETIC model config.
    """
    out_dir = Path(out_dir)
    _require_positive(size=size)
    if max_exponent <= 0:
        raise ConfigurationError("--max-exponent must be positive")
    style = HallucinationStyle(hallucination_style.upper())
    if not 0 <= temperature_sensitivity < math.inf:
        raise ConfigurationError("--temperature-sensitivity must be finite and non-negative")

    derived = {label: derive_seed(seed, label) for label in ("simulate-counts", "synthetic-model")}
    rng = random.Random(derived["simulate-counts"])
    concepts = []
    occurrence_records = []
    counts = []
    for i in range(1, size + 1):
        concept_id = f"GO:{i:07d}"
        concepts.append(Concept(concept_id, f"synthetic concept {i:07d}", OntologyKind.GO))
        counts.append(max(1, round(10 ** rng.uniform(0.0, max_exponent))))
    max_count = max(counts)
    curve = {}
    popularity = {}
    for concept, count in zip(concepts, counts):
        occurrence_records.append(OccurrenceRecord(concept.id, "synthetic", count))
        curve[concept.id] = default_recall_curve(count, max_count)
        popularity[concept.id] = count

    ontology = Ontology(OntologyKind.GO, tuple(concepts), frozenset(c.id for c in concepts))
    profile = SyntheticProfile(
        memorization_curve=curve,
        hallucination_style=style,
        popularity=popularity,
        temperature_sensitivity=temperature_sensitivity,
    )
    model_config = {
        "provider": "SYNTHETIC",
        "model_name": "synthetic-memorizer",
        "temperature": 0.0,
        "seed": derived["synthetic-model"],
        "profile_path": "profile.json",
    }

    concepts_path = out_dir / "concepts.csv"
    occurrences_path = out_dir / "occurrences.csv"
    profile_path = out_dir / "profile.json"
    config_path = out_dir / "model_config.json"
    atomic_write_text(concepts_path, write_concept_table(ontology))
    atomic_write_text(occurrences_path, write_occurrences(occurrence_records))
    _write_json(profile_path, profile.to_dict())
    _write_json(config_path, model_config)
    return _finish_run(
        out_dir,
        "simulate",
        inputs={},
        parameters={
            "size": size,
            "max_exponent": max_exponent,
            "hallucination_style": style.value,
            "temperature_sensitivity": temperature_sensitivity,
        },
        seed=seed,
        derived_seeds=derived,
        counts={"concepts": size, "min_count": min(counts), "max_count": max_count},
        outputs={
            "concepts": str(concepts_path),
            "occurrences": str(occurrences_path),
            "profile": str(profile_path),
            "model_config": str(config_path),
        },
    )


def _format_cell(value) -> str:
    """A number or null as its CSV cell; any other JSON value raises ValueError."""
    if value is None:
        return ""
    if type(value) is float:
        return repr(value)
    if type(value) is int:
        return str(value)
    raise ValueError(f"a table cell must be a number or null, got {value!r}")


@contextmanager
def _malformed(what: str, path):
    """Report a part of a JSON file that is missing or of the wrong type as a ParseError."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{what} {path} has no {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"{what} {path} is malformed: {exc}") from exc


def run_report(
    analysis_path: str | Path,
    out_dir: str | Path,
    invariance_path: str | Path | None = None,
) -> RunManifest:
    """Flatten analysis (and optional invariance) JSON into plot-ready CSVs.

    bucket_table.csv has exactly n_buckets rows with the documented
    header; summary.csv is a two-column metric,value table.
    """
    out_dir = Path(out_dir)
    analysis = _read_json(analysis_path, "analysis file", ParseError)

    avpi: dict[str, dict[int, float]] = {"PI1": {}, "PI2": {}, "PI3": {}}
    if invariance_path is not None:
        invariance_report = _read_json(invariance_path, "invariance report", ParseError)
        with _malformed("invariance report", invariance_path):
            for name, strategy_report in invariance_report.get("strategies", {}).items():
                for row in strategy_report.get("per_bucket", []):
                    avpi.setdefault(name, {})[int(row["bucket"])] = float(row["avpi"])

    with _malformed("analysis file", analysis_path):
        ratios: dict[int, float | None] = {}
        if analysis.get("bias"):
            for row in analysis["bias"]["per_bucket"]:
                ratios[int(row["bucket"])] = row["ratio"]

        lines = [BUCKET_TABLE_HEADER]
        for row in analysis["per_bucket"]:
            bucket = int(row["bucket"])
            cells = [
                str(bucket),
                _format_cell(row.get("mean_occurrence")),
                _format_cell(row.get("accuracy")),
                _format_cell(avpi["PI1"].get(bucket)),
                _format_cell(avpi["PI2"].get(bucket)),
                _format_cell(avpi["PI3"].get(bucket)),
                _format_cell(row.get("mean_levenshtein")),
                _format_cell(row.get("mean_jaccard")),
                _format_cell(ratios.get(bucket)),
            ]
            lines.append(",".join(cells))
        bucket_table = "\n".join(lines) + "\n"

        overall = analysis["overall"]
        summary_rows = [
            ("n_records", analysis.get("n_records")),
            ("accuracy", overall.get("accuracy")),
            ("mean_levenshtein", overall.get("mean_levenshtein")),
            ("n_levenshtein", overall.get("n_levenshtein")),
            ("mean_jaccard", overall.get("mean_jaccard")),
            ("n_jaccard", overall.get("n_jaccard")),
            ("unique_predicted", overall.get("unique_predicted")),
            ("pct_unique_invented", overall.get("pct_unique_invented")),
            ("pct_errors_from_invented", overall.get("pct_errors_from_invented")),
            ("spearman_rho", analysis["spearman"].get("rho")),
            ("spearman_p_value", analysis["spearman"].get("p_value")),
            ("granger_f", analysis["granger"].get("f_statistic")),
            ("granger_p_value", analysis["granger"].get("p_value")),
            ("granger_lag", analysis["granger"].get("lag")),
            ("bias_k", analysis["bias"].get("k") if analysis.get("bias") else None),
            ("bias_unassigned", analysis["bias"].get("unassigned") if analysis.get("bias") else None),
        ]
        summary = "\n".join([SUMMARY_HEADER, *(f"{name},{_format_cell(value)}" for name, value in summary_rows)]) + "\n"

    bucket_path = out_dir / "bucket_table.csv"
    summary_path = out_dir / "summary.csv"
    atomic_write_text(bucket_path, bucket_table)
    atomic_write_text(summary_path, summary)

    return _finish_run(
        out_dir,
        "report",
        inputs={"analysis_path": analysis_path, "invariance_path": invariance_path},
        parameters={},
        counts={"bucket_rows": len(analysis["per_bucket"])},
        outputs={"bucket_table": str(bucket_path), "summary": str(summary_path)},
    )
