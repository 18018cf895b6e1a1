"""Properties that hold for every input: ID extraction and canonicalisation,
Wikidata correctness against IDs grouped by label, NDJSON and concept-table
round trips and encodings, edit distance, bucketing, response-cache keys and
lines, the JSON-line decoder against json.loads, completion cues, `simulate`'s
files against a record-built reference, the numpy/scipy.special statistics
against their scipy.stats references, and hostile model answers end to end."""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import random
import re
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from conftest import request_key, shipped_templates
from ontoprobe import (
    Concept,
    DegenerateInputError,
    HallucinationStyle,
    InvarianceRecord,
    Language,
    ModelConfig,
    ModelGateway,
    OccurrenceRecord,
    Ontology,
    OntologyKind,
    ParseError,
    ProbeRecord,
    PromptStyle,
    Provider,
    RenderedPrompt,
    ResponseCache,
    Strategy,
    SyntheticProfile,
    atomic_write_text,
    bucketize,
    canonical_icd10,
    default_recall_curve,
    derive_seed,
    extract_id,
    granger_f,
    is_correct,
    levenshtein,
    load_ontology,
    normalize_id,
    normalize_label,
    parse_icd10,
    parse_wikidata_sample,
    per_bucket_accuracy,
    pi_value,
    read_concept_table,
    read_occurrences,
    read_scored_records,
    render,
    run_analyze,
    run_invariance,
    run_probe,
    run_report,
    run_simulate,
    score,
    spearman,
    unique_answers,
    write_concept_table,
    write_invariance_records,
    write_occurrences,
    write_scored_records,
)
from ontoprobe import gateway as gateway_module
from ontoprobe import metrics as metrics_module
from ontoprobe.ontology import CANONICAL_HEADER, ID_PATTERNS, _json_line, _read_input
from ontoprobe.prompts import _CUE
from ontoprobe.runs import _load_occurrences
from ontoprobe.stats import _average_ranks

# Bounded so the suite stays quick; the deadline is generous because a
# loaded machine would otherwise turn a slow example into a failure.
BOUNDED = settings(max_examples=60, deadline=1000)

KINDS = st.sampled_from(list(OntologyKind))

# Arbitrary text plus fragments shaped like the IDs the patterns look for,
# so the normalizers see matches and near-misses, not just noise.
ID_LIKE = st.one_of(
    st.text(),
    st.from_regex(r"(?i)(GO|UBERON|Q)?[\s:_]{0,2}[0-9]{1,9}", fullmatch=True),
    st.from_regex(r"\s?[A-Za-z][0-9]{2}\.?[0-9A-Za-z]{0,5}\s?", fullmatch=True),
)


@BOUNDED
@given(kind=KINDS, text=st.one_of(st.text(), ID_LIKE.map(lambda s: f"the answer is {s}.")))
def test_extract_id_is_total(kind, text):
    predicted = extract_id(kind, text)
    assert predicted is None or ID_PATTERNS[kind].match(predicted)


@BOUNDED
@given(kind=KINDS, raw=ID_LIKE)
def test_normalize_id_is_idempotent(kind, raw):
    once = normalize_id(kind, raw)
    if once is not None:
        assert ID_PATTERNS[kind].match(once)
        assert normalize_id(kind, once) == once


@BOUNDED
@given(code=ID_LIKE)
def test_canonical_icd10_is_idempotent(code):
    once = canonical_icd10(code)
    if once is not None:
        assert ID_PATTERNS[OntologyKind.ICD10].match(once)
        assert canonical_icd10(once) == once


# Small value pools force ties, which is where average ranking can go wrong.
TIED_SERIES = st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 1e-300, 3.0, 7.25]), min_size=1, max_size=60)
FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@BOUNDED
@given(values=st.one_of(TIED_SERIES, st.lists(FINITE, min_size=1, max_size=60)))
def test_average_ranks_match_rankdata_bitwise(values):
    arr = np.asarray(values, dtype=float)
    assert _average_ranks(arr).tobytes() == scipy_stats.rankdata(arr, method="average").tobytes()


@BOUNDED
@given(
    lag=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_granger_p_value_is_f_survival_function(lag, data):
    n = data.draw(st.integers(min_value=3 * lag + 2, max_value=30))
    xs = data.draw(st.lists(FINITE, min_size=n, max_size=n))
    ys = data.draw(st.lists(FINITE, min_size=n, max_size=n))
    try:
        result = granger_f(xs, ys, lag=lag)
    except DegenerateInputError:
        assume(False)
    assert result.p_value == float(scipy_stats.f.sf(result.f_statistic, *result.df))


# str.splitlines() breaks at U+2028, U+2029 and U+0085; JSON leaves them
# unescaped, so only a "\n"-split reader gets these records back.
LABELS = st.text(min_size=1).filter(str.strip)


def one_concept_ontology(label: str) -> tuple[Concept, Ontology]:
    concept = Concept("GO:0000001", label, OntologyKind.GO)
    return concept, Ontology(OntologyKind.GO, (concept,), frozenset({concept.id, "GO:0000002"}))


@BOUNDED
@given(
    label=LABELS,
    predicted=st.sampled_from([None, "GO:0000001", "GO:0000002", "GO:1234567"]),
    raw_text=st.text(),
)
@example(label="x", predicted=None, raw_text="a\u2028b")
@example(label="y\u2029z", predicted="GO:0000002", raw_text="")
@example(label="w", predicted="GO:1234567", raw_text="\x85")
def test_scored_records_round_trip(label, predicted, raw_text):
    concept, ontology = one_concept_ontology(label)
    records = [score(ontology, concept, predicted, raw_text)] * 2
    assert read_scored_records(write_scored_records(records), ontology) == records


def reference_wikidata_is_correct(ontology: Ontology, concept: Concept, predicted: str | None) -> bool:
    """Wikidata correctness as a label index decided it: the ontology's
    concept IDs grouped by normalised label, and a prediction is correct
    when it is in the concept's group."""
    if predicted is None:
        return False
    groups: dict[str, set[str]] = {}
    for member in ontology.concepts:
        groups.setdefault(normalize_label(member.label), set()).add(member.id)
    return predicted in groups.get(normalize_label(concept.label), set())


# A few stems whose spellings differ only in case ("STRASSE" and "straße"
# casefold alike) or in their whitespace runs, plus any label, so that
# labels shared only once normalised are common.
CASINGS = st.sampled_from([str.lower, str.upper, str.title, str.swapcase, str.casefold])
BLANKS = st.text(alphabet=" \t\n\u00a0\u2028\u3000\x85", min_size=1, max_size=3)
STEMMED_LABELS = st.builds(
    lambda stem, casing, lead, gap, trail: lead + gap.join(casing(stem).split(" ")) + trail,
    st.sampled_from(["mercury", "java", "new york", "straße", "ǅemal ǆ", "a b c"]),
    CASINGS,
    st.one_of(st.just(""), BLANKS),
    BLANKS,
    st.one_of(st.just(""), BLANKS),
)
WIKIDATA_LABELS = st.one_of(STEMMED_LABELS, STEMMED_LABELS, LABELS)


@BOUNDED
@given(
    labels=st.lists(WIKIDATA_LABELS, min_size=1, max_size=8),
    qids=st.lists(st.integers(min_value=1, max_value=10**6), min_size=11, max_size=11, unique=True),
    extras=st.integers(min_value=0, max_value=2),
    outside_label=WIKIDATA_LABELS,
)
@example(
    labels=["Mercury", " mercury\t", "MERCURY ", "Venus"], qids=list(range(1, 12)), extras=1, outside_label="mercury"
)
@example(labels=["STRASSE", "straße", "New  York", "new york"], qids=list(range(1, 12)), extras=0, outside_label="x")
def test_wikidata_is_correct_equals_grouping_by_label(labels, qids, extras, outside_label):
    ids = [f"Q{qid}" for qid in qids]
    concepts = tuple(Concept(qid, label, OntologyKind.WIKIDATA) for qid, label in zip(ids, labels))
    extra_ids = ids[len(labels):len(labels) + extras]
    ontology = Ontology(OntologyKind.WIKIDATA, concepts, frozenset([c.id for c in concepts] + extra_ids))
    # Concept IDs, universe-only IDs, QIDs in neither (one is the outside
    # concept's own) and no answer at all.
    outside = Concept(ids[-1], outside_label, OntologyKind.WIKIDATA)
    predictions = [c.id for c in concepts] + extra_ids + [ids[-1], "Q2000000", None]
    for concept in (*concepts, outside):
        for predicted in predictions:
            expected = reference_wikidata_is_correct(ontology, concept, predicted)
            assert is_correct(ontology, concept, predicted) == expected, (concept, predicted)
            if concept is not outside:
                assert score(ontology, concept, predicted).correct == expected


def reference_invariance_ndjson(records) -> str:
    """The invariance file as first defined: json.dumps of each row's dict."""
    rows = (
        {
            "strategy": r.strategy.value,
            "source": r.concept.source.value,
            "gold_id": r.concept.id,
            "label": r.concept.label,
            "m": r.m,
            "answers": list(r.answers),
            "u": r.u,
            "pi": r.pi,
        }
        for r in records
    )
    return "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows)


def invariance_record(concept: Concept, strategy: Strategy, answers: list) -> InvarianceRecord:
    u = unique_answers(answers)
    return InvarianceRecord(concept, strategy, len(answers), tuple(answers), u, pi_value(len(answers), u))


# Up to 12 answers, so that pi takes values such as 1 - 1/3 and 1 - 4/11.
INVARIANCE_RECORDS = st.builds(
    invariance_record,
    concept=st.sampled_from([("GO:0000001", OntologyKind.GO), ("Q42", OntologyKind.WIKIDATA), ("A01", OntologyKind.ICD10)])
    .flatmap(lambda pair: st.builds(Concept, st.just(pair[0]), st.text().filter(str.strip), st.just(pair[1]))),
    strategy=st.sampled_from(list(Strategy)),
    answers=st.lists(st.one_of(st.none(), st.text()), min_size=2, max_size=12),
)


@BOUNDED
@given(records=st.lists(INVARIANCE_RECORDS, max_size=4))
@example(records=[invariance_record(Concept("GO:0000001", "x", OntologyKind.GO), Strategy.PI1, ["a\u2028b", None])])
@example(records=[invariance_record(Concept("GO:0000001", "y\u2029z", OntologyKind.GO), Strategy.PI2, ["GO:0000001"] * 2)])
@example(records=[invariance_record(Concept("GO:0000001", "w", OntologyKind.GO), Strategy.PI3, [None, "\x85"])])
def test_write_invariance_records_equals_reference(records):
    assert write_invariance_records(records) == reference_invariance_ndjson(records)


def reference_edit_distance(a: str, b: str) -> int:
    """Textbook recursive edit distance, memoised."""

    @functools.cache
    def d(i: int, j: int) -> int:
        if i == 0 or j == 0:
            return i + j
        return min(d(i - 1, j) + 1, d(i, j - 1) + 1, d(i - 1, j - 1) + (a[i - 1] != b[j - 1]))

    return d(len(a), len(b))


# A small alphabet makes shared substrings, and so nontrivial alignments, likely.
ID_STRINGS = st.text(alphabet="GO:0179", max_size=10)


@BOUNDED
@given(a=ID_STRINGS, b=ID_STRINGS, c=ID_STRINGS)
def test_levenshtein_is_a_metric_equal_to_reference(a, b, c):
    ab = levenshtein(a, b)
    assert ab == reference_edit_distance(a, b)
    assert (ab == 0) == (a == b)
    assert ab == levenshtein(b, a)
    assert levenshtein(a, c) <= ab + levenshtein(b, c)


# Arbitrary Unicode, astral characters included, mixed with a few shared
# characters so that long strings still align nontrivially; the long form is
# longer than one 64-bit machine word.
EDIT_CHARS = st.one_of(st.characters(), st.sampled_from("GO:07\u00e9\U0001f9ec\U0010ffff"))
EDIT_STRINGS = st.one_of(st.text(EDIT_CHARS, max_size=12), st.text(EDIT_CHARS, min_size=65, max_size=150))


@BOUNDED
@given(a=EDIT_STRINGS, b=EDIT_STRINGS)
@example(a="G" * 64 + "\U0001f9ec", b="G" * 65)
@example(a="\U0001f9ec" * 70, b="")
@example(a="GO:0000001", b="GO:0000001\U0001f9ec")
def test_levenshtein_equals_reference_on_unicode(a, b):
    assert levenshtein(a, b) == reference_edit_distance(a, b)


@BOUNDED
@given(
    counts=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=80),
    n_buckets=st.integers(min_value=1, max_value=60),
)
def test_bucketize_keeps_ties_together_and_covers_everyone(counts, n_buckets):
    occurrences = [OccurrenceRecord(f"GO:{i:07d}", "corpus", n) for i, n in enumerate(counts, start=1)]
    assignment = bucketize(occurrences, n_buckets)
    assert len(assignment.occupancy) == n_buckets
    assert sum(assignment.occupancy) == len(counts)
    bucket_of_count: dict[int, set[int]] = {}
    for r in occurrences:
        bucket_of_count.setdefault(r.count, set()).add(assignment.membership[r.concept_id])
    assert all(len(buckets) == 1 for buckets in bucket_of_count.values())
    ordered = [bucket_of_count[n].pop() for n in sorted(bucket_of_count)]
    assert ordered == sorted(ordered)


@BOUNDED
@given(
    data=st.data(),
    n_permutations=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_spearman_p_value_in_unit_interval(data, n_permutations, seed):
    n = data.draw(st.integers(min_value=3, max_value=30))
    xs = data.draw(st.lists(st.one_of(FINITE, st.sampled_from([0.0, 1.0])), min_size=n, max_size=n))
    ys = data.draw(st.lists(st.one_of(FINITE, st.sampled_from([0.0, 1.0])), min_size=n, max_size=n))
    try:
        result = spearman(xs, ys, n_permutations=n_permutations, seed=seed)
    except DegenerateInputError:
        assume(False)
    assert 0.0 < result.p_value <= 1.0


def reference_cache_key(provider, model_name, temperature, prompt_text, repetition_tag, identity) -> str:
    """The cache key as first defined: one json.dumps of the whole request,
    with lone surrogates (on which UTF-8 raises) encoded as their code points."""
    material = json.dumps(
        [provider.value, model_name, repr(float(temperature)), prompt_text, int(repetition_tag), identity],
        ensure_ascii=False,
    )
    return hashlib.sha256(material.encode("utf-8", "surrogatepass")).hexdigest()


# Characters JSON escapes, or that str.splitlines() breaks at, plus astral ones.
AWKWARD_CHARS = st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\u2029\x85\U0001f9ec\U0010ffff')
AWKWARD_TEXT = st.text(st.one_of(st.characters(), AWKWARD_CHARS))
TEMPERATURES = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0.0, 0.1, 0.7, 1.0, 5e-324]))
TAGS = st.integers(min_value=0, max_value=2**63)
TEMPLATE_KEY = (OntologyKind.WIKIDATA, PromptStyle.CHAT, Language.EN)


@BOUNDED
@given(
    provider=st.sampled_from(list(Provider)),
    model_name=AWKWARD_TEXT,
    temperature=TEMPERATURES,
    prompt_text=AWKWARD_TEXT,
    tag=TAGS,
    identity=AWKWARD_TEXT,
)
@example(provider=Provider.CHAT_HTTP, model_name="", temperature=0.0, prompt_text="", tag=0, identity="\ud800")
@example(provider=Provider.SYNTHETIC, model_name="m\udfff", temperature=0.5, prompt_text="\ud83d", tag=1, identity="")
def test_cache_key_equals_reference(provider, model_name, temperature, prompt_text, tag, identity):
    expected = reference_cache_key(provider, model_name, temperature, prompt_text, tag, identity)
    assert request_key(provider, model_name, temperature, prompt_text, tag, identity) == expected


@BOUNDED
@given(
    provider=st.sampled_from([Provider.CHAT_HTTP, Provider.COMPLETION_HTTP]),
    model_name=AWKWARD_TEXT,
    endpoint=AWKWARD_TEXT.map(lambda s: "https://" + s),
    requests=st.lists(st.tuples(TEMPERATURES, AWKWARD_TEXT, TAGS), min_size=1, max_size=4),
)
@example(
    provider=Provider.CHAT_HTTP, model_name="\ud800", endpoint="https://x", requests=[(0.0, "GO:1 \udc00", 0)]
)
def test_gateway_request_keys_equal_reference(provider, model_name, endpoint, requests):
    def transport(url, payload, headers):
        return 200, {"choices": [{"message": {"content": "a"}, "text": "a"}]}

    gateway = ModelGateway(ModelConfig(provider, model_name, endpoint=endpoint, max_in_flight=1), transport=transport)
    items = [(RenderedPrompt(TEMPLATE_KEY, "Q1", text), tag, temperature) for temperature, text, tag in requests]
    responses = gateway.complete_batch(items)
    assert [r.request_id for r in responses] == [
        reference_cache_key(provider, model_name, temperature, text, tag, gateway.identity)
        for temperature, text, tag in requests
    ]


# A concept label needs a non-space character.
AWKWARD_LABELS = AWKWARD_TEXT.filter(str.strip)
SCORED_CONCEPTS = st.builds(
    Concept,
    id=st.sampled_from(["GO:0000001", "GO:1234567"]),
    label=st.one_of(AWKWARD_LABELS, st.just("x")),
    source=st.just(OntologyKind.GO),
)


@st.composite
def probe_records(draw):
    predicted = draw(st.one_of(st.none(), AWKWARD_TEXT))
    correct = predicted is not None and draw(st.booleans())
    invented = predicted is not None and not correct and draw(st.booleans())
    return ProbeRecord(draw(SCORED_CONCEPTS), predicted, correct, invented, draw(AWKWARD_TEXT))


def reference_scored_ndjson(records) -> str:
    """The scored file as first defined: json.dumps of each row's dict."""
    rows = (
        {
            "source": r.concept.source.value,
            "gold_id": r.concept.id,
            "label": r.concept.label,
            "predicted_id": r.predicted,
            "correct": r.correct,
            "invented": r.invented,
            "raw_text": r.raw_text,
        }
        for r in records
    )
    return "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows)


@BOUNDED
@given(records=st.lists(probe_records(), max_size=5))
@example(records=[ProbeRecord(Concept("GO:0000001", 'a"\\\u2028', OntologyKind.GO), None, False, False, "\x85\x00")])
@example(records=[ProbeRecord(Concept("GO:0000001", "y\u2029z", OntologyKind.GO), "\U0001f9ec", False, True, "\x1f")])
def test_write_scored_records_equals_reference(records):
    assert write_scored_records(records) == reference_scored_ndjson(records)


# AWKWARD_TEXT less lone surrogates. A prompt's label and template come
# from UTF-8 files, which cannot hold one; an answer can (see below).
ENCODABLE_TEXT = st.text(st.one_of(st.characters(exclude_categories=["Cs"]), AWKWARD_CHARS))


def replace_lone_surrogates(text: str) -> str:
    return "".join("\ufffd" if 0xD800 <= ord(ch) <= 0xDFFF else ch for ch in text)


@BOUNDED
@given(
    rows=st.lists(st.tuples(ENCODABLE_TEXT, AWKWARD_TEXT), min_size=1, max_size=5),
    timestamp=st.one_of(st.floats(min_value=0.0, max_value=4e9), st.sampled_from([1700000000.123456, 0.1, 1e-7])),
)
@example(rows=[("p", "GO:0000001 \ud800"), ("q", "\udfff\U0001f9ec\ud83d")], timestamp=0.1)
def test_cache_line_equals_reference(rows, timestamp):
    """Answers of any text, lone surrogates included, enter through an HTTP
    gateway and are cached as the reference json.dumps line would hold them."""
    rows = list(dict(rows).items())
    answers = iter(raw for _prompt, raw in rows)

    def transport(url, payload, headers):
        return 200, {"choices": [{"message": {"content": next(answers)}}]}

    config = ModelConfig(Provider.CHAT_HTTP, "m", endpoint="https://api.example.test", max_in_flight=1)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(gateway_module.time, "time", return_value=timestamp):
        path = Path(tmp) / "cache.ndjson"
        cache = ResponseCache(path)
        gateway = ModelGateway(config, cache=cache, transport=transport)
        responses = [gateway.complete(RenderedPrompt(TEMPLATE_KEY, "Q1", prompt)) for prompt, _raw in rows]
        cache.close()
        stored = [replace_lone_surrogates(raw) for _prompt, raw in rows]
        assert [r.raw_text for r in responses] == stored
        expected = "".join(
            json.dumps({"key_hash": r.request_id, "prompt": p, "raw_text": raw, "timestamp": timestamp}, ensure_ascii=False)
            + "\n"
            for r, (p, _raw), raw in zip(responses, rows, stored)
        )
        assert path.read_text(encoding="utf-8") == expected
        again = ResponseCache(path)
        assert [again.get(r.request_id) for r in responses] == stored


CACHE_TIMESTAMPS = st.one_of(
    st.floats(min_value=0.0, max_value=4e9), st.sampled_from([1700000000.123456, 0.1, 1e-7, 5e-324, 1e22])
)


@BOUNDED
@given(
    rows=st.lists(st.tuples(st.binary(min_size=1, max_size=4), AWKWARD_TEXT, AWKWARD_TEXT), min_size=1, max_size=5),
    timestamp=CACHE_TIMESTAMPS,
)
@example(rows=[(b"k", 'a"\\\x00\x1f\x7f\u2028\x85\U0001f9ec\ud800', '\udfff"\\\n\u2029\U0010ffff')], timestamp=1e-7)
def test_put_rows_load_as_json_loads_reads_them(rows, timestamp):
    """Rows `put` wrote load without json.loads, to what json.loads makes of
    each: answers reach `put` as the gateway passes them, a lone surrogate
    as U+FFFD; the prompt may hold one, which `put` replaces."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(gateway_module.time, "time", return_value=timestamp):
        path = Path(tmp) / "cache.ndjson"
        cache = ResponseCache(path)
        for key, prompt, raw in rows:
            cache.put(hashlib.sha256(key).hexdigest(), prompt, replace_lone_surrogates(raw))
        cache.close()
        expected = {}
        for line in path.read_text(encoding="utf-8").split("\n")[:-1]:
            row = json.loads(line)
            expected[row["key_hash"]] = row["raw_text"]
        with mock.patch.object(gateway_module.json, "loads", side_effect=AssertionError("json.loads called")):
            loaded = ResponseCache(path)
    assert len(loaded) == len(expected)
    assert {key: loaded.get(key) for key in expected} == expected


# JSON values holding what the NDJSON readers meet: lone surrogates (dumped
# raw, or escaped under ensure_ascii), the separators json leaves unescaped,
# and the NaN and Infinity json.dumps writes for non-finite floats.
JSON_TEXT = st.text(st.one_of(st.characters(), AWKWARD_CHARS, st.sampled_from("\ud800\udfff\ud83d")), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), JSON_TEXT),
    lambda children: st.one_of(st.lists(children, max_size=3), st.dictionaries(JSON_TEXT, children, max_size=3)),
    max_leaves=6,
)
# JSON whitespace, whitespace JSON refuses, and a byte-order mark.
LINE_EDGES = st.text(st.sampled_from(" \t\r\n\x0b\x0c\xa0\u2028\x85\ufeff"), min_size=1, max_size=3)


@st.composite
def json_lines(draw) -> str:
    """One drawn value dumped compact, with spaces, with whitespace around it
    or with trailing garbage."""
    value, ensure_ascii = draw(JSON_VALUES), draw(st.booleans())
    layout = draw(st.sampled_from(["compact", "spaces", "edges", "garbage"]))
    if layout == "compact":
        return json.dumps(value, ensure_ascii=ensure_ascii, separators=(",", ":"))
    line = json.dumps(value, ensure_ascii=ensure_ascii, indent=draw(st.sampled_from([None, 0, 1])))
    if layout == "edges":
        return draw(st.one_of(st.just(""), LINE_EDGES)) + line + draw(LINE_EDGES)
    if layout == "garbage":
        return line + draw(st.text(st.one_of(AWKWARD_CHARS, st.sampled_from(']}",x0-eE.')), min_size=1, max_size=4))
    return line


def decoded(decode, line: str) -> tuple:
    """("value", repr of what `decode(line)` returns), or the type and message of what it raises."""
    try:
        return "value", repr(decode(line))
    except Exception as exc:
        return type(exc), str(exc)


@BOUNDED
@given(line=json_lines())
@example(line='{"a": NaN, "b": [Infinity, -Infinity]}')
@example(line='"\\ud800 \\udfff \\ud83d\\udc4d \u2028\x85"')
@example(line='"\ud800\u2028\x85"')
@example(line="Infinity ")
@example(line="\ufeff[1]")
@example(line="[1]\u2028")
@example(line='{"k": 1} x')
@example(line="")
def test_json_line_equals_json_loads(line):
    """`_json_line` returns what json.loads does, and raises what it raises,
    message included, for one JSON value however it is laid out."""
    assert decoded(_json_line, line) == decoded(json.loads, line)


@settings(max_examples=60, deadline=None)
@given(prompts=st.lists(ENCODABLE_TEXT, min_size=2, max_size=5, unique=True), data=st.data())
@example(prompts=["p\U0001f9ec", "q\u2028", "r"], data=None)
def test_cache_cut_in_its_last_two_lines_resumes_to_the_same_answers(prompts, data):
    """A cache cut at any byte of its last two lines (a kill mid-append, or
    a file truncated by hand) loads; lines kept whole still answer, each cut
    one is asked again, and the resumed file holds every key once."""

    def transport(url, payload, headers):
        return 200, {"choices": [{"message": {"content": "re: " + payload["messages"][0]["content"][::-1]}}]}

    config = ModelConfig(Provider.CHAT_HTTP, "m", endpoint="https://api.example.test", max_in_flight=1)
    requests = [RenderedPrompt(TEMPLATE_KEY, "Q1", prompt) for prompt in prompts]

    def answer_all(path):
        cache = ResponseCache(path)
        try:
            gateway = ModelGateway(config, cache=cache, transport=transport)
            return [gateway.complete(request) for request in requests]
        finally:
            cache.close()

    # A fixed clock keeps the rows, and so the range of cuts, the same when
    # hypothesis replays an example.
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(gateway_module.time, "time", return_value=1.5):
        path = Path(tmp) / "cache.ndjson"
        whole = answer_all(path)
        written = path.read_bytes()
        lines = written.split(b"\n")[:-1]
        start = len(written) - len(lines[-1]) - len(lines[-2]) - 2
        cut = start + 1 if data is None else data.draw(st.integers(min_value=start, max_value=len(written) - 1))
        path.write_bytes(written[:cut])
        resumed = answer_all(path)
        keys = [json.loads(line)["key_hash"] for line in path.read_text(encoding="utf-8").split("\n")[:-1]]
    kept = written[:cut].count(b"\n")
    assert [r.raw_text for r in resumed] == [r.raw_text for r in whole]
    assert [r.from_cache for r in resumed] == [i < kept for i in range(len(requests))]
    assert sorted(keys) == sorted(r.request_id for r in whole)


PROFILE_IDS = st.one_of(AWKWARD_TEXT, st.from_regex(r"GO:[0-9]{7}", fullmatch=True))


@st.composite
def synthetic_profiles(draw):
    """Profiles as `SyntheticProfile` accepts them. Besides the float recall and
    int popularity `from_dict` makes, a few values of other JSON types
    (an int or boolean recall, a float or boolean popularity) may appear."""
    ids = draw(st.lists(PROFILE_IDS, max_size=6, unique=True))
    recall = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0, 1, True]))
    counts = st.one_of(st.integers(min_value=0, max_value=2**70), st.sampled_from([2.5, False]))
    popular = draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
    universe = draw(st.one_of(st.none(), st.frozensets(PROFILE_IDS, max_size=3).map(lambda u: u | set(ids))))
    return SyntheticProfile(
        memorization_curve={cid: draw(recall) for cid in ids},
        hallucination_style=draw(st.sampled_from(list(HallucinationStyle))),
        popularity={cid: draw(counts) for cid in popular},
        temperature_sensitivity=draw(st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.sampled_from([0, 2]))),
        universe=universe,
    )


@BOUNDED
@given(profile=synthetic_profiles(), seed=st.one_of(st.integers(), AWKWARD_TEXT))
@example(
    profile=SyntheticProfile({"GO:0000002": 0.25, "GO:0000001": 1.0}, popularity={"GO:0000001": 7}, universe=None),
    seed=3,
)
@example(
    profile=SyntheticProfile(
        {"Q\u00e9\ud800": 0.5}, "POPULAR_ID", {"Q\u00e9\ud800": 2}, 1e300, frozenset({"x"})
    ),
    seed=-1,
)
@example(profile=SyntheticProfile({}, universe=frozenset()), seed=0)
@example(profile=SyntheticProfile({"GO:0000001": 1, "\u2028": True}, popularity={"\u2028": 2.5}), seed=0)
def test_synthetic_identity_equals_reference(profile, seed):
    """The identity as first defined: sha256 of one json.dumps of seed and
    profile. The same rows also write the profile file as json.dumps indents it."""
    expected = json.dumps({"seed": seed, "profile": profile.to_dict()}, sort_keys=True)
    assert gateway_module._synthetic_inputs_json(seed, profile) == expected
    file_text = json.dumps(profile.to_dict(), indent=2, sort_keys=True) + "\n"
    assert gateway_module._profile_json(profile, indent=True) == file_text
    # A model config takes only an integer seed; a gateway hashes those inputs.
    if type(seed) is int:
        gateway = ModelGateway(ModelConfig(Provider.SYNTHETIC, "m", seed=seed), profile=profile)
        assert gateway.identity == hashlib.sha256(expected.encode("utf-8")).hexdigest()


# Every field of a scored row with the types the reader accepts; `label` is
# not read from the row (the ontology's label is), so any type passes.
SCORED_FIELD_TYPES = {name: (types, wording) for name, types, wording in metrics_module._SCORED_FIELDS}
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    AWKWARD_TEXT,
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
SCORED_ONTOLOGY = Ontology(
    OntologyKind.GO,
    (Concept("GO:0000001", "a", OntologyKind.GO), Concept("GO:1234567", "b", OntologyKind.GO)),
    frozenset({"GO:0000001", "GO:1234567"}),
)


@BOUNDED
@given(
    records=st.lists(probe_records(), min_size=1, max_size=4),
    name=st.sampled_from(sorted([*SCORED_FIELD_TYPES, "label"])),
    data=st.data(),
)
def test_scored_row_with_one_field_of_another_type(records, name, data):
    """The per-field check's message names the field; a foreign `label` reads."""
    lines = write_scored_records(records).split("\n")[:-1]
    index = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    types, wording = SCORED_FIELD_TYPES.get(name, ((), ""))
    value = data.draw(JSON_VALUES.filter(lambda v: type(v) not in types))
    row = json.loads(lines[index])
    row[name] = value
    lines[index] = json.dumps(row, sort_keys=True, ensure_ascii=False)
    text = "\n".join(lines) + "\n"
    if name == "label":
        concepts = SCORED_ONTOLOGY.id_index
        expected = [
            ProbeRecord(concepts[r.concept.id], r.predicted, r.correct, r.invented, r.raw_text) for r in records
        ]
        assert read_scored_records(text, SCORED_ONTOLOGY) == expected
        return
    with pytest.raises(ParseError) as excinfo:
        read_scored_records(text, SCORED_ONTOLOGY)
    read_back = json.loads(lines[index])[name]
    assert str(excinfo.value) == (
        f"scored run: line {index + 1} is malformed: {name} must be {wording}, got {read_back!r}"
    )


def reference_normalize_id(kind: OntologyKind, raw_match: str) -> str | None:
    """normalize_id as first defined: each pattern formatted and looked up per call."""
    raw = raw_match.strip()
    if kind in (OntologyKind.GO, OntologyKind.UBERON):
        prefix = kind.value
        m = re.fullmatch(rf"(?:{prefix})?[\s:_]*([0-9]+)", raw, flags=re.IGNORECASE)
        if m is None or len(m.group(1)) > 7:
            return None
        return f"{prefix}:{m.group(1).zfill(7)}"
    if kind is OntologyKind.ICD10:
        m = re.fullmatch(r"([A-Z])([0-9]{2})(?:\.?([0-9A-Z]{1,4}))?", raw.upper())
        if m is None:
            return None
        head = m.group(1) + m.group(2)
        return head if m.group(3) is None else f"{head}.{m.group(3)}"
    m = re.fullmatch(r"Q?\s*0*([0-9]+)", raw, flags=re.IGNORECASE)
    if m is None:
        return None
    digits = m.group(1).lstrip("0")
    return f"Q{digits}" if digits else None


@BOUNDED
@given(kind=KINDS, raw=st.one_of(ID_LIKE, AWKWARD_TEXT, st.from_regex(r"(?i)\s*(go|uberon)?[\s:_]*[0-9]{0,9}\s*")))
@example(kind=OntologyKind.UBERON, raw="uberon_\t0042")
@example(kind=OntologyKind.GO, raw="GO:12345678")
@example(kind=OntologyKind.WIKIDATA, raw="q 000")
def test_normalize_id_equals_reference(kind, raw):
    assert normalize_id(kind, raw) == reference_normalize_id(kind, raw)


SAMPLE_IDS = {
    OntologyKind.GO: "GO:0000001",
    OntologyKind.UBERON: "UBERON:0000001",
    OntologyKind.ICD10: "A00",
    OntologyKind.WIKIDATA: "Q1",
}


@BOUNDED
@given(label=st.one_of(AWKWARD_LABELS, st.sampled_from(["is GO:", "UBERON: ", "GO:\n", "x GO:"])))
def test_template_cue_equals_cue_of_prompt(label):
    """Whatever the label, a rendered prompt ends on its template's cue and
    on no other: the cue taken from the template is the prompt's own."""
    for template in shipped_templates():
        concept = Concept(SAMPLE_IDS[template.ontology_kind], label, template.ontology_kind)
        m = _CUE.search(render(template, concept).text)
        assert template.cue == (m.group(0) if m else "")


# "\r" and "\n" inside a label, alone or paired, next to CSV's own specials.
# Table text is written to a UTF-8 file, which cannot hold a lone surrogate.
FILE_CHARS = st.characters(codec="utf-8")
TABLE_LABELS = (
    st.lists(st.one_of(FILE_CHARS, AWKWARD_CHARS, st.sampled_from(["\r", "\r\n", "\n\r", ",", '""'])), min_size=1)
    .map("".join)
    .filter(str.strip)
)


def reference_concept_table(ontology: Ontology) -> str:
    """The table as `write_concept_table` wrote it before it quoted "\r"."""
    kind = ontology.kind.value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(itertools.chain(
        [["source", "id", "label"]],
        [(kind, concept.id, concept.label) for concept in ontology.concepts],
        [(kind, extra, "") for extra in sorted(ontology.universe.difference(ontology.id_index))],
    ))
    return buf.getvalue()


# A field holding CSV's specials and line breaks. The readers strip IDs and
# source tags, so a field has no whitespace at either edge.
TABLE_FIELDS = (
    st.lists(st.one_of(FILE_CHARS, st.sampled_from(["\r", "\n", "\r\n", '"', ",", "\u2028", "\x85"])), min_size=1)
    .map(lambda parts: "".join(parts).strip())
    .filter(bool)
)


@BOUNDED
@given(
    kind=st.sampled_from([OntologyKind.GO, OntologyKind.WIKIDATA]),
    labels=st.lists(TABLE_LABELS, min_size=1, max_size=6, unique_by=normalize_label),
    extras=st.lists(TABLE_FIELDS, max_size=3),
)
@example(kind=OntologyKind.GO, labels=["typhoid\rfever"], extras=[])
@example(kind=OntologyKind.GO, labels=["typhoid\r\nfever"], extras=[])
@example(kind=OntologyKind.WIKIDATA, labels=["a\r", "\rb", "plain"], extras=["Q1000"])
@example(kind=OntologyKind.GO, labels=["plain"], extras=["x\ry", 'a,"b"\u2028c\x85d'])
def test_concept_table_round_trips(kind, labels, extras):
    """Universe-only rows carry no ID pattern, so their IDs hold the specials
    too. The table reads back the same from a file, as a stage reads it."""
    make_id = "GO:{:07d}".format if kind is OntologyKind.GO else "Q{}".format
    concepts = tuple(Concept(make_id(i), label, kind) for i, label in enumerate(labels, start=1))
    universe = frozenset([c.id for c in concepts] + extras)
    ontology = Ontology(kind, concepts, universe)
    text = write_concept_table(ontology)
    assert read_concept_table(text) == ontology
    assert write_concept_table(read_concept_table(text)) == text
    if "\r" not in "".join(labels + extras):
        assert text == reference_concept_table(ontology)
    with tempfile.TemporaryDirectory() as tmp:
        atomic_write_text(Path(tmp) / "concepts.csv", text)
        assert load_ontology(Path(tmp) / "concepts.csv") == ontology


@BOUNDED
@given(
    records=st.lists(
        st.builds(OccurrenceRecord, TABLE_FIELDS, st.one_of(st.just(""), TABLE_FIELDS), st.integers(min_value=0)),
        max_size=6,
        unique_by=lambda record: record.concept_id,
    )
)
@example(records=[OccurrenceRecord("GO:0000001", "web\rcounts", 3)])
@example(records=[OccurrenceRecord("GO:0000001", "web\r\ncounts", 3)])
@example(records=[OccurrenceRecord("a\rb", "", 0), OccurrenceRecord("c\u2028d", 'x,"y"\n\x85z', 7)])
def test_occurrences_round_trip(records):
    text = write_occurrences(records)
    assert read_occurrences(text) == records
    if records:  # a stage refuses an empty occurrence file
        with tempfile.TemporaryDirectory() as tmp:
            atomic_write_text(Path(tmp) / "occurrences.csv", text)
            assert _load_occurrences(Path(tmp) / "occurrences.csv")[0] == records
    if "\r" not in text:
        reference = io.StringIO()
        csv.writer(reference, lineterminator="\n").writerows(
            [["source", "id", "occurrences"], *([r.source_tag, r.concept_id, r.count] for r in records)]
        )
        assert text == reference.getvalue()


def table_file(rows: list, line_end: str, mark: bool) -> bytes:
    """`rows`, header first, as a CSV file with `line_end` after each row and
    minimal quoting, or every field quoted when one holds a line break, as a
    spreadsheet may save it; `mark` puts a UTF-8 byte-order mark in front."""
    breaks = any("\r" in field or "\n" in field for row in rows for field in map(str, row))
    buf = io.StringIO()
    csv.writer(buf, lineterminator=line_end, quoting=csv.QUOTE_ALL if breaks else csv.QUOTE_MINIMAL).writerows(rows)
    return b"\xef\xbb\xbf" * mark + buf.getvalue().encode("utf-8")


@BOUNDED
@given(
    labels=st.lists(TABLE_LABELS, min_size=1, max_size=5, unique_by=normalize_label),
    tags=st.lists(st.one_of(st.just(""), TABLE_FIELDS), min_size=5, max_size=5),
)
@example(labels=["typhoid\rfever", "a\r\nb"], tags=["web\rx", "", "", "", ""])
@example(labels=["plain", "rows"], tags=["web", "", "", "", ""])
def test_csv_inputs_read_alike_whatever_their_line_ends(labels, tags):
    """Each CSV stage input, saved with LF, CRLF or CR line ends, with or
    without a byte-order mark, reads as the same value."""
    numbers = range(1, len(labels) + 1)
    ids, codes, qids = [f"GO:{i:07d}" for i in numbers], [f"A{i:02d}" for i in numbers], [f"Q{i}" for i in numbers]
    tables = [
        (
            [CANONICAL_HEADER, *zip(["GO"] * len(ids), ids, labels)],
            load_ontology,
            Ontology(OntologyKind.GO, tuple(map(Concept, ids, labels, [OntologyKind.GO] * len(ids))), frozenset(ids)),
        ),
        (
            [["source", "id", "occurrences"], *zip(tags, ids, numbers)],
            lambda path: _load_occurrences(path)[0],
            list(map(OccurrenceRecord, ids, tags, numbers)),
        ),
        (
            [["code", "label"], *zip(codes, labels)],
            lambda path: parse_icd10(_read_input(path, "ICD10 source")[0]),
            Ontology(
                OntologyKind.ICD10,
                tuple(Concept(code, label.strip(), OntologyKind.ICD10) for code, label in zip(codes, labels)),
                frozenset(codes),
            ),
        ),
        (
            [["qid", "label", "qrank"], *zip(qids, labels, ["2.5"] * len(qids))],
            lambda path: parse_wikidata_sample(_read_input(path, "WIKIDATA source")[0]),
            Ontology(
                OntologyKind.WIKIDATA,
                tuple(Concept(qid, label.strip(), OntologyKind.WIKIDATA) for qid, label in zip(qids, labels)),
                frozenset(qids),
            ),
        ),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        for rows, read, expected in tables:
            for line_end, mark in itertools.product(["\n", "\r\n", "\r"], [False, True]):
                path.write_bytes(table_file(rows, line_end, mark))
                assert read(path) == expected, (line_end, mark)


def reference_simulate_files(size, seed, max_exponent, style, sensitivity) -> dict[str, str]:
    """The four files of `run_simulate` as its record-built loop wrote them:
    one Concept and one OccurrenceRecord per concept, an Ontology, and the
    record writers of the time."""
    derived = {label: derive_seed(seed, label) for label in ("simulate-counts", "synthetic-model")}
    rng = random.Random(derived["simulate-counts"])
    concepts, occurrence_records, counts = [], [], []
    for i in range(1, size + 1):
        concepts.append(Concept(f"GO:{i:07d}", f"synthetic concept {i:07d}", OntologyKind.GO))
        counts.append(max(1, round(10 ** rng.uniform(0.0, max_exponent))))
    max_count = max(counts)
    curve, popularity = {}, {}
    for concept, count in zip(concepts, counts):
        occurrence_records.append(OccurrenceRecord(concept.id, "synthetic", count))
        curve[concept.id] = default_recall_curve(count, max_count)
        popularity[concept.id] = count
    ontology = Ontology(OntologyKind.GO, tuple(concepts), frozenset(c.id for c in concepts))
    profile = SyntheticProfile(curve, style, popularity, sensitivity)
    occurrences = io.StringIO()
    writer = csv.writer(occurrences, lineterminator="\n")
    writer.writerow(["source", "id", "occurrences"])
    for r in occurrence_records:
        writer.writerow([r.source_tag, r.concept_id, r.count])
    model_config = {
        "provider": "SYNTHETIC",
        "model_name": "synthetic-memorizer",
        "temperature": 0.0,
        "seed": derived["synthetic-model"],
        "profile_path": "profile.json",
    }
    return {
        "concepts.csv": reference_concept_table(ontology),
        "occurrences.csv": occurrences.getvalue(),
        "profile.json": json.dumps(profile.to_dict(), indent=2, sort_keys=True) + "\n",
        "model_config.json": json.dumps(model_config, indent=2, sort_keys=True) + "\n",
    }


@BOUNDED
@given(
    size=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    max_exponent=st.one_of(st.floats(min_value=0.0, max_value=308.0, exclude_min=True), st.sampled_from([1e-300, 5.0])),
    style=st.sampled_from(list(HallucinationStyle)),
    sensitivity=st.one_of(st.floats(min_value=0.0, max_value=1e300), st.sampled_from([0.0, 0.5])),
)
@example(size=1, seed=0, max_exponent=5.0, style=HallucinationStyle.INVENTED, sensitivity=0.5)
@example(size=400, seed=3, max_exponent=308.0, style=HallucinationStyle.NEAR_MISS, sensitivity=0.0)
def test_simulate_equals_the_record_built_reference(size, seed, max_exponent, style, sensitivity):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        run_simulate(out, size, seed, max_exponent, style.value, sensitivity)
        names = ("concepts.csv", "occurrences.csv", "profile.json", "model_config.json")
        written = {name: (out / name).read_bytes().decode("utf-8") for name in names}
    assert written == reference_simulate_files(size, seed, max_exponent, style, sensitivity)
    ontology = read_concept_table(written["concepts.csv"])
    records = read_occurrences(written["occurrences.csv"])
    assert len(ontology.concepts) == len(ontology.universe) == len(records) == size
    assert write_occurrences(records) == write_occurrences([tuple(r) for r in records]) == written["occurrences.csv"]


# Answers of the kinds that once broke a stage after the model calls, each
# found alone: U+2028 in the cache loader, a lone surrogate in `put`, a
# 5,000-digit QID in `extract_id`, and a prompt two Wikidata QIDs share.
HOSTILE_CHARS = st.sampled_from(["\ud800", "\udfff", "\u2028", "\u2029", "\x85", "\x00", "\r", "\ufeff", '"', "\\"])
HOSTILE_TEXT = st.text(st.one_of(st.characters(), HOSTILE_CHARS, st.sampled_from("\U0001f9ec\U0010ffff\n")), max_size=6)
# An answer names the gold ID of its prompt's concept, another ID of up to
# 6,000 digits, or none.
HOSTILE_IDS = st.one_of(
    st.none(),
    st.just("gold"),
    st.builds(
        lambda prefix, digits, n: prefix + (digits * n)[:n],
        st.sampled_from(["GO:", "Q", "go_", "q "]),
        st.sampled_from(["7", "1234567890", "0"]),
        st.integers(min_value=1, max_value=6000),
    ),
)
HOSTILE_ANSWERS = st.lists(st.tuples(HOSTILE_TEXT, HOSTILE_IDS, HOSTILE_TEXT), min_size=1, max_size=6)
# 24 concepts of each kind, labelled "concept 0001", ...; QIDs 2j-1 and 2j
# share label j.
HOSTILE_CORPORA = {
    OntologyKind.GO: Ontology(
        OntologyKind.GO,
        tuple(Concept(f"GO:{i:07d}", f"concept {i:04d}", OntologyKind.GO) for i in range(1, 25)),
        frozenset(f"GO:{i:07d}" for i in range(1, 25)),
    ),
    OntologyKind.WIKIDATA: parse_wikidata_sample(
        "qid,label,qrank\n" + "".join(f"Q{i},concept {(i + 1) // 2:04d},{i}\n" for i in range(1, 25))
    ),
}


def stage_outputs(out: Path) -> dict[str, bytes]:
    """Every file a stage wrote to `out` but its manifest, which is stamped with the time."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir()) if path.name != "manifest.json"}


# About 50 ms an example on 2 vCPUs.
@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(HOSTILE_CORPORA)), answers=HOSTILE_ANSWERS)
@example(
    kind=OntologyKind.WIKIDATA,
    answers=[
        ("\ud800\u2028", "gold", "\u2029\x85\x00\r\ufeff\"\\\U0001f9ec"),
        ("", "Q" + "7" * 6000, "\udfff"),
        ("\n", None, ""),
    ],
)
@example(kind=OntologyKind.GO, answers=[("", "gold", ""), ("\U0010ffff", "GO:" + "1234567890" * 600, "\x85")])
@example(kind=OntologyKind.GO, answers=[("", None, "")])
def test_hostile_answers_resume_to_the_bytes_of_the_fresh_run(kind, answers):
    """A chat model giving any of the drawn answers, or a mix of them, leaves
    a pipeline whose resumed stages write the bytes of the fresh ones: probe,
    analyze, invariance and report, both NDJSON readers on the way. Each
    resume is answered wholly from the cache. analyze may refuse only a
    constant accuracy series."""
    ontology = HOSTILE_CORPORA[kind]
    gold = {concept.label: concept.id for concept in ontology.concepts}
    asked: Counter = Counter()

    def transport(url, payload, headers):
        # An answer is a function of the prompt, its temperature and how often
        # it was asked, so PI1's repeats may differ.
        content = payload["messages"][0]["content"]
        asked[content, payload["temperature"]] += 1
        material = f"{content}\0{payload['temperature']}\0{asked[content, payload['temperature']]}"
        prefix, named, suffix = answers[int(hashlib.sha256(material.encode("utf-8")).hexdigest(), 16) % len(answers)]
        named = gold[re.search(r"concept \d{4}", content).group()] if named == "gold" else named or ""
        return 200, {"choices": [{"message": {"content": prefix + named + suffix}}]}

    config = ModelConfig(Provider.CHAT_HTTP, "m", endpoint="https://api.example.test", max_in_flight=1)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        concepts_path, occurrences_path = tmp / "concepts.csv", tmp / "occurrences.csv"
        atomic_write_text(concepts_path, write_concept_table(ontology))
        occurrences = [OccurrenceRecord(c.id, "corpus", 3 * i * i + 1) for i, c in enumerate(ontology.concepts)]
        atomic_write_text(occurrences_path, write_occurrences(occurrences))

        def fresh_then_resumed(run, *args, **kwargs):
            """`run` into "<name>" and again into "<name>_resumed"; the second
            asks the model nothing."""
            name = run.__name__.removeprefix("run_")
            run(*args, tmp / name, cache_path=tmp / f"{name}.ndjson", transport=transport, **kwargs)
            calls = sum(asked.values())
            resumed = run(*args, tmp / f"{name}_resumed", cache_path=tmp / f"{name}.ndjson", transport=transport, **kwargs)
            assert sum(asked.values()) == calls
            assert stage_outputs(tmp / name) == stage_outputs(tmp / f"{name}_resumed")
            return resumed

        resumed = fresh_then_resumed(run_probe, concepts_path, config)
        assert resumed.counts["from_cache"] == resumed.counts["requested"] == len(ontology.concepts)
        fresh_then_resumed(
            run_invariance, concepts_path, config, occurrences_path, buckets=3, k_sample=2, m_repeats=2, permutations=20
        )

        scored = tmp / "probe" / "scored.ndjson"
        try:
            run_analyze(scored, concepts_path, [occurrences_path], tmp / "analysis", buckets=4, lag=1, permutations=20)
        except DegenerateInputError:
            records = read_scored_records(scored.read_text(encoding="utf-8"), ontology)
            assert len({acc for _bucket, acc in per_bucket_accuracy(bucketize(occurrences, 4), records)}) == 1
            return
        run_report(tmp / "analysis" / "analysis.json", tmp / "report", tmp / "invariance" / "invariance_report.json")
        assert sorted(stage_outputs(tmp / "report")) == ["bucket_table.csv", "summary.csv"]
