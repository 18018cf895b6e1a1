"""Properties that hold for every input: ID extraction and canonicalisation,
NDJSON round trips, edit distance, bucketing, and the numpy/scipy.special
statistics against their scipy.stats references."""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from ontoprobe import (
    Concept,
    DegenerateInputError,
    InvarianceRecord,
    OccurrenceRecord,
    Ontology,
    OntologyKind,
    Strategy,
    bucketize,
    canonical_icd10,
    default_rules,
    extract_id,
    granger_f,
    levenshtein,
    normalize_id,
    pi_value,
    read_invariance_records,
    read_scored_records,
    score,
    spearman,
    unique_answers,
    write_invariance_records,
    write_scored_records,
)
from ontoprobe.ontology import ID_PATTERNS
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
    predicted = extract_id(default_rules()[kind], text)
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


@BOUNDED
@given(
    label=LABELS,
    strategy=st.sampled_from(list(Strategy)),
    answers=st.lists(st.one_of(st.none(), st.text()), min_size=2, max_size=6),
)
@example(label="x", strategy=Strategy.PI1, answers=["a\u2028b", None])
@example(label="y\u2029z", strategy=Strategy.PI2, answers=["GO:0000001", "GO:0000001"])
@example(label="w", strategy=Strategy.PI3, answers=[None, "\x85"])
def test_invariance_records_round_trip(label, strategy, answers):
    concept, ontology = one_concept_ontology(label)
    u = unique_answers(answers)
    records = [InvarianceRecord(concept, strategy, len(answers), tuple(answers), u, pi_value(len(answers), u))] * 2
    assert read_invariance_records(write_invariance_records(records), ontology) == records


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
