"""Properties of ID extraction and canonicalisation that hold for every input."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from ontoprobe import OntologyKind, canonical_icd10, default_rules, extract_id, normalize_id
from ontoprobe.ontology import ID_PATTERNS

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
