"""ID extraction patterns and normalizers."""

from __future__ import annotations

import random
import string

import pytest

from ontoprobe import (
    DEFAULT_PATTERNS,
    OntologyKind,
    extract_id,
    normalize_id,
)
from ontoprobe.ontology import ID_PATTERNS

SPEC_PATTERNS = {
    OntologyKind.GO: r"(?i)GO[\s:]*([0-9]{1,7})",
    OntologyKind.UBERON: r"(?i)UBERON[\s:_]*([0-9]{1,7})",
    OntologyKind.ICD10: r"(?i)\b([A-Z][0-9]{2}(?:\.?[0-9A-Z]{1,4})?)\b",
    OntologyKind.WIKIDATA: r"(?i)\bQ0*([0-9]+)\b",
}


def test_default_patterns_bit_exact():
    assert DEFAULT_PATTERNS == SPEC_PATTERNS


class TestNormalizeId:
    def test_go_zero_padding(self):
        assert normalize_id(OntologyKind.GO, "GO:1822") == "GO:0001822"
        assert normalize_id(OntologyKind.GO, "1822") == "GO:0001822"

    def test_icd_dotted_form(self):
        assert normalize_id(OntologyKind.ICD10, "C341") == "C34.1"
        assert normalize_id(OntologyKind.ICD10, "a00") == "A00"

    def test_wikidata_leading_zeros(self):
        assert normalize_id(OntologyKind.WIKIDATA, "q042") == "Q42"
        assert normalize_id(OntologyKind.WIKIDATA, "42") == "Q42"

    def test_overlong_numeric_part_absent(self):
        assert normalize_id(OntologyKind.GO, "12345678") is None
        assert normalize_id(OntologyKind.UBERON, "GO:0001822") is None

    def test_q_zero_absent(self):
        assert normalize_id(OntologyKind.WIKIDATA, "0") is None
        assert normalize_id(OntologyKind.WIKIDATA, "Q000") is None

    def test_idempotent(self):
        cases = [
            (OntologyKind.GO, "GO:1822"),
            (OntologyKind.UBERON, "UBERON_948"),
            (OntologyKind.ICD10, "e119"),
            (OntologyKind.WIKIDATA, "q042"),
        ]
        for kind, raw in cases:
            once = normalize_id(kind, raw)
            assert normalize_id(kind, once) == once

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError) as raised:
            normalize_id("CHEBI", "1")
        assert str(raised.value) == "unknown ontology kind 'CHEBI'"


class TestExtractId:
    def test_spec_examples(self):
        kind = OntologyKind.GO
        assert extract_id(kind, "The ID is GO:0001822.") == "GO:0001822"
        assert extract_id(kind, "go: 0001822") == "GO:0001822"
        assert extract_id(kind, "I don't know.") is None

    def test_newline_between_prefix_and_digits(self):
        assert extract_id(OntologyKind.GO, "GO:\n0001822") == "GO:0001822"

    def test_first_match_wins(self):
        assert extract_id(OntologyKind.GO, "GO:0000001 or maybe GO:0000002") == "GO:0000001"

    def test_idempotent_on_canonical_ids(self):
        canonical = {
            OntologyKind.GO: "GO:0001822",
            OntologyKind.UBERON: "UBERON:0000948",
            OntologyKind.ICD10: "C34.1",
            OntologyKind.WIKIDATA: "Q42",
        }
        for kind, concept_id in canonical.items():
            assert extract_id(kind, concept_id) == concept_id

    def test_qid_longer_than_int_conversion_limit(self):
        # int() refuses strings of more than 4300 digits by default.
        kind = OntologyKind.WIKIDATA
        qid = "Q" + "7" * 5000
        assert extract_id(kind, f"It is {qid}.") == qid
        assert extract_id(kind, "Q000" + "7" * 5000) == qid
        assert extract_id(kind, "Q" + "0" * 5000) is None

    def test_golden_file(self, golden_cases):
        for kind, raw_text, expected in golden_cases:
            assert extract_id(kind, raw_text) == expected, (kind, raw_text)

    def test_soundness_and_totality_fuzz(self):
        # Arbitrary text never raises; anything extracted is canonical.
        rng = random.Random(20240817)
        alphabet = string.ascii_letters + string.digits + " .:_-\"'\n()[]{}!?"
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
            for kind in OntologyKind:
                got = extract_id(kind, text)
                if got is not None:
                    assert ID_PATTERNS[kind].fullmatch(got), (kind, text, got)


@pytest.fixture
def golden_cases():
    import csv
    from pathlib import Path

    path = Path(__file__).parent / "data" / "extraction_golden.csv"
    cases = []
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            cases.append((OntologyKind(row["kind"]), row["raw_text"], row["expected"] or None))
    assert len(cases) == 20
    return cases

