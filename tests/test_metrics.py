"""Scoring, edit distance, label overlap, hallucination accounting."""

from __future__ import annotations

import json

import random

import pytest

from conftest import make_ontology
from ontoprobe import (
    Concept,
    OntologyKind,
    ParseError,
    ProbeRecord,
    accuracy,
    error_similarity,
    hallucination_stats,
    jaccard_label_similarity,
    levenshtein,
    read_scored_records,
    repeated_id_counts,
    score,
    write_scored_records,
)


class TestLevenshtein:
    def test_adjacent_go_ids(self):
        assert levenshtein("GO:0060219", "GO:0060519") == 1

    def test_classic_pairs(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("flaw", "lawn") == 2
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "") == 0
        assert levenshtein("same", "same") == 0

    def test_metric_properties(self):
        rng = random.Random(20240818)
        alphabet = "GO:0123456789ABC"
        strings = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12))) for _ in range(60)]
        for _ in range(300):
            a, b, c = (rng.choice(strings) for _ in range(3))
            d_ab = levenshtein(a, b)
            assert d_ab == levenshtein(b, a)
            assert (d_ab == 0) == (a == b)
            assert d_ab <= levenshtein(a, c) + levenshtein(c, b)
            assert abs(len(a) - len(b)) <= d_ab <= max(len(a), len(b))


class TestJaccard:
    def test_shared_structure_pairs(self):
        assert jaccard_label_similarity("heart valve morphogenesis", "heart trabecula morphogenesis") == 0.5
        assert jaccard_label_similarity("regulation of cell division", "regulation of cell motility") == 0.6

    def test_case_and_punctuation_folding(self):
        assert jaccard_label_similarity("Kidney Development,", "kidney development") == 1.0

    def test_disjoint_and_empty(self):
        assert jaccard_label_similarity("alpha beta", "gamma delta") == 0.0
        assert jaccard_label_similarity("", "") == 1.0
        assert jaccard_label_similarity("alpha", "") == 0.0

    def test_bounds_and_symmetry(self):
        rng = random.Random(7)
        words = ["cell", "kidney", "heart", "regulation", "of", "morphogenesis", "division"]
        for _ in range(200):
            a = " ".join(rng.choices(words, k=rng.randrange(0, 6)))
            b = " ".join(rng.choices(words, k=rng.randrange(0, 6)))
            s = jaccard_label_similarity(a, b)
            assert 0.0 <= s <= 1.0
            assert s == jaccard_label_similarity(b, a)


class TestScore:
    def test_exact_match_correct(self, go_ontology):
        concept = go_ontology.id_index["GO:0001822"]
        record = score(go_ontology, concept, "GO:0001822")
        assert record.correct and not record.invented

    def test_wrong_known_id(self, go_ontology):
        concept = go_ontology.id_index["GO:0001822"]
        record = score(go_ontology, concept, "GO:0060993")
        assert not record.correct and not record.invented

    def test_absent_prediction(self, go_ontology):
        concept = go_ontology.id_index["GO:0001822"]
        record = score(go_ontology, concept, None, raw_text="no idea")
        assert not record.correct and not record.invented
        assert record.predicted is None

    def test_invented_prediction(self, go_ontology):
        concept = go_ontology.id_index["GO:0001822"]
        record = score(go_ontology, concept, "GO:9999999")
        assert record.invented

    def test_obsolete_id_is_wrong_but_not_invented(self, go_ontology):
        # GO:0000005 is universe-only: a real ID, never a valid answer.
        concept = go_ontology.id_index["GO:0001822"]
        record = score(go_ontology, concept, "GO:0000005")
        assert not record.correct and not record.invented

    def test_wikidata_polysemy(self, wikidata_ontology):
        mercury = wikidata_ontology.id_index["Q155"]
        assert score(wikidata_ontology, mercury, "Q308").correct
        assert score(wikidata_ontology, mercury, "Q155").correct
        assert not score(wikidata_ontology, mercury, "Q2").correct

    def test_go_requires_exact_id_despite_shared_label(self, go_ontology):
        concept = go_ontology.id_index["GO:0003179"]
        assert not score(go_ontology, concept, "GO:0061384").correct

    def test_unknown_concept_rejected(self, go_ontology):
        stranger = Concept("GO:0008150", "biological process", OntologyKind.GO)
        with pytest.raises(ValueError, match="not part of the ontology"):
            score(go_ontology, stranger, "GO:0008150")


class TestProbeRecordInvariants:
    def test_correct_requires_prediction(self, go_ontology):
        concept = go_ontology.id_index["GO:0001822"]
        with pytest.raises(ValueError):
            ProbeRecord(concept, None, True, False)

    def test_invented_requires_wrong_prediction(self, go_ontology):
        concept = go_ontology.id_index["GO:0001822"]
        with pytest.raises(ValueError):
            ProbeRecord(concept, None, False, True)
        with pytest.raises(ValueError):
            ProbeRecord(concept, "GO:0001822", True, True)


class TestAccuracy:
    def test_absent_predictions_count_in_denominator(self, go_ontology):
        concept = go_ontology.id_index["GO:0001822"]
        records = [
            score(go_ontology, concept, "GO:0001822"),
            score(go_ontology, concept, None),
            score(go_ontology, concept, "GO:9999999"),
            score(go_ontology, concept, "GO:0060993"),
        ]
        assert accuracy(records) == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([])

    def test_product_with_count_is_integral(self):
        ontology = make_ontology(40)
        rng = random.Random(99)
        records = [
            score(ontology, c, c.id if rng.random() < 0.5 else None) for c in ontology.concepts
        ]
        n_correct = accuracy(records) * len(records)
        assert abs(n_correct - round(n_correct)) < 1e-9


class TestHallucinationStats:
    def test_two_repeats_one_invented(self):
        ontology = make_ontology(3)
        c1, c2, c3 = ontology.concepts
        records = [
            score(ontology, c1, "GO:0000002"),
            score(ontology, c3, "GO:0000002"),
            score(ontology, c2, "GO:0009999"),
        ]
        stats = hallucination_stats(ontology, records)
        assert stats.unique_predicted == 2
        assert stats.pct_unique_invented == 50.0
        assert stats.pct_errors_from_invented == pytest.approx(100.0 / 3.0)

    def test_all_correct_means_no_error_rate(self):
        ontology = make_ontology(3)
        records = [score(ontology, c, c.id) for c in ontology.concepts]
        stats = hallucination_stats(ontology, records)
        assert stats.unique_predicted == 3
        assert stats.pct_unique_invented == 0.0
        assert stats.pct_errors_from_invented is None

    def test_empty_records(self):
        ontology = make_ontology(2)
        stats = hallucination_stats(ontology, [])
        assert stats.unique_predicted == 0
        assert stats.pct_unique_invented is None
        assert stats.pct_errors_from_invented is None

    def test_absent_predictions_are_errors_but_not_vocabulary(self):
        ontology = make_ontology(4)
        c1, c2, c3, c4 = ontology.concepts
        records = [
            score(ontology, c1, None),
            score(ontology, c2, None),
            score(ontology, c3, "GO:9999999"),
            score(ontology, c4, c4.id),
        ]
        stats = hallucination_stats(ontology, records)
        assert stats.unique_predicted == 2
        # three errors, one of them invented
        assert stats.pct_errors_from_invented == pytest.approx(100.0 / 3.0)


class TestErrorSimilarity:
    def test_hand_case(self):
        ontology = make_ontology(3)
        c1, c2, _ = ontology.concepts
        records = [
            score(ontology, c1, "GO:0000002"),
            score(ontology, c2, "GO:9999999"),
            score(ontology, c1, c1.id),
            score(ontology, c2, None),
        ]
        sim = error_similarity(ontology, records)
        # two wrong predictions; only GO:0000002 has a label to compare
        assert sim.n_levenshtein == 2
        assert sim.n_jaccard == 1
        assert sim.mean_levenshtein == pytest.approx((1 + 7) / 2)
        # "synthetic concept 0000001" vs "synthetic concept 0000002"
        assert sim.mean_jaccard == 0.5

    def test_no_errors(self):
        ontology = make_ontology(2)
        records = [score(ontology, c, c.id) for c in ontology.concepts]
        sim = error_similarity(ontology, records)
        assert sim.mean_levenshtein is None and sim.mean_jaccard is None
        assert sim.n_levenshtein == 0 and sim.n_jaccard == 0

    def test_jaccard_subset_of_levenshtein(self):
        ontology = make_ontology(30)
        rng = random.Random(5)
        records = []
        for concept in ontology.concepts:
            roll = rng.random()
            if roll < 0.3:
                predicted = concept.id
            elif roll < 0.6:
                predicted = rng.choice(ontology.concepts).id
            elif roll < 0.8:
                predicted = f"GO:{rng.randrange(10**6, 10**7):07d}"
            else:
                predicted = None
            records.append(score(ontology, concept, predicted))
        sim = error_similarity(ontology, records)
        assert sim.n_jaccard <= sim.n_levenshtein


class TestRepeatedIdCounts:
    def test_ordering(self):
        ontology = make_ontology(3)
        c1, c2, c3 = ontology.concepts
        records = [
            score(ontology, c1, "GO:0000002"),
            score(ontology, c2, "GO:0000002"),
            score(ontology, c3, "GO:0000001"),
            score(ontology, c3, None),
        ]
        assert repeated_id_counts(records) == [("GO:0000002", 2), ("GO:0000001", 1)]

    def test_tie_broken_by_id(self):
        ontology = make_ontology(4)
        c1, c2, c3, c4 = ontology.concepts
        records = [
            score(ontology, c1, "GO:0000004"),
            score(ontology, c2, "GO:0000004"),
            score(ontology, c3, "GO:0000003"),
            score(ontology, c4, "GO:0000003"),
        ]
        assert repeated_id_counts(records) == [("GO:0000003", 2), ("GO:0000004", 2)]


class TestScoredRoundTrip:
    def _records(self, ontology):
        c1, c2, c3 = ontology.concepts[:3]
        return [
            score(ontology, c1, c1.id, raw_text="The ID is GO:0000001."),
            score(ontology, c2, "GO:9999999", raw_text='maybe "GO:9999999"?é'),
            score(ontology, c3, None, raw_text=""),
        ]

    def test_round_trip_equality(self):
        ontology = make_ontology(3)
        records = self._records(ontology)
        assert read_scored_records(write_scored_records(records), ontology) == records

    def test_serialization_is_stable(self):
        ontology = make_ontology(3)
        text = write_scored_records(self._records(ontology))
        assert write_scored_records(read_scored_records(text, ontology)) == text
        assert text.endswith("\n")

    def test_empty(self):
        ontology = make_ontology(1)
        assert write_scored_records([]) == ""
        assert read_scored_records("", ontology) == []

    def test_malformed_line_reported_with_number(self):
        ontology = make_ontology(3)
        text = write_scored_records(self._records(ontology))
        lines = text.splitlines()
        lines[1] = '{"gold_id": "GO:0000002"}'
        with pytest.raises(ParseError, match="line 2"):
            read_scored_records("\n".join(lines), ontology)

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("predicted_id", 1234, "predicted_id must be a string or null, got 1234"),
            ("correct", "false", "correct must be true or false, got 'false'"),
            ("correct", 0, "correct must be true or false, got 0"),
            ("invented", None, "invented must be true or false, got None"),
            ("gold_id", 2, "gold_id must be a string, got 2"),
            ("source", None, "source must be a string, got None"),
            ("raw_text", ["GO:0000002"], "raw_text must be a string, got ['GO:0000002']"),
        ],
    )
    def test_field_of_wrong_type_rejected(self, field, value, reason):
        ontology = make_ontology(3)
        rows = [json.loads(line) for line in write_scored_records(self._records(ontology)).splitlines()]
        rows[1][field] = value
        text = "".join(json.dumps(row) + "\n" for row in rows)
        with pytest.raises(ParseError) as excinfo:
            read_scored_records(text, ontology)
        assert str(excinfo.value) == f"scored run: line 2 is malformed: {reason}"

    @pytest.mark.parametrize("line", ["[1, 2]", '"GO:0000001"', "null"])
    def test_row_that_is_not_an_object_rejected(self, line):
        with pytest.raises(ParseError, match="line 1 is malformed: not a JSON object"):
            read_scored_records(line + "\n", make_ontology(3))

    @pytest.mark.parametrize(
        "relayout",
        [
            lambda row: " " + json.dumps(row) + "\t",
            lambda row: json.dumps(row) + "\r",
            lambda row: json.dumps(dict(reversed(list(row.items())))),
            lambda row: json.dumps({**row, "note": 1}),
            lambda row: json.dumps({**row, "label": None}),
            lambda row: json.dumps(row, indent=None, separators=(",", ":")),
        ],
    )
    def test_row_in_another_layout_reads_the_same(self, relayout):
        ontology = make_ontology(3)
        records = self._records(ontology)
        rows = [json.loads(line) for line in write_scored_records(records).splitlines()]
        assert read_scored_records("".join(relayout(row) + "\n" for row in rows), ontology) == records

    def test_text_after_the_row_rejected(self):
        ontology = make_ontology(3)
        line = write_scored_records(self._records(ontology)).splitlines()[0] + " x"
        with pytest.raises(ValueError) as reason:
            json.loads(line)
        with pytest.raises(ParseError) as excinfo:
            read_scored_records(line + "\n", ontology)
        assert str(excinfo.value) == f"scored run: line 1 is malformed: {reason.value}"

    def test_row_without_raw_text_reads_as_empty_answer(self):
        ontology = make_ontology(3)
        line = '{"correct": false, "gold_id": "GO:0000001", "invented": false, "predicted_id": null, "source": "GO"}'
        [record] = read_scored_records(line, ontology)
        assert record.raw_text == ""

    def test_unknown_concept_rejected(self):
        ontology = make_ontology(2)
        text = write_scored_records(self._records(make_ontology(3)))
        with pytest.raises(ParseError, match="unknown concept GO:0000003"):
            read_scored_records(text, ontology)

    def test_source_mismatch_rejected(self, icd_ontology):
        line = (
            '{"source": "GO", "gold_id": "A00", "label": "Cholera",'
            ' "predicted_id": null, "correct": false, "invented": false, "raw_text": ""}'
        )
        with pytest.raises(ParseError, match="has source GO"):
            read_scored_records(line, icd_ontology)

    def test_invariant_violation_rejected(self):
        ontology = make_ontology(1)
        line = (
            '{"source": "GO", "gold_id": "GO:0000001", "label": "synthetic concept 0000001",'
            ' "predicted_id": null, "correct": true, "invented": false, "raw_text": ""}'
        )
        with pytest.raises(ParseError, match="invariants"):
            read_scored_records(line, ontology)
