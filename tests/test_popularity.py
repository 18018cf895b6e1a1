"""Percentile bucketing over occurrence counts and the repeated-ID bias ratio."""

from __future__ import annotations

import random

import pytest

from conftest import make_ontology
from ontoprobe import (
    BucketAssignment,
    OccurrenceRecord,
    ParseError,
    bias_ratio,
    bucket_mean_counts,
    bucketize,
    per_bucket_accuracy,
    read_occurrences,
    score,
    write_occurrences,
)
from ontoprobe.popularity import by_bucket


def occ(i: int, count: int, tag: str = "corpus") -> OccurrenceRecord:
    return OccurrenceRecord(f"GO:{i:07d}", tag, count)


class TestOccurrenceIO:
    def test_round_trip(self):
        records = [occ(1, 5), occ(2, 0), occ(3, 123456)]
        assert read_occurrences(write_occurrences(records)) == records

    def test_byte_stable(self):
        records = [occ(1, 5), occ(2, 7)]
        text = write_occurrences(records)
        assert write_occurrences(read_occurrences(text)) == text

    def test_header_line(self):
        assert write_occurrences([]).splitlines()[0] == "source,id,occurrences"

    def test_wrong_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            read_occurrences("id,source,occurrences\nGO:0000001,corpus,3\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            read_occurrences("")

    def test_duplicate_id_rejected(self):
        text = "source,id,occurrences\ncorpus,GO:0000001,3\ncorpus,GO:0000001,4\n"
        with pytest.raises(ParseError, match="row 3 duplicates"):
            read_occurrences(text)

    def test_non_integer_count_rejected(self):
        text = "source,id,occurrences\ncorpus,GO:0000001,many\n"
        with pytest.raises(ParseError, match="row 2 has non-integer"):
            read_occurrences(text)

    def test_negative_count_rejected(self):
        text = "source,id,occurrences\ncorpus,GO:0000001,-1\n"
        with pytest.raises(ParseError, match="row 2"):
            read_occurrences(text)

    def test_blank_lines_skipped(self):
        text = "source,id,occurrences\n\ncorpus,GO:0000001,3\n\n"
        assert len(read_occurrences(text)) == 1

    def test_field_count_enforced(self):
        text = "source,id,occurrences\ncorpus,GO:0000001\n"
        with pytest.raises(ParseError, match="row 2 has 2 fields"):
            read_occurrences(text)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("c,GO:1,1\nc,GO:1,2\nc,GO:3,3\nc,,4", "occurrence file: row 3 duplicates id GO:1"),
            ("c,GO:1,1\nc,,2\nc,GO:3,3\nc,GO:1,4", "occurrence file: row 3 has an empty id"),
            ("c,GO:1,1\nc,GO:2,many\nc,GO:3,3\nc,GO:1,4", "occurrence file: row 3 has non-integer count 'many'"),
            ("c,GO:1,1\nc,GO:2,-2\nc,GO:3,3\nc,GO:4", "occurrence file: row 3: negative occurrence count for GO:2"),
            ("c,GO:1,1\nc,GO:2\nc,GO:3,3\nc,GO:4,-4", "occurrence file: row 3 has 2 fields, expected 3"),
        ],
    )
    def test_first_faulty_row_is_named(self, rows, message):
        # Faults on rows 3 and 5: the earlier one is named, whatever either is.
        with pytest.raises(ParseError) as excinfo:
            read_occurrences(f"source,id,occurrences\n{rows}\n")
        assert str(excinfo.value) == message

    def test_fields_are_stripped_and_counts_parsed(self):
        records = read_occurrences("source,id,occurrences\n web , GO:0000001 , 12 \nweb,GO:0000002,+3\n")
        assert records == [occ(1, 12, "web"), occ(2, 3, "web")]


class TestBucketize:
    def test_counts_one_to_ten_in_five_buckets(self):
        records = [occ(i, i) for i in range(1, 11)]
        assignment = bucketize(records, n_buckets=5)
        assert assignment.boundaries == (2, 4, 6, 8)
        assert assignment.occupancy == (2, 2, 2, 2, 2)
        assert assignment.membership.get("GO:0000001") == 1
        assert assignment.membership.get("GO:0000005") == 3
        assert assignment.membership.get("GO:0000010") == 5
        assert assignment.membership.get("GO:9999999") is None

    def test_all_equal_counts_share_bucket_one(self):
        records = [occ(i, 7) for i in range(1, 9)]
        assignment = bucketize(records, n_buckets=4)
        assert assignment.occupancy == (8, 0, 0, 0)
        assert set(assignment.membership.values()) == {1}

    def test_tied_counts_never_split(self):
        rng = random.Random(13)
        records = [occ(i, rng.choice([1, 1, 1, 2, 5, 5, 100])) for i in range(1, 201)]
        assignment = bucketize(records, n_buckets=10)
        by_count: dict[int, set[int]] = {}
        for r in records:
            by_count.setdefault(r.count, set()).add(assignment.membership[r.concept_id])
        for buckets in by_count.values():
            assert len(buckets) == 1

    def test_single_bucket(self):
        records = [occ(i, i * i) for i in range(1, 6)]
        assignment = bucketize(records, n_buckets=1)
        assert assignment.boundaries == ()
        assert assignment.occupancy == (5,)

    def test_deterministic(self):
        records = [occ(i, (i * 37) % 19) for i in range(1, 40)]
        assert bucketize(records, 7) == bucketize(records, 7)

    def test_membership_partition_property(self):
        rng = random.Random(20240818)
        for _ in range(30):
            n = rng.randrange(1, 120)
            n_buckets = rng.randrange(1, 60)
            records = [occ(i, int(10 ** rng.uniform(0, 4))) for i in range(1, n + 1)]
            assignment = bucketize(records, n_buckets)
            assert sum(assignment.occupancy) == n
            assert set(assignment.membership) == {r.concept_id for r in records}
            assert all(1 <= b <= n_buckets for b in assignment.membership.values())
            # monotone: a higher count never lands in a lower bucket
            ordered = sorted(records, key=lambda r: r.count)
            buckets = [assignment.membership[r.concept_id] for r in ordered]
            assert buckets == sorted(buckets)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bucketize([], 5)

    def test_bad_bucket_count_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            bucketize([occ(1, 1)], 0)

    def test_duplicate_concept_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            bucketize([occ(1, 1), occ(1, 2)], 2)


class TestByBucket:
    def test_one_list_per_bucket_in_input_order(self):
        records = [occ(i, i) for i in range(1, 11)]
        assignment = bucketize(records, n_buckets=5)
        shuffled = [records[i] for i in (9, 0, 4, 1, 5, 8, 2, 3, 7, 6)]
        groups = by_bucket(assignment, shuffled, lambda r: r.concept_id, "occurrence record")
        assert groups == [
            [records[0], records[1]],
            [records[2], records[3]],
            [records[4], records[5]],
            [records[7], records[6]],
            [records[9], records[8]],
        ]

    def test_buckets_without_items_are_empty_lists(self):
        assignment = bucketize([occ(i, i) for i in range(1, 11)], n_buckets=5)
        assert by_bucket(assignment, [occ(3, 0)], lambda r: r.concept_id, "item") == [[], [occ(3, 0)], [], [], []]
        assert by_bucket(assignment, iter(()), lambda r: r.concept_id, "item") == [[], [], [], [], []]

    def test_first_item_without_a_bucket_is_named(self):
        assignment = bucketize([occ(i, i) for i in range(1, 5)], n_buckets=2)
        items = [occ(1, 1), occ(98, 1), occ(99, 1)]
        with pytest.raises(ValueError) as raised:
            by_bucket(assignment, items, lambda r: r.concept_id, "scored concept")
        assert str(raised.value) == "scored concept GO:0000098 has no bucket"


class TestBucketMeans:
    def test_hand_case(self):
        records = [occ(i, i) for i in range(1, 11)]
        assignment = bucketize(records, n_buckets=5)
        assert bucket_mean_counts(assignment, records) == [1.5, 3.5, 5.5, 7.5, 9.5]

    def test_empty_buckets_are_none(self):
        records = [occ(i, 7) for i in range(1, 5)]
        assignment = bucketize(records, n_buckets=3)
        assert bucket_mean_counts(assignment, records) == [7.0, None, None]

    def test_unknown_record_rejected(self):
        records = [occ(i, i) for i in range(1, 5)]
        assignment = bucketize(records, n_buckets=2)
        with pytest.raises(ValueError) as raised:
            bucket_mean_counts(assignment, records + [occ(99, 1)])
        assert str(raised.value) == "occurrence record GO:0000099 has no bucket"


class TestPerBucketAccuracy:
    def test_hand_case(self):
        ontology = make_ontology(10)
        records = [occ(i, i) for i in range(1, 11)]
        assignment = bucketize(records, n_buckets=5)
        # concepts 1..4 wrong, 5..8 alternate, 9..10 correct
        scored = []
        for i, concept in enumerate(ontology.concepts, start=1):
            if i <= 4:
                predicted = None
            elif i <= 8:
                predicted = concept.id if i % 2 == 0 else "GO:9999999"
            else:
                predicted = concept.id
            scored.append(score(ontology, concept, predicted))
        assert per_bucket_accuracy(assignment, scored) == [
            (1, 0.0),
            (2, 0.0),
            (3, 0.5),
            (4, 0.5),
            (5, 1.0),
        ]

    def test_bucket_without_records_is_none(self):
        ontology = make_ontology(10)
        records = [occ(i, i) for i in range(1, 11)]
        assignment = bucketize(records, n_buckets=5)
        scored = [score(ontology, ontology.concepts[0], ontology.concepts[0].id)]
        rows = per_bucket_accuracy(assignment, scored)
        assert rows[0] == (1, 1.0)
        assert all(value is None for _, value in rows[1:])

    def test_unbucketed_concepts_reported(self):
        ontology = make_ontology(10)
        records = [occ(i, i) for i in range(1, 4)]
        assignment = bucketize(records, n_buckets=2)
        scored = [score(ontology, c, c.id) for c in ontology.concepts]
        with pytest.raises(ValueError, match=r"7 scored concepts have no bucket.*\(\+2 more\)"):
            per_bucket_accuracy(assignment, scored)


class TestBiasRatio:
    def test_proportional_bucket_scores_one(self):
        # 1000 concepts in 50 buckets of 20; 10 of the top 500 repeats
        # land in one bucket: 10 / ((20/1000) * 500) = 1.0.
        records = [occ(i, i) for i in range(1, 1001)]
        assignment = bucketize(records, n_buckets=50)
        assert assignment.occupancy == tuple([20] * 50)
        target_ids = [f"GO:{i:07d}" for i in range(1, 11)]  # all in bucket 1
        filler_ids = [f"GO:{i:07d}" for i in range(21, 511)]  # buckets 2..26
        repeated = [(cid, 2) for cid in target_ids] + [(cid, 1) for cid in filler_ids]
        report = bias_ratio(assignment, repeated, k=500)
        assert report.k == 500
        assert report.n_concepts == 1000
        assert report.unassigned == 0
        assert report.per_bucket[0].n_top == 10
        assert report.per_bucket[0].bucket_size == 20
        assert report.per_bucket[0].ratio == 1.0

    def test_hand_case_with_unassigned(self):
        records = [occ(i, i) for i in range(1, 11)]
        assignment = bucketize(records, n_buckets=5)
        repeated = [
            ("GO:0000010", 7),
            ("GO:0000009", 5),
            ("GO:9999999", 3),
            ("GO:0000001", 2),
        ]
        report = bias_ratio(assignment, repeated, k=4)
        assert report.unassigned == 1
        ratios = [b.ratio for b in report.per_bucket]
        assert ratios == [1.25, 0.0, 0.0, 0.0, 2.5]

    def test_truncates_to_k(self):
        records = [occ(i, i) for i in range(1, 11)]
        assignment = bucketize(records, n_buckets=2)
        repeated = [(f"GO:{i:07d}", 10 - i) for i in range(1, 11)]
        report = bias_ratio(assignment, repeated, k=3)
        assert sum(b.n_top for b in report.per_bucket) + report.unassigned == 3

    def test_conservation_property(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randrange(2, 150)
            records = [occ(i, int(10 ** rng.uniform(0, 3))) for i in range(1, n + 1)]
            assignment = bucketize(records, rng.randrange(1, 30))
            pool = [r.concept_id for r in records] + [f"GO:9{i:06d}" for i in range(20)]
            repeated = [(cid, rng.randrange(1, 50)) for cid in rng.sample(pool, rng.randrange(1, len(pool)))]
            k = rng.randrange(1, 40)
            report = bias_ratio(assignment, repeated, k=k)
            assert sum(b.n_top for b in report.per_bucket) + report.unassigned == min(k, len(repeated))

    def test_empty_bucket_has_no_ratio(self):
        assignment = BucketAssignment(
            n_buckets=2,
            boundaries=(5,),
            membership={"GO:0000001": 1},
            occupancy=(1, 0),
        )
        report = bias_ratio(assignment, [("GO:0000001", 3)], k=1)
        assert report.per_bucket[1].ratio is None
        assert report.per_bucket[0].ratio == 1.0

    def test_bad_arguments(self):
        assignment = bucketize([occ(1, 1)], 1)
        with pytest.raises(ValueError, match="positive"):
            bias_ratio(assignment, [("GO:0000001", 1)], k=0)
        with pytest.raises(ValueError, match="empty"):
            bias_ratio(assignment, [], k=5)
