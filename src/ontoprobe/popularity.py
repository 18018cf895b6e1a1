"""Popularity bucketing and the repeated-ID bias ratio.

Concepts are grouped into percentile buckets by their occurrence counts
(heavy-tailed in practice: the low buckets soak up most concepts). The
bias ratio R_Bi asks whether the IDs a model keeps repeating are spread
over the buckets proportionally to bucket size, or concentrate among the
popular concepts.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from typing import NamedTuple

from .errors import ParseError
from .metrics import ProbeRecord
from .ontology import _checked_make, _csv_rows

OCCURRENCE_HEADER = ["source", "id", "occurrences"]


class _OccurrenceRecordFields(NamedTuple):
    concept_id: str
    source_tag: str
    count: int


class OccurrenceRecord(_OccurrenceRecordFields):
    __slots__ = ()

    def __new__(cls, concept_id: str, source_tag: str, count: int):
        if count < 0:
            raise ValueError(f"negative occurrence count for {concept_id}")
        return tuple.__new__(cls, (concept_id, source_tag, count))

    _make = classmethod(_checked_make)


class BucketAssignment(NamedTuple):
    """Percentile-bucket membership for one occurrence source.

    Buckets are 1-indexed; bucket 1 holds the least popular concepts.
    Boundaries are the nearest-rank quantiles at j/n_buckets, and a
    concept with count v lands in the first bucket whose boundary is
    >= v (the last bucket when none is).
    """

    n_buckets: int
    boundaries: tuple[int, ...]
    membership: dict[str, int]
    occupancy: tuple[int, ...]


class BucketBias(NamedTuple):
    bucket: int
    n_top: int
    bucket_size: int
    ratio: float | None


class BiasRatioReport(NamedTuple):
    k: int
    n_concepts: int
    unassigned: int
    per_bucket: tuple[BucketBias, ...]


def read_occurrences(text: str) -> list[OccurrenceRecord]:
    """Parse a `source,id,occurrences` CSV."""
    records = []
    seen = set()
    for row_no, row in _csv_rows(text, OCCURRENCE_HEADER, "occurrence file"):
        source_tag, concept_id = row[0].strip(), row[1].strip()
        if not concept_id:
            raise ParseError(f"occurrence file: row {row_no} has an empty id")
        if concept_id in seen:
            raise ParseError(f"occurrence file: row {row_no} duplicates id {concept_id}")
        seen.add(concept_id)
        try:
            count = int(row[2])
        except ValueError:
            raise ParseError(f"occurrence file: row {row_no} has non-integer count {row[2]!r}") from None
        try:
            records.append(OccurrenceRecord(concept_id, source_tag, count))
        except ValueError as exc:
            raise ParseError(f"occurrence file: row {row_no}: {exc}") from exc
    return records


def write_occurrences(records: list[OccurrenceRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(OCCURRENCE_HEADER)
    for r in records:
        writer.writerow([r.source_tag, r.concept_id, r.count])
    return buf.getvalue()


def bucketize(occurrences: list[OccurrenceRecord], n_buckets: int = 50) -> BucketAssignment:
    """Assign every concept to one of n_buckets percentile buckets.

    Boundary j is the nearest-rank quantile at j/n_buckets of the count
    distribution; ties collapse into the lowest qualifying bucket, so
    equal counts always share a bucket. Deterministic for fixed input.
    """
    if n_buckets < 1:
        raise ValueError("n_buckets must be at least 1")
    if not occurrences:
        raise ValueError("cannot bucketize an empty occurrence collection")
    seen: set[str] = set()
    for r in occurrences:
        if r.concept_id in seen:
            raise ValueError(f"duplicate occurrence record for {r.concept_id}")
        seen.add(r.concept_id)

    counts = sorted(r.count for r in occurrences)
    n = len(counts)
    # nearest-rank quantile: the ceil(p*n)-th smallest value, 1-indexed
    boundaries = tuple(counts[(j * n + n_buckets - 1) // n_buckets - 1] for j in range(1, n_buckets))

    membership: dict[str, int] = {}
    occupancy = [0] * n_buckets
    for r in occurrences:
        bucket = bisect_left(boundaries, r.count) + 1
        membership[r.concept_id] = bucket
        occupancy[bucket - 1] += 1
    return BucketAssignment(n_buckets, boundaries, membership, tuple(occupancy))


def bucket_mean_counts(assignment: BucketAssignment, occurrences: list[OccurrenceRecord]) -> list[float | None]:
    """Mean occurrence count per bucket, None for empty buckets."""
    sums = [0] * assignment.n_buckets
    sizes = [0] * assignment.n_buckets
    for r in occurrences:
        bucket = assignment.membership.get(r.concept_id)
        if bucket is None:
            raise ValueError(f"occurrence record {r.concept_id} has no bucket")
        sums[bucket - 1] += r.count
        sizes[bucket - 1] += 1
    return [s / c if c else None for s, c in zip(sums, sizes)]


def per_bucket_accuracy(assignment: BucketAssignment, records: list[ProbeRecord]) -> list[tuple[int, float | None]]:
    """Accuracy restricted to each bucket's members; None for buckets
    that received no scored records."""
    offenders = sorted({r.concept.id for r in records if r.concept.id not in assignment.membership})
    if offenders:
        shown = ", ".join(offenders[:5])
        more = f" (+{len(offenders) - 5} more)" if len(offenders) > 5 else ""
        raise ValueError(f"{len(offenders)} scored concepts have no bucket: {shown}{more}")
    correct = [0] * assignment.n_buckets
    totals = [0] * assignment.n_buckets
    for r in records:
        bucket = assignment.membership[r.concept.id]
        totals[bucket - 1] += 1
        if r.correct:
            correct[bucket - 1] += 1
    return [
        (i + 1, correct[i] / totals[i] if totals[i] else None)
        for i in range(assignment.n_buckets)
    ]


def bias_ratio(assignment: BucketAssignment, repeated: list[tuple[str, int]], k: int = 500) -> BiasRatioReport:
    """Observed vs expected share of the top-k repeated IDs per bucket.

    R_Bi = n_Bi / ((N_Bi / N) * k), where n_Bi counts top-k IDs landing
    in bucket i, N_Bi is the bucket size, and N the assigned-concept
    total. IDs without a bucket (invented ones) are tallied separately
    rather than dropped.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if not repeated:
        raise ValueError("repeated-ID list is empty")
    top = repeated[:k]
    n_total = len(assignment.membership)
    in_bucket = [0] * assignment.n_buckets
    unassigned = 0
    for concept_id, _freq in top:
        bucket = assignment.membership.get(concept_id)
        if bucket is None:
            unassigned += 1
        else:
            in_bucket[bucket - 1] += 1
    per_bucket = []
    for i in range(assignment.n_buckets):
        size = assignment.occupancy[i]
        ratio = None
        if size > 0:
            ratio = in_bucket[i] / ((size / n_total) * k)
        per_bucket.append(BucketBias(i + 1, in_bucket[i], size, ratio))
    return BiasRatioReport(k, n_total, unassigned, tuple(per_bucket))
