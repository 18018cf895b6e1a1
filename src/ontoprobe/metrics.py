"""Scoring and error-pattern metrics for probe runs.

Accuracy here is strict: a prediction counts only when it is exactly the
gold ID (or, for Wikidata, any ID sharing the prompted label, since one
label can name several entities). Wrong predictions are characterized
two ways: edit distance between the predicted and gold ID strings, and
token-set overlap between the gold label and the label of the predicted
ID when that ID actually exists in the ontology. Predictions outside the
source's full ID universe are invented ones and get tallied separately.
"""

from __future__ import annotations

import json
import string
from collections import Counter
from dataclasses import dataclass

from .errors import ParseError
from .ontology import Concept, Ontology, OntologyKind, normalize_label


@dataclass(frozen=True)
class ProbeRecord:
    """One scored probe outcome."""

    concept: Concept
    predicted: str | None
    correct: bool
    invented: bool
    raw_text: str = ""

    def __post_init__(self) -> None:
        if self.correct and self.predicted is None:
            raise ValueError("correct record without a prediction")
        if self.invented and (self.predicted is None or self.correct):
            raise ValueError("invented implies a present, incorrect prediction")


@dataclass(frozen=True)
class ErrorSimilarity:
    mean_levenshtein: float | None
    mean_jaccard: float | None
    n_levenshtein: int
    n_jaccard: int


@dataclass(frozen=True)
class HallucinationStats:
    unique_predicted: int
    pct_unique_invented: float | None
    pct_errors_from_invented: float | None


def is_correct(ontology: Ontology, concept: Concept, predicted: str | None) -> bool:
    """Exact-match correctness; Wikidata accepts any ID sharing the label."""
    if predicted is None:
        return False
    if ontology.kind is OntologyKind.WIKIDATA:
        return predicted in ontology.label_index.get(normalize_label(concept.label), frozenset())
    return predicted == concept.id


def score(ontology: Ontology, concept: Concept, predicted: str | None, raw_text: str = "") -> ProbeRecord:
    """Classify one prediction as correct/wrong/invented."""
    if concept.id not in ontology.id_index:
        raise ValueError(f"concept {concept.id} is not part of the ontology")
    correct = is_correct(ontology, concept, predicted)
    invented = predicted is not None and not correct and predicted not in ontology.universe
    return ProbeRecord(concept, predicted, correct, invented, raw_text)


def accuracy(records: list[ProbeRecord]) -> float:
    """Fraction of correct records; absent predictions stay in the denominator."""
    if not records:
        raise ValueError("accuracy of an empty record collection is undefined")
    return sum(1 for r in records if r.correct) / len(records)


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character insertions, deletions, and
    substitutions turning a into b (unit costs)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def _tokens(s: str) -> set[str]:
    out = set()
    for token in s.lower().split():
        token = token.strip(string.punctuation)
        if token:
            out.add(token)
    return out


def jaccard_label_similarity(a: str, b: str) -> float:
    """Token-set Jaccard similarity between two labels.

    Tokens are lower-cased, whitespace-split, and stripped of surrounding
    punctuation. Two empty token sets count as identical (1.0).
    """
    ta, tb = _tokens(a), _tokens(b)
    if not ta and not tb:
        return 1.0
    return len(ta & tb) / len(ta | tb)


def error_similarity(ontology: Ontology, records: list[ProbeRecord]) -> ErrorSimilarity:
    """Similarity of wrong predictions to the gold answers.

    Levenshtein runs over every wrong record carrying a prediction;
    Jaccard only over those whose predicted ID exists in the ontology
    and therefore has a label to compare.
    """
    return _mean_similarity(_error_pairs(ontology, records))


def _error_pairs(ontology: Ontology, records: list[ProbeRecord]) -> list[tuple[ProbeRecord, int, float | None]]:
    """(record, Levenshtein, Jaccard or None) per wrong record carrying a
    prediction, in record order; Jaccard is None when the predicted ID
    has no label in the ontology."""
    pairs = []
    for r in records:
        if r.correct or r.predicted is None:
            continue
        hit = ontology.id_index.get(r.predicted)
        jaccard = None if hit is None else jaccard_label_similarity(r.concept.label, hit.label)
        pairs.append((r, levenshtein(r.predicted, r.concept.id), jaccard))
    return pairs


def _mean_similarity(pairs: list[tuple[ProbeRecord, int, float | None]]) -> ErrorSimilarity:
    """Means over `_error_pairs` output, summed in the order given."""
    lev_values = [lev for _r, lev, _jac in pairs]
    jac_values = [jac for _r, _lev, jac in pairs if jac is not None]
    return ErrorSimilarity(
        mean_levenshtein=sum(lev_values) / len(lev_values) if lev_values else None,
        mean_jaccard=sum(jac_values) / len(jac_values) if jac_values else None,
        n_levenshtein=len(lev_values),
        n_jaccard=len(jac_values),
    )


def hallucination_stats(ontology: Ontology, records: list[ProbeRecord]) -> HallucinationStats:
    """How much of the prediction vocabulary, and of the errors, is invented."""
    unique = {r.predicted for r in records if r.predicted is not None}
    wrong = [r for r in records if not r.correct]
    pct_unique_invented = None
    if unique:
        pct_unique_invented = 100.0 * sum(1 for p in unique if p not in ontology.universe) / len(unique)
    pct_errors_from_invented = None
    if wrong:
        pct_errors_from_invented = 100.0 * sum(1 for r in wrong if r.invented) / len(wrong)
    return HallucinationStats(len(unique), pct_unique_invented, pct_errors_from_invented)


def repeated_id_counts(records: list[ProbeRecord]) -> list[tuple[str, int]]:
    """Predicted IDs by descending frequency, ties broken by ID order."""
    counts = Counter(r.predicted for r in records if r.predicted is not None)
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def _ndjson(rows) -> str:
    """One sorted-key JSON object per line, non-ASCII kept as is."""
    return "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows)


def _ndjson_lines(text: str):
    """(line number, line) per non-blank line, split at newlines only: `_ndjson`
    leaves U+2028, U+2029 and U+0085 unescaped, and splitlines() breaks there."""
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            yield line_no, line


def write_scored_records(records: list[ProbeRecord]) -> str:
    """Serialize records as newline-delimited JSON, one object per line."""
    return _ndjson(
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


def read_scored_records(text: str, ontology: Ontology) -> list[ProbeRecord]:
    """Parse a scored-run file, resolving each row against the ontology."""
    records = []
    for line_no, line in _ndjson_lines(text):
        try:
            row = json.loads(line)
            gold_id = row["gold_id"]
            source = row["source"]
            record_fields = (row["predicted_id"], bool(row["correct"]), bool(row["invented"]), row.get("raw_text", ""))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"scored run: line {line_no} is malformed: {exc}") from exc
        concept = ontology.id_index.get(gold_id)
        if concept is None:
            raise ParseError(f"scored run: line {line_no} references unknown concept {gold_id}")
        if source != ontology.kind.value:
            raise ParseError(f"scored run: line {line_no} has source {source}, ontology is {ontology.kind.value}")
        try:
            records.append(ProbeRecord(concept, *record_fields))
        except ValueError as exc:
            raise ParseError(f"scored run: line {line_no} violates record invariants: {exc}") from exc
    return records
