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

import string
from collections import Counter
from json.encoder import encode_basestring
from typing import NamedTuple

from .errors import ParseError
from .ontology import Concept, Ontology, OntologyKind, _checked_make, _json_line, normalize_label


class _ProbeRecordFields(NamedTuple):
    concept: Concept
    predicted: str | None
    correct: bool
    invented: bool
    raw_text: str = ""


class ProbeRecord(_ProbeRecordFields):
    """One scored probe outcome."""

    __slots__ = ()

    def __new__(cls, concept: Concept, predicted: str | None, correct: bool, invented: bool, raw_text: str = ""):
        if correct and predicted is None:
            raise ValueError("correct record without a prediction")
        if invented and (predicted is None or correct):
            raise ValueError("invented implies a present, incorrect prediction")
        return tuple.__new__(cls, (concept, predicted, correct, invented, raw_text))

    _make = classmethod(_checked_make)


class ErrorSimilarity(NamedTuple):
    mean_levenshtein: float | None
    mean_jaccard: float | None
    n_levenshtein: int
    n_jaccard: int


class HallucinationStats(NamedTuple):
    unique_predicted: int
    pct_unique_invented: float | None
    pct_errors_from_invented: float | None


def is_correct(ontology: Ontology, concept: Concept, predicted: str | None) -> bool:
    """Exact-match correctness; Wikidata accepts any concept ID sharing the normalised label."""
    if predicted is None:
        return False
    if ontology.kind is OntologyKind.WIKIDATA:
        hit = ontology.id_index.get(predicted)
        return hit is not None and normalize_label(hit.label) == normalize_label(concept.label)
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
    substitutions turning a into b (unit costs).

    Bit-parallel: G. Myers, "A fast bit-vector algorithm for approximate
    string matching based on dynamic programming", J. ACM 46(3), 1999, in
    the global edit-distance form of H. Hyyrö (2001). Bit i of each vector
    holds the vertical delta of DP row i+1 over the shorter string; one pass
    over the longer string updates every row at once. Python ints are
    unbounded, so long strings need no blocking.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | 1 << i
    width = (1 << len(b)) - 1
    last = 1 << (len(b) - 1)
    pv, mv, dist = width, 0, len(b)
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = ph << 1 | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & width
        mv = ph & xv
    return dist


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


def write_scored_records(records: list[ProbeRecord]) -> str:
    """Serialize records as newline-delimited JSON, one object per line.

    Each line is what json.dumps(row, sort_keys=True, ensure_ascii=False)
    writes for the row, built from one template with the strings
    JSON-encoded in C.
    """
    return "".join(
        f'{{"correct": {"true" if r.correct else "false"}, "gold_id": {encode_basestring(r.concept.id)}, '
        f'"invented": {"true" if r.invented else "false"}, "label": {encode_basestring(r.concept.label)}, '
        f'"predicted_id": {"null" if r.predicted is None else encode_basestring(r.predicted)}, '
        f'"raw_text": {encode_basestring(r.raw_text)}, "source": {encode_basestring(r.concept.source.value)}}}\n'
        for r in records
    )


_SCORED_FIELDS = (
    ("gold_id", (str,), "a string"),
    ("source", (str,), "a string"),
    ("predicted_id", (str, type(None)), "a string or null"),
    ("correct", (bool,), "true or false"),
    ("invented", (bool,), "true or false"),
    ("raw_text", (str,), "a string"),
)


def read_scored_records(text: str, ontology: Ontology) -> list[ProbeRecord]:
    """Parse a scored-run file, resolving each row against the ontology.

    A row lacking `raw_text` reads as an empty answer; every other field is
    required, with the JSON type `_SCORED_FIELDS` names.
    """
    records = []
    # Split at newlines only: the writer leaves U+2028, U+2029 and U+0085
    # unescaped, and splitlines() breaks there.
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            row = _json_line(line)
            if not isinstance(row, dict):
                raise ValueError("not a JSON object")
            row.setdefault("raw_text", "")
            for name, types, expected in _SCORED_FIELDS:
                if type(row[name]) not in types:
                    raise ValueError(f"{name} must be {expected}, got {row[name]!r}")
        except (KeyError, ValueError) as exc:
            raise ParseError(f"scored run: line {line_no} is malformed: {exc}") from exc
        gold_id, source = row["gold_id"], row["source"]
        concept = ontology.id_index.get(gold_id)
        if concept is None:
            raise ParseError(f"scored run: line {line_no} references unknown concept {gold_id}")
        if source != ontology.kind.value:
            raise ParseError(f"scored run: line {line_no} has source {source}, ontology is {ontology.kind.value}")
        try:
            records.append(ProbeRecord(concept, row["predicted_id"], row["correct"], row["invented"], row["raw_text"]))
        except ValueError as exc:
            raise ParseError(f"scored run: line {line_no} violates record invariants: {exc}") from exc
    return records
