"""Ontology resources parsed into a uniform in-memory concept model.

Supported resources: OBO flat files (Gene Ontology, Uberon), ICD-10 code
tables, and Wikidata QID samples. Each parser applies the inclusion filter
used by the probing pipeline (native-prefix only, four-character ICD codes,
non-obsolete terms) while keeping the complete ID universe of the source
file, which is what invention checks run against. A canonical CSV format
(`source,id,label`) round-trips any parsed ontology.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from collections import Counter
from collections.abc import Iterable
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigurationError, ParseError


class OntologyKind(str, Enum):
    GO = "GO"
    UBERON = "UBERON"
    ICD10 = "ICD10"
    WIKIDATA = "WIKIDATA"


# Canonical ID shape per resource. Concepts must match; predictions are
# normalized into these shapes before scoring.
ID_PATTERNS: dict[OntologyKind, re.Pattern] = {
    OntologyKind.GO: re.compile(r"GO:[0-9]{7}\Z"),
    OntologyKind.UBERON: re.compile(r"UBERON:[0-9]{7}\Z"),
    OntologyKind.ICD10: re.compile(r"[A-Z][0-9]{2}(?:\.[0-9A-Z]{1,4})?\Z"),
    OntologyKind.WIKIDATA: re.compile(r"Q[1-9][0-9]*\Z"),
}

CANONICAL_HEADER = ["source", "id", "label"]


def normalize_label(label: str) -> str:
    """Trim, case-fold, and collapse internal whitespace runs."""
    return " ".join(label.split()).casefold()


def alnum_length(code: str) -> int:
    """Number of alphanumeric characters in an ICD-10 code (dot excluded)."""
    return sum(1 for ch in code if ch.isalnum())


_ICD10_CODE = re.compile(r"([A-Z])([0-9]{2})(?:\.?([0-9A-Z]{1,4}))?")


def canonical_icd10(code: str) -> str | None:
    """Upper-case an ICD-10 code and insert the dot after the third
    character when it is missing and the code has four or more
    alphanumerics. Returns None when the code has no canonical form.
    """
    m = _ICD10_CODE.fullmatch(code.strip().upper())
    if m is None:
        return None
    head = m.group(1) + m.group(2)
    return head if m.group(3) is None else f"{head}.{m.group(3)}"


def _checked_make(cls, fields):
    """A checked record's `_make`, and so its `_replace`: through the checks
    of its constructor, which `NamedTuple._make` skips."""
    return cls(*fields)


class _ConceptFields(NamedTuple):
    id: str
    label: str
    source: OntologyKind


class Concept(_ConceptFields):
    """One ID-label pair from a single resource."""

    __slots__ = ()

    def __new__(cls, id: str, label: str, source: OntologyKind):
        if ID_PATTERNS[source].match(id) is None:
            raise ValueError(f"concept ID {id!r} does not match the {source.value} pattern")
        if not label.strip():
            raise ValueError(f"concept {id} has an empty label")
        return tuple.__new__(cls, (id, label, source))

    _make = classmethod(_checked_make)


class Ontology:
    """Immutable indexed collection of the concepts of one resource.

    `universe` holds every ID present in the original source file,
    including entries the inclusion filters dropped (foreign prefixes,
    obsolete terms, over-length ICD codes). A predicted ID outside the
    universe is an invented one. `id_index` maps each ID to its concept.
    Labels are unique once normalised, except in Wikidata, whose shared
    labels `metrics.is_correct` decides. Two ontologies are equal when
    their kind, concepts and universe are; the index follows from those.
    """

    __slots__ = ("kind", "concepts", "universe", "id_index")

    def __init__(self, kind: OntologyKind, concepts: tuple[Concept, ...], universe: frozenset[str]) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "concepts", concepts)
        object.__setattr__(self, "universe", universe)
        # Each invariant is checked over the whole collection at once; the
        # concepts are walked only to name the first one at fault.
        id_index = {concept.id: concept for concept in concepts}
        if (
            not all(concept.source is kind for concept in concepts)
            or len(id_index) != len(concepts)
            or not universe.issuperset(id_index)
        ):
            self._first_fault()
        if kind is not OntologyKind.WIKIDATA and len({normalize_label(c.label) for c in concepts}) != len(concepts):
            counts = Counter(normalize_label(concept.label) for concept in concepts)
            shared = sorted(l for l, n in counts.items() if n > 1)
            raise ValueError(f"duplicate labels not permitted for {kind.value}: {shared[:5]}")
        object.__setattr__(self, "id_index", id_index)

    def _first_fault(self) -> None:
        """Raise ValueError for the first concept, in order, whose source,
        ID uniqueness or universe membership is wrong."""
        seen: set[str] = set()
        for concept in self.concepts:
            if concept.source is not self.kind:
                raise ValueError(f"concept {concept.id} has source {concept.source}, ontology is {self.kind}")
            if concept.id in seen:
                raise ValueError(f"duplicate concept ID {concept.id}")
            if concept.id not in self.universe:
                raise ValueError(f"concept ID {concept.id} missing from universe")
            seen.add(concept.id)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: Ontology is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: Ontology is immutable")

    def __reduce__(self):
        return Ontology, (self.kind, self.concepts, self.universe)

    def __eq__(self, other) -> bool:
        if type(other) is not Ontology:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        return f"Ontology(kind={self.kind!r}, concepts={self.concepts!r}, universe={self.universe!r})"

    def __len__(self) -> int:
        return len(self.concepts)


def parse_obo(text: str, native_prefix: str) -> Ontology:
    """Parse an OBO flat file, keeping [Term] stanzas with the native prefix.

    Recognized stanza keys are `id:`, `name:`, and `is_obsolete:`; everything
    else is ignored. Obsolete terms and terms imported from other ontologies
    are excluded from the concepts but their IDs stay in the universe.
    """
    if native_prefix not in ("GO", "UBERON"):
        raise ValueError(f"native_prefix must be GO or UBERON, got {native_prefix!r}")
    kind = OntologyKind(native_prefix)
    concepts: list[Concept] = []
    universe: set[str] = set()

    in_term = False
    stanza_line = 0
    term_id: str | None = None
    term_name: str | None = None
    obsolete = False

    def flush() -> None:
        nonlocal term_id, term_name, obsolete
        if in_term and (term_id is not None or term_name is not None):
            if term_id is None or term_name is None:
                missing = "id" if term_id is None else "name"
                raise ParseError(f"line {stanza_line}: [Term] stanza missing {missing}:")
            if not term_id:
                raise ParseError(f"line {stanza_line}: [Term] stanza has an empty id")
            if term_id in universe:
                raise ParseError(f"line {stanza_line}: duplicate id {term_id}")
            universe.add(term_id)
            if not obsolete and term_id.partition(":")[0] == native_prefix:
                try:
                    concepts.append(Concept(term_id, term_name, kind))
                except ValueError as exc:
                    raise ParseError(f"line {stanza_line}: {exc}") from exc
        term_id = None
        term_name = None
        obsolete = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("["):
            flush()
            in_term = line == "[Term]"
            stanza_line = line_no
            continue
        if not in_term or not line:
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "id":
            # IDs carry no spaces; anything after one is an OBO trailing comment.
            term_id = value.split()[0] if value else ""
        elif key == "name":
            term_name = value
        elif key == "is_obsolete":
            obsolete = value.lower().startswith("true")
    flush()
    return _ontology(kind, concepts, universe)


def _ontology(kind: OntologyKind, concepts: list[Concept], universe: set[str]) -> Ontology:
    """Build an Ontology, reporting a violated invariant as a ParseError."""
    try:
        return Ontology(kind, tuple(concepts), frozenset(universe))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _read_input(path: str | Path, what: str) -> tuple[str, str]:
    """The text of the stage input `what` at `path` and the sha256 of the
    bytes decoded, for the run manifest. The one reader of every input:
    UTF-8, one leading byte-order mark (as Excel writes one) dropped, line
    ends kept as written, so a quoted "\r" in a table reads as itself. An
    empty path is refused, not read as the current directory."""
    if not str(path):
        raise ConfigurationError(f"cannot read {what}: the path is empty")
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8-sig"), hashlib.sha256(data).hexdigest()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


_scan_json = json.JSONDecoder().scan_once


def _json_line(line: str):
    """What json.loads(line) returns. A line holding one JSON value with no
    whitespace around it is read by the C scanner json.loads itself calls;
    any other goes to json.loads, so an invalid one keeps json's message."""
    try:
        value, end = _scan_json(line, 0)
        if end == len(line):
            return value
    except (StopIteration, ValueError):
        pass
    return json.loads(line)


def _csv_rows(text: str, expected_header: list[str], what: str):
    """Rows of a header-checked CSV as (row number, row), blank rows skipped.
    A row ends at LF, CRLF or CR; a line end inside quotes stays in its field.

    Raises ParseError, prefixed with `what`, for a missing or wrong header,
    for a row whose width differs from the header's and for a row the csv
    module cannot read (a field over its size limit).
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{what}: missing header row")
        if [h.strip().lower() for h in header] != expected_header:
            raise ParseError(f"{what}: expected header {','.join(expected_header)}, got {','.join(header)}")
        for row_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(expected_header):
                raise ParseError(f"{what}: row {row_no} has {len(row)} fields, expected {len(expected_header)}")
            yield row_no, row
    except csv.Error as exc:
        raise ParseError(f"{what}: line {reader.line_num}: {exc}") from None


def parse_icd10(text: str, max_code_chars: int = 4) -> Ontology:
    """Parse a `code,label` ICD-10 table.

    Concepts are the rows whose code has at most max_code_chars
    alphanumerics once the dot is removed; every row's code lands in the
    universe.
    """
    if max_code_chars < 0:
        raise ValueError("max_code_chars must be non-negative")
    concepts: list[Concept] = []
    universe: set[str] = set()
    for row_no, row in _csv_rows(text, ["code", "label"], "ICD-10 table"):
        code, label = row[0].strip(), row[1].strip()
        if not code or not label:
            raise ParseError(f"ICD-10 table: row {row_no} has an empty code or label")
        canon = canonical_icd10(code)
        if canon is None:
            raise ParseError(f"ICD-10 table: row {row_no} has malformed code {code!r}")
        if canon in universe:
            raise ParseError(f"ICD-10 table: row {row_no} duplicates code {canon}")
        universe.add(canon)
        if alnum_length(canon) <= max_code_chars:
            concepts.append(Concept(canon, label, OntologyKind.ICD10))
    return _ontology(OntologyKind.ICD10, concepts, universe)


def parse_wikidata_sample(text: str, universe_text: str | None = None) -> Ontology:
    """Parse a `qid,label,qrank` sample table.

    Polysemy is expected here: several QIDs may share a label, and
    `metrics.is_correct` accepts any of them for that label. When a
    universe list is supplied it must cover every sampled QID.
    """
    concepts: list[Concept] = []
    seen: set[str] = set()
    for row_no, row in _csv_rows(text, ["qid", "label", "qrank"], "Wikidata sample"):
        qid = row[0].strip()
        try:
            concept = Concept(qid, row[1].strip(), OntologyKind.WIKIDATA)
        except ValueError as exc:
            raise ParseError(f"Wikidata sample: row {row_no}: {exc}") from exc
        try:
            float(row[2])
        except ValueError:
            raise ParseError(f"Wikidata sample: row {row_no} has non-numeric qrank {row[2]!r}") from None
        if qid in seen:
            raise ParseError(f"Wikidata sample: row {row_no} duplicates QID {qid}")
        seen.add(qid)
        concepts.append(concept)

    if universe_text is None:
        universe = set(seen)
    else:
        universe = set()
        for line_no, line in enumerate(universe_text.splitlines(), start=1):
            qid = line.strip()
            if not qid:
                continue
            if ID_PATTERNS[OntologyKind.WIKIDATA].match(qid) is None:
                raise ParseError(f"Wikidata universe: line {line_no} has malformed QID {qid!r}")
            universe.add(qid)
        missing = seen - universe
        if missing:
            raise ParseError(f"Wikidata universe does not cover {len(missing)} sampled QIDs, e.g. {sorted(missing)[:3]}")
    return _ontology(OntologyKind.WIKIDATA, concepts, universe)


def _csv_text(header: list[str], rows: Iterable[tuple]) -> str:
    """The CSV text of `header` then `rows`, the one writer of every table:
    minimal quoting and "\n" line ends.

    The csv writer quotes a field holding "\n", its line terminator, but not
    one holding "\r", which `_csv_rows` reads outside quotes as a line end;
    so a table holding "\r" is written again with every field quoted.
    """
    rows = list(rows)

    def text(quoting: int) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n", quoting=quoting)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()

    minimal = text(csv.QUOTE_MINIMAL)
    return text(csv.QUOTE_ALL) if "\r" in minimal else minimal


def write_concept_table(ontology: Ontology) -> str:
    """Serialize to the canonical `source,id,label` CSV.

    Concept rows keep their parse order; universe-only IDs follow in
    sorted order with an empty label, so the universe survives the
    round trip.
    """
    kind = ontology.kind.value
    rows = [(kind, concept.id, concept.label) for concept in ontology.concepts]
    rows += [(kind, extra, "") for extra in sorted(ontology.universe.difference(ontology.id_index))]
    return _csv_text(CANONICAL_HEADER, rows)


def read_concept_table(text: str) -> Ontology:
    """Parse the canonical concept table back into an Ontology."""
    kind: OntologyKind | None = None
    kind_text = None
    concepts: list[Concept] = []
    universe: set[str] = set()
    for row_no, row in _csv_rows(text, CANONICAL_HEADER, "concept table"):
        source, concept_id, label = row[0].strip(), row[1].strip(), row[2]
        # Every row must repeat the first row's source text, so only a
        # differing text needs the enum lookup, which then names the fault.
        if source != kind_text:
            try:
                row_kind = OntologyKind(source)
            except ValueError:
                raise ParseError(f"concept table: row {row_no} has unknown source {source!r}") from None
            if kind is not None:
                raise ParseError(f"concept table: row {row_no} mixes {row_kind.value} into a {kind.value} table")
            kind, kind_text = row_kind, source
        if not concept_id:
            raise ParseError(f"concept table: row {row_no} has an empty id")
        seen = len(universe)
        universe.add(concept_id)
        if len(universe) == seen:
            raise ParseError(f"concept table: row {row_no} duplicates id {concept_id}")
        if label.strip():
            try:
                concepts.append(Concept(concept_id, label, kind))
            except ValueError as exc:
                raise ParseError(f"concept table: row {row_no}: {exc}") from exc
    if kind is None:
        raise ParseError("concept table: no data rows")
    return _ontology(kind, concepts, universe)
