"""Pull a candidate concept ID out of a free-text model response.

Each ontology kind has one regular expression, whose first group the
normalizer rewrites into the canonical ID shape (zero-padded GO/UBERON
numbers, dotted upper-case ICD-10 codes, leading-zero-free QIDs). The
first match in the response wins; no match means no prediction, which
downstream scoring counts as wrong.
"""

from __future__ import annotations

import re

from .ontology import OntologyKind, canonical_icd10

# Default patterns. Case-insensitive on purpose: models answer with
# "go:0001822" and "Go 1822" variants routinely.
DEFAULT_PATTERNS: dict[OntologyKind, str] = {
    OntologyKind.GO: r"(?i)GO[\s:]*([0-9]{1,7})",
    OntologyKind.UBERON: r"(?i)UBERON[\s:_]*([0-9]{1,7})",
    OntologyKind.ICD10: r"(?i)\b([A-Z][0-9]{2}(?:\.?[0-9A-Z]{1,4})?)\b",
    OntologyKind.WIKIDATA: r"(?i)\bQ0*([0-9]+)\b",
}

# Each pattern compiled on its first search, not at import.
_COMPILED: dict[OntologyKind, re.Pattern] = {}

# Prefix-optional digit forms normalize_id accepts, compiled once.
_PREFIXED_DIGITS = {
    kind: re.compile(rf"(?:{kind.value})?[\s:_]*([0-9]+)", re.IGNORECASE)
    for kind in (OntologyKind.GO, OntologyKind.UBERON)
}
_QID_DIGITS = re.compile(r"Q?\s*0*([0-9]+)", re.IGNORECASE)


def normalize_id(kind: OntologyKind, raw_match: str) -> str | None:
    """Canonicalize a matched ID fragment; None when it has no canonical form.

    Accepts both prefixed fragments ("GO:1822", "q042") and the bare
    captures the default patterns produce ("1822", "42").
    """
    raw = raw_match.strip()
    prefixed = _PREFIXED_DIGITS.get(kind)
    if prefixed is not None:
        m = prefixed.fullmatch(raw)
        if m is None:
            return None
        digits = m.group(1)
        if len(digits) > 7:
            return None
        return f"{kind.value}:{digits.zfill(7)}"
    if kind is OntologyKind.ICD10:
        return canonical_icd10(raw)
    if kind is OntologyKind.WIKIDATA:
        m = _QID_DIGITS.fullmatch(raw)
        if m is None:
            return None
        # On the string, not int(): int() refuses more than 4300 digits.
        digits = m.group(1).lstrip("0")
        if not digits:
            return None
        return f"Q{digits}"
    raise ValueError(f"unknown ontology kind {kind!r}")


def extract_id(kind: OntologyKind, raw_text: str) -> str | None:
    """First match of the kind's pattern in raw_text, normalized; None when absent.

    Total over arbitrary input: never raises on response content.
    """
    pattern = _COMPILED.get(kind) or _COMPILED.setdefault(kind, re.compile(DEFAULT_PATTERNS[kind]))
    m = pattern.search(raw_text)
    return None if m is None else normalize_id(kind, m.group(1))

