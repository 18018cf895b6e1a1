"""Pull a candidate concept ID out of a free-text model response.

Each ontology gets a regular expression plus a normalizer that rewrites
the captured text into the canonical ID shape (zero-padded GO/UBERON
numbers, dotted upper-case ICD-10 codes, leading-zero-free QIDs). The
first match in the response wins; no match means no prediction, which
downstream scoring counts as wrong.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .ontology import OntologyKind, canonical_icd10

# Default patterns. Case-insensitive on purpose: models answer with
# "go:0001822" and "Go 1822" variants routinely.
DEFAULT_PATTERNS: dict[OntologyKind, str] = {
    OntologyKind.GO: r"(?i)GO[\s:]*([0-9]{1,7})",
    OntologyKind.UBERON: r"(?i)UBERON[\s:_]*([0-9]{1,7})",
    OntologyKind.ICD10: r"(?i)\b([A-Z][0-9]{2}(?:\.?[0-9A-Z]{1,4})?)\b",
    OntologyKind.WIKIDATA: r"(?i)\bQ0*([0-9]+)\b",
}

_NORMALIZER_NOTES: dict[OntologyKind, str] = {
    OntologyKind.GO: "upper-case GO prefix, single colon, numeric part zero-padded to 7 digits",
    OntologyKind.UBERON: "upper-case UBERON prefix, single colon, numeric part zero-padded to 7 digits",
    OntologyKind.ICD10: "upper-case, dot inserted after the 3rd character when 4+ alphanumerics carry no dot",
    OntologyKind.WIKIDATA: "Q plus digits with leading zeros stripped",
}


@dataclass(frozen=True)
class ExtractionRule:
    ontology_kind: OntologyKind
    pattern: str
    normalizer: str
    compiled: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "compiled", re.compile(self.pattern))


def default_rules() -> dict[OntologyKind, ExtractionRule]:
    return {
        kind: ExtractionRule(kind, pattern, _NORMALIZER_NOTES[kind])
        for kind, pattern in DEFAULT_PATTERNS.items()
    }


def normalize_id(kind: OntologyKind, raw_match: str) -> str | None:
    """Canonicalize a matched ID fragment; None when it has no canonical form.

    Accepts both prefixed fragments ("GO:1822", "q042") and the bare
    captures the default patterns produce ("1822", "42").
    """
    raw = raw_match.strip()
    if kind in (OntologyKind.GO, OntologyKind.UBERON):
        prefix = kind.value
        m = re.fullmatch(rf"(?:{prefix})?[\s:_]*([0-9]+)", raw, flags=re.IGNORECASE)
        if m is None:
            return None
        digits = m.group(1)
        if len(digits) > 7:
            return None
        return f"{prefix}:{digits.zfill(7)}"
    if kind is OntologyKind.ICD10:
        return canonical_icd10(raw)
    if kind is OntologyKind.WIKIDATA:
        m = re.fullmatch(r"Q?\s*0*([0-9]+)", raw, flags=re.IGNORECASE)
        if m is None:
            return None
        number = int(m.group(1))
        if number == 0:
            return None
        return f"Q{number}"
    raise ValueError(f"unknown ontology kind {kind!r}")


def extract_id(rule: ExtractionRule, raw_text: str) -> str | None:
    """First pattern match in raw_text, normalized; None when absent.

    Total over arbitrary input: never raises on response content.
    """
    m = rule.compiled.search(raw_text)
    if m is None:
        return None
    fragment = m.group(1) if m.groups() else m.group(0)
    return normalize_id(rule.ontology_kind, fragment)


_COMPLETION_CUE = re.compile(r"(?:GO|UBERON):\s*\Z", re.IGNORECASE)


def completion_cue(template_text: str) -> str:
    """Trailing ID-prefix cue of a completion template, or "".

    Completion prompts for prefixed ontologies end with the prefix
    ("... is GO:") so the model continues with bare digits; those digits
    only match the extraction pattern with the cue glued back on. ICD-10
    and Wikidata templates end without a cue and their patterns match
    bare answers directly.
    """
    m = _COMPLETION_CUE.search(template_text)
    return m.group(0) if m else ""
