"""Prompt templates used to probe ID-label memorization.

Two styles exist. CHAT templates ask outright for the ID and tell the
model to answer with nothing else; COMPLETION templates stop right where
the ID should continue, so a completion endpoint emits the digits. Chat
templates come in five languages; the label placeholder is always filled
with the untranslated label.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .errors import ConfigurationError, ParseError
from .ontology import Concept, OntologyKind, _csv_rows

PLACEHOLDER = "{l}"


class PromptStyle(str, Enum):
    CHAT = "CHAT"
    COMPLETION = "COMPLETION"


class Language(str, Enum):
    EN = "EN"
    IT = "IT"
    DE = "DE"
    FR = "FR"
    ES = "ES"


@dataclass(frozen=True)
class PromptTemplate:
    ontology_kind: OntologyKind
    style: PromptStyle
    language: Language
    text: str

    def __post_init__(self) -> None:
        if self.text.count(PLACEHOLDER) != 1:
            raise ValueError(f"template must contain {PLACEHOLDER} exactly once: {self.text!r}")

    @property
    def key(self) -> tuple[OntologyKind, PromptStyle, Language]:
        return (self.ontology_kind, self.style, self.language)


@dataclass(frozen=True)
class RenderedPrompt:
    template_key: tuple[OntologyKind, PromptStyle, Language]
    concept_id: str
    text: str


def render(template: PromptTemplate, concept: Concept) -> RenderedPrompt:
    """Substitute the concept's label into the template, verbatim."""
    if template.ontology_kind is not concept.source:
        raise ValueError(
            f"template is for {template.ontology_kind.value}, concept {concept.id} is {concept.source.value}"
        )
    return RenderedPrompt(template.key, concept.id, template.text.replace(PLACEHOLDER, concept.label))


_CHAT_EN = {
    OntologyKind.GO: 'Provide the GO ID for the label "{l}". In the answer write only the corresponding GO ID.',
    OntologyKind.UBERON: 'Provide the UBERON ID for the label "{l}". In the answer write only the corresponding UBERON ID.',
    OntologyKind.ICD10: 'Provide the ICD-10 ID for the label "{l}". In the answer write only the corresponding ICD-10 ID.',
    OntologyKind.WIKIDATA: 'Provide the Wikidata ID for the label "{l}". In the answer write only the corresponding Wikidata ID.',
}

# Completion prompts end exactly where the ID continues; GO and UBERON
# carry the prefix cue so the model only has to emit digits.
_COMPLETION_EN = {
    OntologyKind.GO: 'In the Gene Ontology, the GO ID of the label "{l}" is GO:',
    OntologyKind.UBERON: 'In the Uberon Ontology, the Uberon ID of the label "{l}" is UBERON:',
    OntologyKind.ICD10: 'In the ICD-10, the ICD-10 ID of the label "{l}" is',
    OntologyKind.WIKIDATA: 'In the Wikidata, the Wikidata ID of the label "{l}" is',
}

TRANSLATION_HEADER = ["ontology", "style", "language", "text"]


def load_translation_table(text: str) -> list[PromptTemplate]:
    """Parse a translation CSV (`ontology,style,language,text`)."""
    templates = []
    try:
        for row_no, row in _csv_rows(text, TRANSLATION_HEADER, "translation table"):
            try:
                kind = OntologyKind(row[0].strip())
                style = PromptStyle(row[1].strip())
                language = Language(row[2].strip())
                templates.append(PromptTemplate(kind, style, language, row[3]))
            except ValueError as exc:
                raise ConfigurationError(f"translation table: row {row_no}: {exc}") from exc
    except ParseError as exc:
        raise ConfigurationError(str(exc)) from exc
    return templates


@functools.cache
def _load_builtin() -> dict[tuple[OntologyKind, PromptStyle, Language], PromptTemplate]:
    templates: dict[tuple, PromptTemplate] = {}
    for kind, text in _CHAT_EN.items():
        t = PromptTemplate(kind, PromptStyle.CHAT, Language.EN, text)
        templates[t.key] = t
    for kind, text in _COMPLETION_EN.items():
        t = PromptTemplate(kind, PromptStyle.COMPLETION, Language.EN, text)
        templates[t.key] = t
    data = resources.files("ontoprobe").joinpath("data/translations.csv").read_text(encoding="utf-8")
    for t in load_translation_table(data):
        if t.key in templates:
            raise ConfigurationError(f"translation table duplicates template {t.key}")
        templates[t.key] = t
    for kind in OntologyKind:
        for language in Language:
            if language is Language.EN:
                continue
            if (kind, PromptStyle.CHAT, language) not in templates:
                raise ConfigurationError(f"missing chat translation for {kind.value}/{language.value}")
    return templates


def builtin_templates() -> tuple[PromptTemplate, ...]:
    """All shipped templates: 8 English plus the chat translations."""
    return tuple(_load_builtin().values())


def template_for(kind: OntologyKind, style: PromptStyle, language: Language) -> PromptTemplate:
    """Look up one shipped template; configuration error when absent."""
    template = _load_builtin().get((kind, style, language))
    if template is None:
        raise ConfigurationError(f"no template for {kind.value}/{style.value}/{language.value}")
    return template
