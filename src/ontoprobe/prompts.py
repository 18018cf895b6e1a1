"""Prompt templates used to probe ID-label memorization.

Two styles exist. CHAT templates ask outright for the ID and tell the
model to answer with nothing else; COMPLETION templates stop right where
the ID should continue, so a completion endpoint emits the digits. Chat
templates come in five languages; the label placeholder is always filled
with the untranslated label.
"""

from __future__ import annotations

import functools
import re
from enum import Enum
from typing import NamedTuple

from .errors import ConfigurationError
from .ontology import Concept, OntologyKind, _checked_make

PLACEHOLDER = "{l}"
_CUE = re.compile(r"(?:GO|UBERON):\s*\Z", re.IGNORECASE)


class PromptStyle(str, Enum):
    CHAT = "CHAT"
    COMPLETION = "COMPLETION"


class Language(str, Enum):
    EN = "EN"
    IT = "IT"
    DE = "DE"
    FR = "FR"
    ES = "ES"


class _PromptTemplateFields(NamedTuple):
    ontology_kind: OntologyKind
    style: PromptStyle
    language: Language
    text: str


class PromptTemplate(_PromptTemplateFields):
    __slots__ = ()

    def __new__(cls, ontology_kind: OntologyKind, style: PromptStyle, language: Language, text: str):
        if text.count(PLACEHOLDER) != 1:
            raise ValueError(f"template must contain {PLACEHOLDER} exactly once: {text!r}")
        return tuple.__new__(cls, (ontology_kind, style, language, text))

    _make = classmethod(_checked_make)

    @property
    def key(self) -> tuple[OntologyKind, PromptStyle, Language]:
        """(ontology_kind, style, language): the first three fields."""
        return self[:3]

    @property
    def cue(self) -> str:
        """The ID prefix the template ends on ("GO:", "UBERON:"), or "". A
        completion model continues it with bare digits, which extraction
        matches only with the cue glued back on; the label sits before the
        fixed closing text, so every rendered prompt ends on the same cue."""
        m = _CUE.search(self.text)
        return m.group(0) if m else ""


class RenderedPrompt(NamedTuple):
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


# One chat sentence per language; {id} is where the ID name goes.
_CHAT = {
    Language.EN: 'Provide the {id} ID for the label "{l}". In the answer write only the corresponding {id} ID.',
    Language.IT: 'Fornisci l\'ID {id} per l\'etichetta "{l}". Nella risposta scrivi solo l\'ID {id} corrispondente.',
    Language.DE: 'Gib die {id}-ID für die Bezeichnung "{l}" an. Schreibe in der Antwort nur die entsprechende {id}-ID.',
    Language.FR: 'Fournis l\'ID {id} pour le libellé "{l}". Dans la réponse, écris uniquement l\'ID {id} correspondant.',
    Language.ES: 'Proporciona el ID {id} para la etiqueta "{l}". En la respuesta escribe solo el ID {id} correspondiente.',
}
_ID_NAME = {
    OntologyKind.GO: "GO",
    OntologyKind.UBERON: "UBERON",
    OntologyKind.ICD10: "ICD-10",
    OntologyKind.WIKIDATA: "Wikidata",
}

# Completion prompts end exactly where the ID continues; GO and UBERON
# carry the prefix cue so the model only has to emit digits. They exist in
# English only.
_COMPLETION_EN = {
    OntologyKind.GO: 'In the Gene Ontology, the GO ID of the label "{l}" is GO:',
    OntologyKind.UBERON: 'In the Uberon Ontology, the Uberon ID of the label "{l}" is UBERON:',
    OntologyKind.ICD10: 'In the ICD-10, the ICD-10 ID of the label "{l}" is',
    OntologyKind.WIKIDATA: 'In the Wikidata, the Wikidata ID of the label "{l}" is',
}


@functools.cache
def template_for(kind: OntologyKind, style: PromptStyle, language: Language) -> PromptTemplate:
    """Look up one shipped template, built on its first look-up; configuration
    error when absent."""
    if style is PromptStyle.CHAT:
        return PromptTemplate(kind, style, language, _CHAT[language].replace("{id}", _ID_NAME[kind]))
    if language is Language.EN:
        return PromptTemplate(kind, style, language, _COMPLETION_EN[kind])
    raise ConfigurationError(f"no template for {kind.value}/{style.value}/{language.value}")
