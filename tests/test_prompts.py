"""Template texts, rendering, and the translation table."""

from __future__ import annotations

import pytest

from conftest import shipped_templates
from ontoprobe import (
    Concept,
    ConfigurationError,
    Language,
    OntologyKind,
    PromptStyle,
    PromptTemplate,
    extract_id,
    render,
    template_for,
)
from ontoprobe.prompts import load_translation_table

CHAT_EN = {
    OntologyKind.GO: 'Provide the GO ID for the label "{l}". In the answer write only the corresponding GO ID.',
    OntologyKind.UBERON: 'Provide the UBERON ID for the label "{l}". In the answer write only the corresponding UBERON ID.',
    OntologyKind.ICD10: 'Provide the ICD-10 ID for the label "{l}". In the answer write only the corresponding ICD-10 ID.',
    OntologyKind.WIKIDATA: 'Provide the Wikidata ID for the label "{l}". In the answer write only the corresponding Wikidata ID.',
}

COMPLETION_EN = {
    OntologyKind.GO: 'In the Gene Ontology, the GO ID of the label "{l}" is GO:',
    OntologyKind.UBERON: 'In the Uberon Ontology, the Uberon ID of the label "{l}" is UBERON:',
    OntologyKind.ICD10: 'In the ICD-10, the ICD-10 ID of the label "{l}" is',
    OntologyKind.WIKIDATA: 'In the Wikidata, the Wikidata ID of the label "{l}" is',
}


class TestBuiltinTemplates:
    def test_english_chat_texts_exact(self):
        for kind, text in CHAT_EN.items():
            assert template_for(kind, PromptStyle.CHAT, Language.EN).text == text

    def test_english_completion_texts_exact(self):
        for kind, text in COMPLETION_EN.items():
            assert template_for(kind, PromptStyle.COMPLETION, Language.EN).text == text

    def test_chat_count_is_twenty(self):
        chat = [t for t in shipped_templates() if t.style is PromptStyle.CHAT]
        assert len(chat) == 20

    def test_completion_english_count_is_four(self):
        completion = [
            t for t in shipped_templates() if t.style is PromptStyle.COMPLETION and t.language is Language.EN
        ]
        assert len(completion) == 4

    def test_every_key_resolves_to_its_own_template(self):
        templates = shipped_templates()
        assert len(templates) == 24
        assert all(template_for(*t.key) is t for t in templates)

    def test_every_chat_language_combination_present(self):
        for kind in OntologyKind:
            for language in Language:
                template = template_for(kind, PromptStyle.CHAT, language)
                assert template.text.count("{l}") == 1

    def test_completion_templates_end_at_prefix_cue(self):
        go = template_for(OntologyKind.GO, PromptStyle.COMPLETION, Language.EN)
        uberon = template_for(OntologyKind.UBERON, PromptStyle.COMPLETION, Language.EN)
        assert go.text.endswith("GO:")
        assert uberon.text.endswith("UBERON:")

    def test_missing_completion_translation(self):
        with pytest.raises(ConfigurationError):
            template_for(OntologyKind.GO, PromptStyle.COMPLETION, Language.IT)


class TestCue:
    """The ID prefix a template ends on, which run_probe and the invariance
    sweeps glue back onto a completion before extracting the ID."""

    def test_cue_of_every_shipped_template(self):
        prefixed = {
            (OntologyKind.GO, PromptStyle.COMPLETION, Language.EN): "GO:",
            (OntologyKind.UBERON, PromptStyle.COMPLETION, Language.EN): "UBERON:",
        }
        templates = shipped_templates()
        assert len(templates) == 24
        for template in templates:
            assert template.cue == prefixed.get(template.key, ""), template.key
            assert template.text.endswith(template.cue)

    def test_cue_glues_bare_digit_continuations(self):
        for template in shipped_templates():
            if template.cue:
                kind = template.ontology_kind
                assert extract_id(kind, template.cue + "0001822") == f"{kind.value}:0001822"
                assert extract_id(kind, template.cue + " 1822") == f"{kind.value}:0001822"

    def test_cue_keeps_trailing_space_and_ignores_case(self):
        template = PromptTemplate(OntologyKind.GO, PromptStyle.COMPLETION, Language.EN, 'label "{l}", id go: ')
        assert template.cue == "go: "
        assert PromptTemplate(OntologyKind.GO, PromptStyle.COMPLETION, Language.EN, "{l} is GO: x").cue == ""


class TestRender:
    def test_spec_chat_example(self):
        concept = Concept("GO:0001822", "kidney development", OntologyKind.GO)
        template = template_for(OntologyKind.GO, PromptStyle.CHAT, Language.EN)
        rendered = render(template, concept)
        assert rendered.text == (
            'Provide the GO ID for the label "kidney development". '
            "In the answer write only the corresponding GO ID."
        )
        assert rendered.concept_id == "GO:0001822"

    def test_spec_completion_example(self):
        concept = Concept("GO:0001822", "kidney development", OntologyKind.GO)
        template = template_for(OntologyKind.GO, PromptStyle.COMPLETION, Language.EN)
        assert render(template, concept).text == (
            'In the Gene Ontology, the GO ID of the label "kidney development" is GO:'
        )

    def test_label_verbatim_in_translated_prompt(self):
        concept = Concept("GO:0001822", "kidney development", OntologyKind.GO)
        for language in (Language.IT, Language.DE, Language.FR, Language.ES):
            template = template_for(OntologyKind.GO, PromptStyle.CHAT, language)
            assert "kidney development" in render(template, concept).text

    def test_injective_in_label(self):
        template = template_for(OntologyKind.GO, PromptStyle.CHAT, Language.EN)
        a = render(template, Concept("GO:0000001", "alpha", OntologyKind.GO))
        b = render(template, Concept("GO:0000002", "beta", OntologyKind.GO))
        assert a.text != b.text

    def test_quote_in_label_unescaped(self):
        concept = Concept("Q1", 'the "universe" itself', OntologyKind.WIKIDATA)
        template = template_for(OntologyKind.WIKIDATA, PromptStyle.CHAT, Language.EN)
        assert '"the "universe" itself"' in render(template, concept).text

    def test_kind_mismatch_rejected(self):
        concept = Concept("GO:0001822", "kidney development", OntologyKind.GO)
        template = template_for(OntologyKind.UBERON, PromptStyle.CHAT, Language.EN)
        with pytest.raises(ValueError):
            render(template, concept)

    def test_template_key(self):
        template = template_for(OntologyKind.GO, PromptStyle.CHAT, Language.EN)
        assert template.key == (OntologyKind.GO, PromptStyle.CHAT, Language.EN)


class TestTemplateValidation:
    def test_placeholder_required(self):
        with pytest.raises(ValueError, match="exactly once"):
            PromptTemplate(OntologyKind.GO, PromptStyle.CHAT, Language.EN, "nothing to fill in here")

    def test_placeholder_exactly_once(self):
        with pytest.raises(ValueError, match="exactly once"):
            PromptTemplate(OntologyKind.GO, PromptStyle.CHAT, Language.EN, "{l} and {l}")


class TestTranslationTable:
    def test_happy_path(self):
        text = 'ontology,style,language,text\nGO,CHAT,IT,"L\'ID GO di ""{l}""."\n'
        templates = load_translation_table(text)
        assert len(templates) == 1
        assert templates[0].language is Language.IT
        assert templates[0].text == "L'ID GO di \"{l}\"."

    def test_bad_header(self):
        with pytest.raises(ConfigurationError):
            load_translation_table("a,b,c\nGO,CHAT,IT,x\n")

    def test_missing_placeholder_rejected(self):
        with pytest.raises(ConfigurationError):
            load_translation_table("ontology,style,language,text\nGO,CHAT,IT,no placeholder\n")

    def test_unknown_language_rejected(self):
        with pytest.raises(ConfigurationError):
            load_translation_table("ontology,style,language,text\nGO,CHAT,PT,{l}\n")
