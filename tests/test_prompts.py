"""Template texts and rendering."""

from __future__ import annotations

import hashlib

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


# sha256 of the UTF-8 text of every shipped template, by (kind, style,
# language). The texts are what the golden runs, cache keys and synthetic
# answers were made from; the golden hashes cover only some of them.
SHIPPED_TEXT_SHA256 = {
    ("GO", "CHAT", "EN"): "2d495eaef63be73dd7831f0efa41bcaf5861c0cd8013aa21c8e93876b92001a2",
    ("GO", "CHAT", "IT"): "021ab80a0f9401b9436d6661240bb147424d0fca3034548e8389f810c8540092",
    ("GO", "CHAT", "DE"): "78491356f376d3170f260a555d9a2140364fe8848b342c678fe395018102c4c3",
    ("GO", "CHAT", "FR"): "86989b55494e2e7464197802e682e65175b1260f56f862710329385e59f4df83",
    ("GO", "CHAT", "ES"): "592eb736b57601a936760863a4c6fb619029c861fe90cdd1c51a3ef82d6529f7",
    ("GO", "COMPLETION", "EN"): "feeaa7fd07563c61da16129118c738c9d7ec389adeca6d4b007bb9f3ba9ffddc",
    ("UBERON", "CHAT", "EN"): "307dd70fd86eefbec0b81f9b273c0fa946b11a8a4450c27c971eb628c81834bc",
    ("UBERON", "CHAT", "IT"): "313112455437d382b9cb68b78d1d61c1456fc072c2d8ecc6eee25269b877f317",
    ("UBERON", "CHAT", "DE"): "d019e956061e96f2ab53353e3e2b8a8647f9860ae8e6ae430e7b2cea7c11c0fc",
    ("UBERON", "CHAT", "FR"): "c3c186164239569ec3f549a5408176240543eaacac52db7f4696512c1eee262c",
    ("UBERON", "CHAT", "ES"): "9d89788d6eff9dffe43566be4945ea9bc1f7aee617a26ba8ca29e76fb1b21481",
    ("UBERON", "COMPLETION", "EN"): "82677210659fd544a3f05f3c1ec7cadaa85c35d922984ec2efa5bfdd7285a895",
    ("ICD10", "CHAT", "EN"): "cc3392b0af1bcd0582f6fa720e7f091b8b01cbc1962fca6d3ad8b19ce538a7c8",
    ("ICD10", "CHAT", "IT"): "27f70e6a9fb474478126dc295d18cf6f575e4b063d2a0e85ff593fc585cb9f79",
    ("ICD10", "CHAT", "DE"): "b956c2a3413080948a3998f71181500a45d941ba619fc28edd7e9a65d8d91523",
    ("ICD10", "CHAT", "FR"): "e9c11c79800749d726ebbf7c4069592dfa1361b3083014cd15ca9442bf152935",
    ("ICD10", "CHAT", "ES"): "c3824fce8848637f187b2d49d6cea84c2abe0d1f70e374bf9d78c310bd2e5a0c",
    ("ICD10", "COMPLETION", "EN"): "231408104c321de15f9e2fbc3402ee7fa0f9894e7a94c2511074869cb2f93d8b",
    ("WIKIDATA", "CHAT", "EN"): "d779402ea9328bd0806f949cbc3c2e17307bb9ebeba22708cb4f57d507431502",
    ("WIKIDATA", "CHAT", "IT"): "e1dee7a5f216bb1b5f94d4ea53e2449c6ea683d8ae885a47c0e5a7ede31bc1c6",
    ("WIKIDATA", "CHAT", "DE"): "e760ddcbca14bb1de87ecea12cce2804cc58524e919e16d922996c9d4ce9a9b3",
    ("WIKIDATA", "CHAT", "FR"): "7bf39a2fafe53ce7e8950b54db0793214d2c7b6bdd8ceb2c23c5b526139f63ee",
    ("WIKIDATA", "CHAT", "ES"): "ced5889d8490f843c436f01c4ac655b099300a2284801336d96f78c9a2a8f6d1",
    ("WIKIDATA", "COMPLETION", "EN"): "761d4e07223490761a46931c35708c04f7ae4b84b834968fbf982eb386d642e4",
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

    @pytest.mark.parametrize("language", list(Language), ids=lambda language: language.value)
    def test_chat_text_names_the_id_twice(self, language):
        # Each language states its chat sentence once; the ID name fills both
        # of its slots, in the asking clause and in the answer instruction.
        id_names = {
            OntologyKind.GO: "GO",
            OntologyKind.UBERON: "UBERON",
            OntologyKind.ICD10: "ICD-10",
            OntologyKind.WIKIDATA: "Wikidata",
        }
        texts = {kind: template_for(kind, PromptStyle.CHAT, language).text for kind in OntologyKind}
        for kind, text in texts.items():
            assert "{id}" not in text, kind
            assert text.count(id_names[kind]) == 2, (kind, text)
        # Apart from the ID name, the four kinds share one sentence.
        assert len({texts[kind].replace(id_names[kind], "ID-NAME") for kind in OntologyKind}) == 1

    def test_completion_templates_end_at_prefix_cue(self):
        go = template_for(OntologyKind.GO, PromptStyle.COMPLETION, Language.EN)
        uberon = template_for(OntologyKind.UBERON, PromptStyle.COMPLETION, Language.EN)
        assert go.text.endswith("GO:")
        assert uberon.text.endswith("UBERON:")

    def test_missing_completion_translation(self):
        for language in (Language.IT, Language.DE, Language.FR, Language.ES):
            with pytest.raises(ConfigurationError, match=f"^no template for GO/COMPLETION/{language.value}$"):
                template_for(OntologyKind.GO, PromptStyle.COMPLETION, language)

    def test_every_shipped_text_is_pinned(self):
        digests = {
            (t.ontology_kind.value, t.style.value, t.language.value): hashlib.sha256(t.text.encode()).hexdigest()
            for t in shipped_templates()
        }
        assert digests == SHIPPED_TEXT_SHA256


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
