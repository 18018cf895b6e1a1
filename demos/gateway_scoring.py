"""Drive the model gateway by hand and score what comes back.

Uses the synthetic provider so it runs offline: three concepts with
different planted recall, near-miss hallucinations, prompts rendered
from the builtin templates. Swapping the config for a CHAT_HTTP one
pointed at a real endpoint changes nothing below the config line.
"""

from __future__ import annotations

from ontoprobe import (
    Concept,
    HallucinationStyle,
    Language,
    ModelConfig,
    ModelGateway,
    Provider,
    Ontology,
    OntologyKind,
    PromptStyle,
    SyntheticProfile,
    accuracy,
    extract_id,
    hallucination_stats,
    render,
    score,
    template_for,
)

CONCEPTS = [
    Concept("GO:0001822", "kidney development", OntologyKind.GO),
    Concept("GO:0003179", "heart valve morphogenesis", OntologyKind.GO),
    Concept("GO:0051302", "regulation of cell division", OntologyKind.GO),
]


def main() -> None:
    ontology = Ontology(OntologyKind.GO, tuple(CONCEPTS), frozenset(c.id for c in CONCEPTS))
    profile = SyntheticProfile(
        memorization_curve={"GO:0001822": 1.0, "GO:0003179": 0.5, "GO:0051302": 0.0},
        hallucination_style=HallucinationStyle.NEAR_MISS,
        popularity={c.id: 1.0 for c in CONCEPTS},
        temperature_sensitivity=0.0,
        universe=frozenset(ontology.universe),
    )
    config = ModelConfig(Provider.SYNTHETIC, "synthetic-memorizer", seed=7)
    gateway = ModelGateway(config, profile=profile)

    template = template_for(OntologyKind.GO, PromptStyle.CHAT, Language.EN)

    records = []
    for concept in ontology.concepts:
        prompt = render(template, concept)
        response = gateway.complete(prompt)
        predicted = extract_id(OntologyKind.GO, response.raw_text)
        record = score(ontology, concept, predicted, raw_text=response.raw_text)
        records.append(record)
        verdict = "correct" if record.correct else ("invented" if record.invented else "wrong")
        print(f"{concept.id} ({concept.label!r}) -> {predicted}  [{verdict}]")

    print(f"accuracy: {accuracy(records):.3f}")
    stats = hallucination_stats(ontology, records)
    print(f"unique predictions: {stats.unique_predicted}, invented among them: {stats.pct_unique_invented:.1f}%")


if __name__ == "__main__":
    main()
