"""Prediction invariance under prompt perturbation.

Three strategies perturb the probe for a sampled concept and count how
many distinct answers come back across M prompts: PI1 repeats the same
prompt at temperature zero, PI2 sweeps the temperature from 0.0 to 1.0,
and PI3 asks in five languages (labels stay untranslated). Distinctness
is computed over normalized extracted IDs, an absent extraction counting
as one distinct value, so formatting noise in raw responses does not
inflate the count. PI = 1 - (U-1)/(M-1); AvPI is its mean per bucket.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum

from .errors import ParseError
from .extraction import completion_cue, default_rules, extract_id
from .gateway import ModelGateway
from .metrics import _ndjson, _ndjson_lines, is_correct
from .ontology import Concept, Ontology
from .popularity import BucketAssignment
from .prompts import Language, PromptStyle, render, template_for

DEFAULT_TEMPERATURES = tuple(round(0.1 * i, 1) for i in range(11))
DEFAULT_LANGUAGES = tuple(Language)


class Strategy(str, Enum):
    PI1 = "PI1"
    PI2 = "PI2"
    PI3 = "PI3"


@dataclass(frozen=True)
class InvarianceRecord:
    concept: Concept
    strategy: Strategy
    m: int
    answers: tuple[str | None, ...]
    u: int
    pi: float


@dataclass(frozen=True)
class BucketInvariance:
    bucket: int
    strategy: Strategy
    avpi: float
    accuracy: float
    k_sampled: int


def unique_answers(answers) -> int:
    """Distinct answer count, all absences collapsing to one value."""
    return len(set(answers))


def pi_value(m: int, u: int) -> float:
    """PI = 1 - (U-1)/(M-1). One unique answer gives 1; all distinct gives 0."""
    if m < 2:
        raise ValueError("pi requires at least 2 prompts")
    if not (1 <= u <= m):
        raise ValueError(f"u must be within [1, {m}], got {u}")
    return 1.0 - (u - 1) / (m - 1)


def sample_concepts(
    ontology: Ontology, assignment: BucketAssignment, k: int = 20, seed: int = 0
) -> dict[int, list[Concept]]:
    """Uniform sample of up to k concepts per bucket, without replacement.

    Buckets are drawn in ascending order from ID-sorted members, so the
    result is a pure function of (assignment, ontology, k, seed). IDs in
    the assignment that are not probeable concepts (universe-only rows)
    are skipped.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    members: dict[int, list[Concept]] = {}
    for concept_id, bucket in assignment.membership.items():
        concept = ontology.id_index.get(concept_id)
        if concept is not None:
            members.setdefault(bucket, []).append(concept)
    rng = random.Random(seed)
    sampled: dict[int, list[Concept]] = {}
    for bucket in sorted(members):
        pool = sorted(members[bucket], key=lambda c: c.id)
        sampled[bucket] = pool if len(pool) <= k else rng.sample(pool, k)
    return sampled


def _run_calls(
    gateway: ModelGateway,
    concepts: list[Concept],
    strategy: Strategy,
    steps: list[tuple[Language, int, float]],
    style: PromptStyle,
) -> list[InvarianceRecord]:
    """Ask every concept once per (language, repetition tag, temperature)
    step and count its distinct answers.

    Every (kind, language) template is resolved up front so a missing
    translation fails before any call.
    """
    languages = list(dict.fromkeys(language for language, _tag, _temp in steps))
    templates = {
        (kind, language): template_for(kind, style, language)
        for kind in dict.fromkeys(c.source for c in concepts)
        for language in languages
    }
    # Flatten every (concept, step) pair into one batch so the gateway's
    # bounded parallelism covers the whole strategy, then regroup.
    items = []
    for concept in concepts:
        prompts = {language: render(templates[concept.source, language], concept) for language in languages}
        items.extend((prompts[language], tag, temperature) for language, tag, temperature in steps)
    responses = gateway.complete_batch(items)
    rules = default_rules()
    records = []
    for i, concept in enumerate(concepts):
        span = slice(i * len(steps), (i + 1) * len(steps))
        rule = rules[concept.source]
        answers = [
            None if response is None else extract_id(rule, completion_cue(prompt.text) + response.raw_text)
            for (prompt, _tag, _temp), response in zip(items[span], responses[span])
        ]
        u = unique_answers(answers)
        records.append(InvarianceRecord(concept, strategy, len(answers), tuple(answers), u, pi_value(len(answers), u)))
    return records


def run_pi1(
    gateway: ModelGateway, concepts: list[Concept], m: int = 10, style: PromptStyle = PromptStyle.CHAT
) -> list[InvarianceRecord]:
    """Repeat the identical prompt m times at temperature 0.

    Distinct repetition tags keep the cache from collapsing the repeats;
    whether the answers vary is entirely up to the model.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    return _run_calls(gateway, concepts, Strategy.PI1, [(Language.EN, tag, 0.0) for tag in range(m)], style)


def run_pi2(
    gateway: ModelGateway,
    concepts: list[Concept],
    temperatures=DEFAULT_TEMPERATURES,
    style: PromptStyle = PromptStyle.CHAT,
) -> list[InvarianceRecord]:
    """One call per temperature per concept, same prompt text."""
    temperatures = [float(t) for t in temperatures]
    if len(set(temperatures)) < 2:
        raise ValueError("need at least 2 distinct temperatures")
    return _run_calls(gateway, concepts, Strategy.PI2, [(Language.EN, 0, t) for t in temperatures], style)


def run_pi3(
    gateway: ModelGateway, concepts: list[Concept], languages=DEFAULT_LANGUAGES, style: PromptStyle = PromptStyle.CHAT
) -> list[InvarianceRecord]:
    """One call per prompt language per concept, temperature 0; labels are never translated."""
    languages = [Language(l) for l in languages]
    if len(set(languages)) < 2:
        raise ValueError("need at least 2 distinct languages")
    return _run_calls(gateway, concepts, Strategy.PI3, [(language, 0, 0.0) for language in languages], style)


def aggregate_avpi(
    records: list[InvarianceRecord], assignment: BucketAssignment, ontology: Ontology
) -> list[BucketInvariance]:
    """Per-bucket mean PI plus answer-level accuracy.

    Accuracy counts every one of the m*k answers in the bucket, absences
    included in the denominator. Buckets with no sampled concepts are
    omitted.
    """
    groups: dict[tuple[Strategy, int], list[InvarianceRecord]] = {}
    for record in records:
        bucket = assignment.membership.get(record.concept.id)
        if bucket is None:
            raise ValueError(f"concept {record.concept.id} has no bucket")
        groups.setdefault((record.strategy, bucket), []).append(record)
    out = []
    for (strategy, bucket) in sorted(groups, key=lambda key: (key[0].value, key[1])):
        group = groups[(strategy, bucket)]
        avpi = sum(r.pi for r in group) / len(group)
        n_answers = sum(r.m for r in group)
        n_correct = sum(
            sum(1 for a in r.answers if is_correct(ontology, r.concept, a)) for r in group
        )
        out.append(BucketInvariance(bucket, strategy, avpi, n_correct / n_answers, len(group)))
    return out


def write_invariance_records(records: list[InvarianceRecord]) -> str:
    """Serialize invariance records as newline-delimited JSON."""
    return _ndjson(
        {
            "strategy": r.strategy.value,
            "source": r.concept.source.value,
            "gold_id": r.concept.id,
            "label": r.concept.label,
            "m": r.m,
            "answers": list(r.answers),
            "u": r.u,
            "pi": r.pi,
        }
        for r in records
    )


def read_invariance_records(text: str, ontology: Ontology) -> list[InvarianceRecord]:
    """Parse an invariance run file back against its ontology."""
    records = []
    for line_no, line in _ndjson_lines(text):
        try:
            row = json.loads(line)
            concept = ontology.id_index.get(row["gold_id"])
            if concept is None:
                raise KeyError(f"unknown concept {row['gold_id']}")
            records.append(
                InvarianceRecord(
                    concept,
                    Strategy(row["strategy"]),
                    int(row["m"]),
                    tuple(row["answers"]),
                    int(row["u"]),
                    float(row["pi"]),
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ParseError(f"invariance run: line {line_no} is malformed: {exc}") from exc
    return records
