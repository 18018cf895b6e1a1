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

import random
from enum import Enum
from json.encoder import encode_basestring
from typing import NamedTuple

from .extraction import extract_id
from .gateway import ModelGateway
from .metrics import is_correct
from .ontology import Concept, Ontology
from .popularity import BucketAssignment, by_bucket
from .prompts import Language, PromptStyle, render, template_for

DEFAULT_TEMPERATURES = tuple(round(0.1 * i, 1) for i in range(11))
DEFAULT_LANGUAGES = tuple(Language)


class Strategy(str, Enum):
    PI1 = "PI1"
    PI2 = "PI2"
    PI3 = "PI3"


class InvarianceRecord(NamedTuple):
    concept: Concept
    strategy: Strategy
    m: int
    answers: tuple[str | None, ...]
    u: int
    pi: float


class BucketInvariance(NamedTuple):
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
    bucketed = sorted((c for c in ontology.concepts if c.id in assignment.membership), key=lambda c: c.id)
    rng = random.Random(seed)
    sampled: dict[int, list[Concept]] = {}
    for bucket, pool in enumerate(by_bucket(assignment, bucketed, lambda c: c.id, "concept"), 1):
        if pool:
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

    A sweep's concepts share one kind, so one template per language is
    resolved up front and a missing translation fails before any call.
    """
    if not concepts:
        return []
    templates = {language: template_for(concepts[0].source, style, language) for language, _tag, _temp in steps}
    cues = {language: template.cue for language, template in templates.items()}
    # Flatten every (concept, step) pair into one batch so the gateway's
    # bounded parallelism covers the whole strategy, then regroup.
    items = []
    for concept in concepts:
        prompts = {language: render(template, concept) for language, template in templates.items()}
        items.extend((prompts[language], tag, temperature) for language, tag, temperature in steps)
    responses = gateway.complete_batch(items)
    records = []
    for i, concept in enumerate(concepts):
        span = slice(i * len(steps), (i + 1) * len(steps))
        answers = [
            None if response is None else extract_id(concept.source, cues[language] + response.raw_text)
            for (language, _tag, _temp), response in zip(steps, responses[span])
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


def run_pi2(gateway: ModelGateway, concepts: list[Concept], style: PromptStyle = PromptStyle.CHAT) -> list[InvarianceRecord]:
    """One call per temperature of DEFAULT_TEMPERATURES per concept, same prompt text."""
    return _run_calls(gateway, concepts, Strategy.PI2, [(Language.EN, 0, t) for t in DEFAULT_TEMPERATURES], style)


def run_pi3(gateway: ModelGateway, concepts: list[Concept], style: PromptStyle = PromptStyle.CHAT) -> list[InvarianceRecord]:
    """One call per language of DEFAULT_LANGUAGES per concept, temperature 0; labels are never translated."""
    return _run_calls(gateway, concepts, Strategy.PI3, [(language, 0, 0.0) for language in DEFAULT_LANGUAGES], style)


def aggregate_avpi(
    records: list[InvarianceRecord], assignment: BucketAssignment, ontology: Ontology
) -> list[BucketInvariance]:
    """Per-bucket mean PI plus answer-level accuracy.

    Accuracy counts every one of the m*k answers in the bucket, absences
    included in the denominator. Buckets with no sampled concepts are
    omitted.
    """
    groups = by_bucket(assignment, records, lambda r: r.concept.id, "concept")
    out = []
    for strategy in Strategy:  # in value order
        for bucket, in_bucket in enumerate(groups, 1):
            group = [r for r in in_bucket if r.strategy == strategy]
            if group:
                avpi = sum(r.pi for r in group) / len(group)
                n_correct = sum(is_correct(ontology, r.concept, a) for r in group for a in r.answers)
                out.append(BucketInvariance(bucket, strategy, avpi, n_correct / sum(r.m for r in group), len(group)))
    return out


def write_invariance_records(records: list[InvarianceRecord]) -> str:
    """Serialize invariance records as newline-delimited JSON.

    Each line is what json.dumps(row, sort_keys=True, ensure_ascii=False)
    writes for the row, built from one template with the strings
    JSON-encoded in C, as `write_scored_records` builds its lines.
    """
    return "".join(
        f'{{"answers": [{", ".join("null" if a is None else encode_basestring(a) for a in r.answers)}], '
        f'"gold_id": {encode_basestring(r.concept.id)}, "label": {encode_basestring(r.concept.label)}, '
        f'"m": {r.m}, "pi": {r.pi!r}, "source": {encode_basestring(r.concept.source.value)}, '
        f'"strategy": {encode_basestring(r.strategy.value)}, "u": {r.u}}}\n'
        for r in records
    )
