"""Prediction-invariance strategies and their aggregation."""

from __future__ import annotations

import json

import pytest

from conftest import make_config, make_ontology, make_profile
from ontoprobe import (
    BucketAssignment,
    ConfigurationError,
    HallucinationStyle,
    InvarianceRecord,
    ModelConfig,
    ModelGateway,
    OccurrenceRecord,
    PromptStyle,
    Provider,
    Strategy,
    aggregate_avpi,
    bucketize,
    pi_value,
    run_pi1,
    run_pi2,
    run_pi3,
    sample_concepts,
    unique_answers,
    write_invariance_records,
)


class TestPiValue:
    def test_all_identical_answers(self):
        assert pi_value(10, 1) == 1.0

    def test_all_distinct_answers(self):
        assert pi_value(10, 10) == 0.0

    def test_interior_points(self):
        assert pi_value(10, 4) == pytest.approx(2 / 3)
        assert pi_value(11, 4) == pytest.approx(0.7)

    def test_bounds_over_grid(self):
        for m in range(2, 21):
            for u in range(1, m + 1):
                assert 0.0 <= pi_value(m, u) <= 1.0

    def test_m_too_small(self):
        with pytest.raises(ValueError, match="at least 2"):
            pi_value(1, 1)

    def test_u_out_of_range(self):
        with pytest.raises(ValueError, match="within"):
            pi_value(5, 0)
        with pytest.raises(ValueError, match="within"):
            pi_value(5, 6)


class TestUniqueAnswers:
    def test_all_same(self):
        assert unique_answers(["GO:0000001"] * 6) == 1

    def test_absences_collapse(self):
        assert unique_answers([None, None, "GO:0000001"]) == 2
        assert unique_answers([None, None, None]) == 1

    def test_mixed(self):
        assert unique_answers(["GO:0000001", "GO:0000002", None, "GO:0000001"]) == 3


def flat_assignment(ontology, n_buckets=2):
    half = (len(ontology.concepts) + 1) // 2
    records = [
        OccurrenceRecord(c.id, "corpus", 1 if i < half else 100)
        for i, c in enumerate(ontology.concepts)
    ]
    return bucketize(records, n_buckets)


class TestSampleConcepts:
    def test_small_pool_returned_whole(self):
        ontology = make_ontology(6)
        assignment = flat_assignment(ontology)
        sampled = sample_concepts(ontology, assignment, k=10, seed=0)
        assert sorted(sampled) == [1, 2]
        assert [c.id for c in sampled[1]] == ["GO:0000001", "GO:0000002", "GO:0000003"]

    def test_k_bounds_each_bucket(self):
        ontology = make_ontology(40)
        assignment = flat_assignment(ontology)
        sampled = sample_concepts(ontology, assignment, k=5, seed=1)
        assert all(len(v) == 5 for v in sampled.values())

    def test_seed_determinism(self):
        ontology = make_ontology(40)
        assignment = flat_assignment(ontology)
        a = sample_concepts(ontology, assignment, k=5, seed=3)
        b = sample_concepts(ontology, assignment, k=5, seed=3)
        c = sample_concepts(ontology, assignment, k=5, seed=4)
        assert a == b
        assert a != c

    def test_universe_only_ids_skipped(self):
        ontology = make_ontology(4)
        records = [OccurrenceRecord(c.id, "corpus", 1) for c in ontology.concepts]
        records.append(OccurrenceRecord("GO:0009999", "corpus", 1))
        assignment = bucketize(records, 1)
        sampled = sample_concepts(ontology, assignment, k=10, seed=0)
        assert [c.id for c in sampled[1]] == [c.id for c in ontology.concepts]

    def test_bad_k(self):
        ontology = make_ontology(3)
        with pytest.raises(ValueError, match="at least 1"):
            sample_concepts(ontology, flat_assignment(ontology), k=0)


class TestRunPi1:
    def test_perfect_recall_is_fully_invariant(self):
        ontology = make_ontology(5)
        gateway = ModelGateway(make_config(), profile=make_profile(ontology, recall=1.0))
        records = run_pi1(gateway, ontology.concepts, m=10)
        assert all(r.pi == 1.0 and r.u == 1 for r in records)
        assert all(r.answers == (r.concept.id,) * 10 for r in records)
        assert all(r.strategy is Strategy.PI1 for r in records)

    def test_invariant_even_below_full_recall(self):
        # repeats run at temperature 0, where the model is deterministic
        ontology = make_ontology(20)
        profile = make_profile(ontology, recall=0.5, temperature_sensitivity=1.0)
        gateway = ModelGateway(make_config(temperature=0.9), profile=profile)
        records = run_pi1(gateway, ontology.concepts, m=6)
        assert all(r.pi == 1.0 for r in records)

    def test_completion_style(self):
        ontology = make_ontology(4)
        gateway = ModelGateway(make_config(), profile=make_profile(ontology, recall=1.0))
        records = run_pi1(gateway, ontology.concepts, m=3, style=PromptStyle.COMPLETION)
        assert all(r.answers == (r.concept.id,) * 3 for r in records)

    def test_completion_cue_glued_onto_bare_digits(self):
        ontology = make_ontology(4)

        def transport(url, payload, headers):
            assert payload["prompt"].endswith("is GO:")
            return 200, {"choices": [{"text": " " + payload["prompt"].split('"')[1].split()[-1] + "."}]}

        config = ModelConfig(Provider.COMPLETION_HTTP, "m", endpoint="https://api.example.test", max_in_flight=1)
        records = run_pi1(ModelGateway(config, transport=transport), ontology.concepts, m=2, style=PromptStyle.COMPLETION)
        assert [r.answers for r in records] == [(c.id, c.id) for c in ontology.concepts]

    def test_no_concepts_make_no_call(self):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"gateway.{name} was touched")

        assert run_pi1(Untouchable(), []) == []

    def test_m_validation(self):
        ontology = make_ontology(2)
        gateway = ModelGateway(make_config(), profile=make_profile(ontology))
        with pytest.raises(ValueError, match="at least 2"):
            run_pi1(gateway, ontology.concepts, m=1)


class TestRunPi2:
    def test_sweep_length_and_determinism(self):
        ontology = make_ontology(8)
        profile = make_profile(ontology, recall=0.5, temperature_sensitivity=1.0)
        first = run_pi2(ModelGateway(make_config(seed=2), profile=profile), ontology.concepts)
        second = run_pi2(ModelGateway(make_config(seed=2), profile=profile), ontology.concepts)
        assert first == second
        assert all(r.m == 11 for r in first)

    def test_temperature_sensitive_model_varies(self):
        ontology = make_ontology(10)
        profile = make_profile(ontology, recall=0.5, temperature_sensitivity=1.0)
        records = run_pi2(ModelGateway(make_config(seed=2), profile=profile), ontology.concepts)
        assert any(r.pi < 1.0 for r in records)
        assert all(0.0 <= r.pi <= 1.0 for r in records)

    def test_insensitive_model_stays_invariant(self):
        ontology = make_ontology(6)
        profile = make_profile(ontology, recall=1.0, temperature_sensitivity=0.0)
        records = run_pi2(ModelGateway(make_config(), profile=profile), ontology.concepts)
        assert all(r.pi == 1.0 for r in records)


class TestRunPi3:
    def test_five_languages_label_untranslated(self):
        ontology = make_ontology(4)
        gateway = ModelGateway(make_config(), profile=make_profile(ontology, recall=1.0))
        records = run_pi3(gateway, ontology.concepts)
        assert all(r.m == 5 for r in records)
        assert all(r.pi == 1.0 for r in records)

    def test_missing_translation_fails_before_any_call(self):
        ontology = make_ontology(3)
        # gateway=None: resolving templates must fail before it is touched
        with pytest.raises(ConfigurationError):
            run_pi3(None, ontology.concepts, style=PromptStyle.COMPLETION)


class TestAggregate:
    def test_hand_case(self):
        ontology = make_ontology(4)
        c1, c2, c3, _ = ontology.concepts
        assignment = BucketAssignment(
            n_buckets=2,
            boundaries=(1,),
            membership={"GO:0000001": 1, "GO:0000002": 1, "GO:0000003": 2, "GO:0000004": 2},
            occupancy=(2, 2),
        )
        records = [
            InvarianceRecord(c1, Strategy.PI1, 4, (c1.id,) * 4, 1, 1.0),
            InvarianceRecord(c2, Strategy.PI1, 4, (c2.id, None, "GO:9999999", c2.id), 3, 1 / 3),
            InvarianceRecord(c3, Strategy.PI2, 3, (None, None, None), 1, 1.0),
        ]
        rows = aggregate_avpi(records, assignment, ontology)
        assert len(rows) == 2
        pi1_row, pi2_row = rows
        assert pi1_row.bucket == 1 and pi1_row.strategy is Strategy.PI1
        assert pi1_row.avpi == pytest.approx(2 / 3)
        assert pi1_row.accuracy == pytest.approx(6 / 8)
        assert pi1_row.k_sampled == 2
        assert pi2_row.bucket == 2 and pi2_row.strategy is Strategy.PI2
        assert pi2_row.avpi == 1.0
        assert pi2_row.accuracy == 0.0

    def test_unbucketed_concept_rejected(self):
        ontology = make_ontology(2)
        c1 = ontology.concepts[0]
        assignment = BucketAssignment(1, (), {"GO:0000002": 1}, (1,))
        records = [InvarianceRecord(c1, Strategy.PI1, 2, (c1.id, c1.id), 1, 1.0)]
        with pytest.raises(ValueError) as raised:
            aggregate_avpi(records, assignment, ontology)
        assert str(raised.value) == "concept GO:0000001 has no bucket"

    def test_rows_by_strategy_then_bucket_whatever_the_record_order(self):
        ontology = make_ontology(4)
        c1, c2, c3, c4 = ontology.concepts
        assignment = BucketAssignment(2, (1,), {c1.id: 1, c2.id: 2, c3.id: 1, c4.id: 2}, (2, 2))
        records = [
            InvarianceRecord(c4, Strategy.PI3, 2, (c4.id, None), 2, 0.0),
            InvarianceRecord(c2, Strategy.PI1, 2, (c2.id, c2.id), 1, 1.0),
            InvarianceRecord(c3, Strategy.PI3, 2, (c3.id, c3.id), 1, 1.0),
            InvarianceRecord(c1, Strategy.PI1, 2, (None, None), 1, 1.0),
            InvarianceRecord(c2, Strategy.PI3, 2, (c2.id, c2.id), 1, 1.0),
        ]
        rows = aggregate_avpi(records, assignment, ontology)
        assert [(row.strategy, row.bucket, row.avpi, row.accuracy, row.k_sampled) for row in rows] == [
            (Strategy.PI1, 1, 1.0, 0.0, 1),
            (Strategy.PI1, 2, 1.0, 1.0, 1),
            (Strategy.PI3, 1, 1.0, 1.0, 1),
            (Strategy.PI3, 2, 0.5, 0.75, 2),
        ]

    def test_empty(self):
        ontology = make_ontology(2)
        assignment = flat_assignment(ontology)
        assert aggregate_avpi([], assignment, ontology) == []


class TestInvarianceIO:
    def test_each_line_holds_its_record(self):
        ontology = make_ontology(5)
        gateway = ModelGateway(
            make_config(seed=1),
            profile=make_profile(ontology, recall=0.5, style=HallucinationStyle.NEAR_MISS),
        )
        records = run_pi1(gateway, ontology.concepts, m=4)
        lines = write_invariance_records(records).split("\n")
        assert lines.pop() == ""
        rows = [json.loads(line) for line in lines]
        assert [list(row) for row in rows] == [sorted(row) for row in rows]
        assert rows == [
            {
                "answers": list(r.answers),
                "gold_id": r.concept.id,
                "label": r.concept.label,
                "m": 4,
                "pi": r.pi,
                "source": "GO",
                "strategy": "PI1",
                "u": r.u,
            }
            for r in records
        ]

    def test_empty(self):
        assert write_invariance_records([]) == ""

    # Each line pinned: JSON escapes quotes, backslashes and C0 controls, and
    # leaves non-ASCII, U+2028, U+0085, DEL and a lone surrogate as they are.
    @pytest.mark.parametrize(
        "label, answers, line",
        [
            (
                'a "b" \\ c', [None, None],
                r'{"answers": [null, null], "gold_id": "GO:0000001", "label": "a \"b\" \\ c", "m": 2, "pi": 1.0, '
                r'"source": "GO", "strategy": "PI2", "u": 1}',
            ),
            (
                "t\tn\n", ["\x00\x1f\x7f", "\r"],
                r'{"answers": ["\u0000\u001f' '\x7f' r'", "\r"], "gold_id": "GO:0000001", "label": "t\tn\n", "m": 2, '
                r'"pi": 0.0, "source": "GO", "strategy": "PI2", "u": 2}',
            ),
            (
                "x\u2028\x85", ["café \U0001f9ec", "café \U0001f9ec"],
                '{"answers": ["café \U0001f9ec", "café \U0001f9ec"], "gold_id": "GO:0000001", "label": "x\u2028\x85", '
                '"m": 2, "pi": 1.0, "source": "GO", "strategy": "PI2", "u": 1}',
            ),
            (
                "y", ["\ud800", None, None],
                '{"answers": ["\ud800", null, null], "gold_id": "GO:0000001", "label": "y", "m": 3, "pi": 0.5, '
                '"source": "GO", "strategy": "PI2", "u": 2}',
            ),
            (
                "w", ["a", "b", "a", "a"],
                '{"answers": ["a", "b", "a", "a"], "gold_id": "GO:0000001", "label": "w", "m": 4, '
                '"pi": 0.6666666666666667, "source": "GO", "strategy": "PI2", "u": 2}',
            ),
            (
                "z", ["a", "b", "c", None],
                '{"answers": ["a", "b", "c", null], "gold_id": "GO:0000001", "label": "z", "m": 4, "pi": 0.0, '
                '"source": "GO", "strategy": "PI2", "u": 4}',
            ),
        ],
    )
    def test_line_text(self, label, answers, line):
        concept = make_ontology(1).concepts[0]._replace(label=label)
        u = unique_answers(answers)
        record = InvarianceRecord(concept, Strategy.PI2, len(answers), tuple(answers), u, pi_value(len(answers), u))
        assert write_invariance_records([record]) == line + "\n"
