"""Every record type is a NamedTuple (Ontology a small slotted class): it
refuses assignment, equals and hashes like another built from equal field
values, and the statistics results cross the worker process unchanged."""

from __future__ import annotations

import copy
from multiprocessing.reduction import ForkingPickler

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ontoprobe
from ontoprobe import (
    BiasRatioReport,
    BucketAssignment,
    BucketBias,
    BucketInvariance,
    Concept,
    CorrelationResult,
    ErrorSimilarity,
    GrangerResult,
    HallucinationStats,
    HallucinationStyle,
    InvarianceRecord,
    Language,
    ModelConfig,
    ModelResponse,
    OccurrenceRecord,
    Ontology,
    OntologyKind,
    ProbeRecord,
    PromptStyle,
    PromptTemplate,
    Provider,
    RenderedPrompt,
    RunManifest,
    Strategy,
    SyntheticProfile,
)

BOUNDED = settings(max_examples=25, deadline=1000)

TEXT = st.text(max_size=8)
COUNTS = st.integers(min_value=0, max_value=10**6)
FLOATS = st.floats(allow_nan=False)
UNIT = st.floats(min_value=0.0, max_value=1.0)
GO_IDS = st.integers(min_value=0, max_value=10**7 - 1).map(lambda n: f"GO:{n:07d}")
LABELS = st.text(max_size=8).map(lambda s: s + "x")
CONCEPTS = st.builds(Concept, GO_IDS, LABELS, st.just(OntologyKind.GO))


@st.composite
def probe_args(draw):
    predicted = draw(st.none() | GO_IDS)
    correct = predicted is not None and draw(st.booleans())
    invented = predicted is not None and not correct and draw(st.booleans())
    return (draw(CONCEPTS), predicted, correct, invented, draw(TEXT))


@st.composite
def ontology_args(draw):
    ids = draw(st.lists(GO_IDS, unique=True, max_size=5))
    concepts = tuple(Concept(cid, f"label {cid}", OntologyKind.GO) for cid in ids)
    return (OntologyKind.GO, concepts, frozenset(ids) | draw(st.frozensets(GO_IDS, max_size=3)))


# The field values, in order, that each record type is built from.
RECORD_ARGS = {
    Concept: st.tuples(GO_IDS, LABELS, st.just(OntologyKind.GO)),
    Ontology: ontology_args(),
    OccurrenceRecord: st.tuples(TEXT, TEXT, COUNTS),
    ProbeRecord: probe_args(),
    RenderedPrompt: st.tuples(
        st.tuples(st.sampled_from(OntologyKind), st.sampled_from(PromptStyle), st.sampled_from(Language)), TEXT, TEXT
    ),
    ModelResponse: st.tuples(TEXT, TEXT, FLOATS, st.booleans()),
    InvarianceRecord: st.tuples(
        CONCEPTS, st.sampled_from(Strategy), COUNTS, st.lists(st.none() | GO_IDS, max_size=3).map(tuple), COUNTS, UNIT
    ),
    BucketInvariance: st.tuples(COUNTS, st.sampled_from(Strategy), UNIT, UNIT, COUNTS),
    BucketAssignment: st.tuples(
        COUNTS, st.lists(COUNTS, max_size=3).map(tuple), st.dictionaries(GO_IDS, COUNTS, max_size=3),
        st.lists(COUNTS, max_size=3).map(tuple),
    ),
    BucketBias: st.tuples(COUNTS, COUNTS, COUNTS, st.none() | FLOATS),
    BiasRatioReport: st.tuples(
        COUNTS, COUNTS, COUNTS, st.lists(st.builds(BucketBias, COUNTS, COUNTS, COUNTS, st.none() | FLOATS), max_size=3).map(tuple)
    ),
    ErrorSimilarity: st.tuples(st.none() | FLOATS, st.none() | FLOATS, COUNTS, COUNTS),
    HallucinationStats: st.tuples(COUNTS, st.none() | FLOATS, st.none() | FLOATS),
    PromptTemplate: st.tuples(
        st.sampled_from(OntologyKind), st.sampled_from(PromptStyle), st.sampled_from(Language),
        st.tuples(TEXT, TEXT).filter(lambda ab: "{l}" not in "|".join(ab)).map(lambda ab: ab[0] + "{l}" + ab[1]),
    ),
    CorrelationResult: st.tuples(FLOATS, UNIT, COUNTS, st.integers()),
    GrangerResult: st.tuples(FLOATS, UNIT, COUNTS, COUNTS, st.tuples(COUNTS, COUNTS)),
    # SYNTHETIC refuses any value but the default of a field only HTTP reads.
    ModelConfig: st.tuples(
        st.just(Provider.SYNTHETIC), TEXT, UNIT, st.just(10), st.none(), st.integers(),
        st.none() | TEXT, st.just(4), st.none(), st.just(5), st.just(0.5),
    ),
    SyntheticProfile: st.tuples(
        st.dictionaries(GO_IDS, UNIT, max_size=3), st.sampled_from(HallucinationStyle),
        st.dictionaries(GO_IDS, COUNTS, max_size=3), st.floats(0.0, 10.0), st.none() | st.frozensets(GO_IDS, max_size=3),
    ),
    RunManifest: st.tuples(
        TEXT, TEXT, TEXT, st.dictionaries(TEXT, TEXT, max_size=2), st.dictionaries(TEXT, COUNTS, max_size=2),
        st.none() | st.integers(), st.none() | st.dictionaries(TEXT, TEXT, max_size=2),
        st.none() | st.dictionaries(TEXT, COUNTS, max_size=2), st.lists(TEXT, max_size=2),
        *[st.dictionaries(TEXT, TEXT, max_size=2)] * 4,
    ),
}

# Records holding a dict are unhashable, like the frozen dataclasses they were.
UNHASHABLE = {BucketAssignment, SyntheticProfile, RunManifest}


def test_every_record_type_is_covered():
    modules = (ontoprobe.extraction, ontoprobe.gateway, ontoprobe.invariance, ontoprobe.metrics,
               ontoprobe.ontology, ontoprobe.popularity, ontoprobe.prompts, ontoprobe.runs, ontoprobe.stats)
    records = {
        value
        for module in modules
        for name, value in vars(module).items()
        if not name.startswith("_") and isinstance(value, type) and issubclass(value, tuple)
        and value.__module__ == module.__name__
    }
    assert records | {Ontology} == set(RECORD_ARGS)


def _fields(record) -> tuple[str, ...]:
    return Ontology.__slots__ if type(record) is Ontology else record._fields


@pytest.mark.parametrize("cls", RECORD_ARGS, ids=lambda cls: cls.__name__)
@BOUNDED
@given(data=st.data())
def test_records_are_immutable_values(cls, data):
    args = data.draw(RECORD_ARGS[cls])
    record, twin = cls(*args), cls(*copy.deepcopy(args))
    for name in _fields(record):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    # SyntheticProfile alone keeps an instance dict, for the tables it derives.
    if cls is not SyntheticProfile:
        with pytest.raises(AttributeError):
            record.not_a_field = None
    assert record == twin and not record != twin
    if cls is Ontology:
        assert (record.kind, record.concepts, record.universe) == args
    else:
        # A NamedTuple unpacks, and equals the tuple of its field values.
        assert record == args and tuple(record) == args
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
    # Pickling rebuilds a record through its checks.
    copied = ForkingPickler.loads(ForkingPickler.dumps(record))
    assert type(copied) is cls and copied == record


@pytest.mark.parametrize("cls", [CorrelationResult, GrangerResult], ids=lambda cls: cls.__name__)
@BOUNDED
@given(data=st.data())
def test_statistics_cross_the_worker_pickle_unchanged(cls, data):
    # The stats worker returns a result over a multiprocessing pipe, which pickles with ForkingPickler.
    result = cls(*data.draw(RECORD_ARGS[cls]))
    copied = ForkingPickler.loads(ForkingPickler.dumps(result))
    assert type(copied) is cls
    assert copied == result and copied._asdict() == result._asdict()
    assert [type(value) for value in copied] == [type(value) for value in result]
