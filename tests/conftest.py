"""Shared fixtures: small hand-counted ontology sources and synthetic profiles.

Also prints one PASS/FAIL line per acceptance criterion at the end of a
session that ran tests from test_acceptance.py, and fails a test that
leaves a live child process behind.
"""

from __future__ import annotations

import multiprocessing
import os
import sys

import pytest

from ontoprobe import (
    Concept,
    ConfigurationError,
    HallucinationStyle,
    Language,
    ModelConfig,
    Ontology,
    OntologyKind,
    PromptStyle,
    PromptTemplate,
    Provider,
    SyntheticProfile,
    parse_icd10,
    parse_obo,
    parse_wikidata_sample,
    template_for,
)
from ontoprobe.gateway import _key_function

# 8 current native terms, 1 obsolete, 1 foreign: concepts 8, universe 10.
GO_OBO = """format-version: 1.2
ontology: go

[Term]
id: GO:0001822
name: kidney development
namespace: biological_process

[Term]
id: GO:0060993
name: kidney morphogenesis

[Term]
id: GO:0060219
name: camera-type eye photoreceptor cell differentiation

[Term]
id: GO:0060519
name: cell adhesion involved in prostatic bud elongation

[Term]
id: GO:0003179
name: heart valve morphogenesis

[Term]
id: GO:0061384
name: heart trabecula morphogenesis

[Term]
id: GO:0051302
name: regulation of cell division

[Term]
id: GO:2000145
name: regulation of cell motility

[Term]
id: GO:0000005
name: obsolete ribosomal chaperone activity
is_obsolete: true

[Term]
id: BFO:0000003
name: occurrent
"""

# 6 native terms, 2 foreign: concepts 6, universe 8.
UBERON_OBO = """format-version: 1.2
ontology: uberon

[Term]
id: UBERON:0000055
name: vessel

[Term]
id: UBERON:0000948
name: heart

[Term]
id: UBERON:0002048
name: lung

[Term]
id: UBERON:0002107
name: liver

[Term]
id: UBERON:0002113
name: kidney

[Term]
id: UBERON:0001235
name: adrenal cortex

[Term]
id: CL:0000000
name: cell

[Term]
id: BFO:0000002
name: continuant
"""

# 10 rows; S72.001, V97.33X, T36.0X1 exceed 4 alphanumerics: concepts 7, universe 10.
ICD_CSV = """code,label
A00,Cholera
A00.0,"Cholera due to Vibrio cholerae 01, biovar cholerae"
B01,Varicella
C34.1,"Malignant neoplasm of upper lobe, bronchus or lung"
E11.9,Type 2 diabetes mellitus without complications
J45,Asthma
K21,Gastro-esophageal reflux disease
S72.001,Fracture of unspecified part of neck of right femur
V97.33X,Sucked into jet engine
T36.0X1,Poisoning by penicillins
"""

# Q155/Q308 share the label "mercury" (polysemy).
WIKIDATA_CSV = """qid,label,qrank
Q1,universe,900000.0
Q2,Earth,850000.5
Q42,Douglas Adams,120000.0
Q155,mercury,80000.0
Q308,mercury,79000.0
"""


@pytest.fixture
def go_obo_text() -> str:
    return GO_OBO


@pytest.fixture
def uberon_obo_text() -> str:
    return UBERON_OBO


@pytest.fixture
def icd_csv_text() -> str:
    return ICD_CSV


@pytest.fixture
def wikidata_csv_text() -> str:
    return WIKIDATA_CSV


@pytest.fixture
def go_ontology() -> Ontology:
    return parse_obo(GO_OBO, "GO")


@pytest.fixture
def uberon_ontology() -> Ontology:
    return parse_obo(UBERON_OBO, "UBERON")


@pytest.fixture
def icd_ontology() -> Ontology:
    return parse_icd10(ICD_CSV)


@pytest.fixture
def wikidata_ontology() -> Ontology:
    return parse_wikidata_sample(WIKIDATA_CSV)


def make_ontology(n: int, prefix: str = "GO") -> Ontology:
    """Synthetic GO-shaped ontology with n concepts."""
    concepts = tuple(
        Concept(f"{prefix}:{i:07d}", f"synthetic concept {i:07d}", OntologyKind.GO) for i in range(1, n + 1)
    )
    return Ontology(OntologyKind.GO, concepts, frozenset(c.id for c in concepts))


def make_profile(
    ontology: Ontology,
    recall: float | dict[str, float] = 1.0,
    style: HallucinationStyle = HallucinationStyle.INVENTED,
    popularity: dict[str, int] | None = None,
    temperature_sensitivity: float = 0.0,
) -> SyntheticProfile:
    if isinstance(recall, dict):
        curve = dict(recall)
    else:
        curve = {c.id: recall for c in ontology.concepts}
    return SyntheticProfile(
        memorization_curve=curve,
        hallucination_style=style,
        popularity=popularity or {c.id: 1 for c in ontology.concepts},
        temperature_sensitivity=temperature_sensitivity,
        universe=frozenset(ontology.universe),
    )


def make_config(seed: int = 0, temperature: float = 0.0) -> ModelConfig:
    return ModelConfig(
        provider=Provider.SYNTHETIC,
        model_name="synthetic-memorizer",
        temperature=temperature,
        seed=seed,
    )


def shipped_templates() -> list[PromptTemplate]:
    """Every (kind, style, language) key that `template_for` resolves."""
    templates = []
    for kind in OntologyKind:
        for style in PromptStyle:
            for language in Language:
                try:
                    templates.append(template_for(kind, style, language))
                except ConfigurationError:
                    pass
    return templates


def request_key(
    provider: Provider, model_name: str, temperature: float, prompt_text: str, tag: int, identity: str
) -> str:
    """A request's response-cache key, through the function `ModelGateway` binds."""
    return _key_function(provider, model_name, identity)(temperature, prompt_text, tag)


_ACCEPTANCE_REPORTS: dict[str, object] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _ACCEPTANCE_REPORTS[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_REPORTS:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE_REPORTS):
        outcome = _ACCEPTANCE_REPORTS[nodeid]
        name = nodeid.split("::")[-1]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")


def live_children(parent: int) -> set[int]:
    """Pids of the processes whose parent is `parent` and that have not
    exited. Linux only: read from /proc/<pid>/stat, which every kernel has
    (/proc/<pid>/task/*/children needs CONFIG_PROC_CHILDREN)."""
    pids = set()
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as f:
                # pid (comm) state ppid ...; comm may hold spaces and parentheses
                state, ppid = f.read().rpartition(b")")[2].split()[:2]
        except OSError:
            continue  # exited since the listing
        if int(ppid) == parent and state != b"Z":
            pids.add(int(entry.name))
    return pids


def _alive_children() -> set[int]:
    pids = {child.pid for child in multiprocessing.active_children()}
    if sys.platform.startswith("linux"):
        pids |= live_children(os.getpid())
    return pids


# The children alive after the last test: each leak is reported once.
_known_children: set[int] | None = None


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process of this one running."""
    global _known_children
    if _known_children is None:
        _known_children = _alive_children()
    yield
    alive = _alive_children()
    left, _known_children = alive - _known_children, alive
    if left:
        pytest.fail(f"the test left child processes running: {sorted(left)}")

