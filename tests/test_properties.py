"""Properties that hold for every input: ID extraction and canonicalisation,
and the numpy/scipy.special statistics against their scipy.stats references."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from ontoprobe import (
    DegenerateInputError,
    OntologyKind,
    canonical_icd10,
    default_rules,
    extract_id,
    granger_f,
    normalize_id,
)
from ontoprobe.ontology import ID_PATTERNS
from ontoprobe.stats import _average_ranks

# Bounded so the suite stays quick; the deadline is generous because a
# loaded machine would otherwise turn a slow example into a failure.
BOUNDED = settings(max_examples=60, deadline=1000)

KINDS = st.sampled_from(list(OntologyKind))

# Arbitrary text plus fragments shaped like the IDs the patterns look for,
# so the normalizers see matches and near-misses, not just noise.
ID_LIKE = st.one_of(
    st.text(),
    st.from_regex(r"(?i)(GO|UBERON|Q)?[\s:_]{0,2}[0-9]{1,9}", fullmatch=True),
    st.from_regex(r"\s?[A-Za-z][0-9]{2}\.?[0-9A-Za-z]{0,5}\s?", fullmatch=True),
)


@BOUNDED
@given(kind=KINDS, text=st.one_of(st.text(), ID_LIKE.map(lambda s: f"the answer is {s}.")))
def test_extract_id_is_total(kind, text):
    predicted = extract_id(default_rules()[kind], text)
    assert predicted is None or ID_PATTERNS[kind].match(predicted)


@BOUNDED
@given(kind=KINDS, raw=ID_LIKE)
def test_normalize_id_is_idempotent(kind, raw):
    once = normalize_id(kind, raw)
    if once is not None:
        assert ID_PATTERNS[kind].match(once)
        assert normalize_id(kind, once) == once


@BOUNDED
@given(code=ID_LIKE)
def test_canonical_icd10_is_idempotent(code):
    once = canonical_icd10(code)
    if once is not None:
        assert ID_PATTERNS[OntologyKind.ICD10].match(once)
        assert canonical_icd10(once) == once


# Small value pools force ties, which is where average ranking can go wrong.
TIED_SERIES = st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 1e-300, 3.0, 7.25]), min_size=1, max_size=60)
FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@BOUNDED
@given(values=st.one_of(TIED_SERIES, st.lists(FINITE, min_size=1, max_size=60)))
def test_average_ranks_match_rankdata_bitwise(values):
    arr = np.asarray(values, dtype=float)
    assert _average_ranks(arr).tobytes() == scipy_stats.rankdata(arr, method="average").tobytes()


@BOUNDED
@given(
    lag=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_granger_p_value_is_f_survival_function(lag, data):
    n = data.draw(st.integers(min_value=3 * lag + 2, max_value=30))
    xs = data.draw(st.lists(FINITE, min_size=n, max_size=n))
    ys = data.draw(st.lists(FINITE, min_size=n, max_size=n))
    try:
        result = granger_f(xs, ys, lag=lag)
    except DegenerateInputError:
        assume(False)
    assert result.p_value == float(scipy_stats.f.sf(result.f_statistic, *result.df))
