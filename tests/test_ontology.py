"""Parsing, filtering, and canonical-table round-trips."""

from __future__ import annotations

import pytest

from ontoprobe import (
    Concept,
    ConfigurationError,
    Ontology,
    OntologyKind,
    ParseError,
    canonical_icd10,
    normalize_label,
    parse_icd10,
    parse_obo,
    parse_wikidata_sample,
    read_concept_table,
    read_occurrences,
    write_concept_table,
)
from ontoprobe.prompts import load_translation_table


class TestParseObo:
    def test_go_fixture_counts(self, go_ontology):
        assert len(go_ontology.concepts) == 8
        assert len(go_ontology.universe) == 10

    def test_kidney_development(self, go_ontology):
        assert go_ontology.id_index["GO:0001822"].label == "kidney development"

    def test_foreign_prefix_in_universe_only(self, go_ontology):
        assert "BFO:0000003" in go_ontology.universe
        assert "BFO:0000003" not in go_ontology.id_index

    def test_obsolete_excluded_but_in_universe(self, go_ontology):
        assert "GO:0000005" in go_ontology.universe
        assert "GO:0000005" not in go_ontology.id_index

    def test_uberon_fixture_counts(self, uberon_ontology):
        assert len(uberon_ontology.concepts) == 6
        assert len(uberon_ontology.universe) == 8
        assert "CL:0000000" in uberon_ontology.universe

    def test_empty_stream(self):
        ontology = parse_obo("", "GO")
        assert ontology.concepts == ()
        assert ontology.universe == frozenset()

    def test_retained_ids_have_native_shape(self, go_ontology, uberon_ontology):
        for ontology, prefix in ((go_ontology, "GO"), (uberon_ontology, "UBERON")):
            for concept in ontology.concepts:
                head, _, digits = concept.id.partition(":")
                assert head == prefix
                assert len(digits) == 7 and digits.isdigit()

    def test_id_without_name_is_error_with_line(self):
        text = "[Term]\nid: GO:0000001\n\n[Term]\nid: GO:0000002\nname: ok\n"
        with pytest.raises(ParseError, match="line 1"):
            parse_obo(text, "GO")

    def test_name_without_id_is_error(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_obo("[Term]\nname: orphan\n", "GO")

    def test_duplicate_id_is_error(self):
        text = "[Term]\nid: GO:0000001\nname: a\n\n[Term]\nid: GO:0000001\nname: b\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_obo(text, "GO")

    def test_trailing_comment_after_id_dropped(self):
        text = "[Term]\nid: GO:0000001 ! some comment\nname: a\n"
        ontology = parse_obo(text, "GO")
        assert ontology.concepts[0].id == "GO:0000001"

    def test_deterministic_order(self, go_obo_text):
        first = parse_obo(go_obo_text, "GO")
        second = parse_obo(go_obo_text, "GO")
        assert [c.id for c in first.concepts] == [c.id for c in second.concepts]

    def test_duplicate_label_rejected_for_go(self):
        text = "[Term]\nid: GO:0000001\nname: same label\n\n[Term]\nid: GO:0000002\nname: Same  Label\n"
        with pytest.raises(ParseError, match="label"):
            parse_obo(text, "GO")


class TestParseIcd10:
    def test_filter_counts(self, icd_ontology):
        assert len(icd_ontology.concepts) == 7
        assert len(icd_ontology.universe) == 10

    def test_spec_examples(self):
        text = "code,label\nA00,Cholera\nA00.0,Cholera due to Vibrio\nS72.001,Femur fracture\n"
        ontology = parse_icd10(text)
        kept = {c.id for c in ontology.concepts}
        assert kept == {"A00", "A00.0"}
        assert "S72.001" in ontology.universe

    def test_filtered_codes_stay_in_universe(self, icd_ontology):
        assert {"S72.001", "V97.33X", "T36.0X1"} <= icd_ontology.universe
        assert not {"S72.001", "V97.33X", "T36.0X1"} & set(icd_ontology.id_index)

    def test_max_zero_keeps_universe_only(self, icd_csv_text):
        ontology = parse_icd10(icd_csv_text, max_code_chars=0)
        assert ontology.concepts == ()
        assert len(ontology.universe) == 10

    def test_empty_code_is_error_with_row(self):
        with pytest.raises(ParseError, match="row 3"):
            parse_icd10("code,label\nA00,Cholera\n,missing\n")

    def test_empty_label_is_error_with_row(self):
        with pytest.raises(ParseError, match="row 2"):
            parse_icd10("code,label\nA00,\n")

    def test_wrong_header_is_error(self):
        with pytest.raises(ParseError, match="header"):
            parse_icd10("id,name\nA00,Cholera\n")

    def test_codes_canonicalized(self):
        ontology = parse_icd10("code,label\ne119,diabetes\n")
        assert ontology.concepts[0].id == "E11.9"


class TestParseWikidata:
    def test_sample_counts(self, wikidata_ontology):
        assert len(wikidata_ontology.concepts) == 5
        assert wikidata_ontology.universe == {"Q1", "Q2", "Q42", "Q155", "Q308"}

    def test_polysemy_grouping(self, wikidata_ontology):
        assert wikidata_ontology.label_index["mercury"] == {"Q155", "Q308"}

    def test_single_row(self):
        ontology = parse_wikidata_sample("qid,label,qrank\nQ1,universe,9e9\n")
        assert len(ontology.concepts) == 1
        assert ontology.concepts[0].id == "Q1"

    def test_bad_qid_is_error(self):
        with pytest.raises(ParseError, match="QID"):
            parse_wikidata_sample("qid,label,qrank\nP31,instance of,1.0\n")

    def test_leading_zero_qid_is_error(self):
        with pytest.raises(ParseError, match="QID"):
            parse_wikidata_sample("qid,label,qrank\nQ042,Douglas Adams,1.0\n")

    def test_bad_qrank_is_error(self):
        with pytest.raises(ParseError, match="qrank"):
            parse_wikidata_sample("qid,label,qrank\nQ1,universe,not-a-number\n")

    def test_universe_stream(self, wikidata_csv_text):
        universe = "Q1\nQ2\nQ42\nQ155\nQ308\nQ99999\n"
        ontology = parse_wikidata_sample(wikidata_csv_text, universe)
        assert len(ontology.universe) == 6
        assert "Q99999" in ontology.universe

    def test_universe_must_cover_sample(self, wikidata_csv_text):
        with pytest.raises(ParseError, match="universe"):
            parse_wikidata_sample(wikidata_csv_text, "Q1\nQ2\n")

    def test_duplicate_label_allowed_only_here(self):
        text = "code,label\nA00,same\nB01,same\n"
        with pytest.raises(ParseError, match="label"):
            parse_icd10(text)


class TestCanonicalTable:
    @pytest.mark.parametrize(
        "fixture", ["go_ontology", "uberon_ontology", "icd_ontology", "wikidata_ontology"]
    )
    def test_round_trip_identity(self, fixture, request):
        ontology = request.getfixturevalue(fixture)
        text = write_concept_table(ontology)
        again = read_concept_table(text)
        assert again.kind is ontology.kind
        assert again.concepts == ontology.concepts
        assert again.universe == ontology.universe

    @pytest.mark.parametrize(
        "fixture", ["go_ontology", "uberon_ontology", "icd_ontology", "wikidata_ontology"]
    )
    def test_round_trip_byte_stable(self, fixture, request):
        ontology = request.getfixturevalue(fixture)
        once = write_concept_table(ontology)
        assert write_concept_table(read_concept_table(once)) == once

    def test_universe_only_rows_have_empty_label(self, go_ontology):
        lines = write_concept_table(go_ontology).splitlines()
        assert lines[0] == "source,id,label"
        empties = [line for line in lines[1:] if line.endswith(",")]
        assert len(empties) == 2

    def test_mixed_sources_rejected(self):
        text = "source,id,label\nGO,GO:0000001,a\nICD10,A00,b\n"
        with pytest.raises(ParseError, match="mixes"):
            read_concept_table(text)

    def test_unknown_source_rejected(self):
        with pytest.raises(ParseError):
            read_concept_table("source,id,label\nMESH,D000001,a\n")

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("MESH,D000001,a", "concept table: row 2 has unknown source 'MESH'"),
            ("GO,GO:0000001,a\nMESH,D000001,b", "concept table: row 3 has unknown source 'MESH'"),
            ("GO,GO:0000001,a\ngo,GO:0000002,b", "concept table: row 3 has unknown source 'go'"),
            ("GO,GO:0000001,a\nICD10,,b", "concept table: row 3 mixes ICD10 into a GO table"),
            (" GO ,GO:0000001,a\nGO,GO:0000002,b", None),
            ("GO,,a", "concept table: row 2 has an empty id"),
            ("GO,GO:0000001,a\nGO,GO:0000001,", "concept table: row 3 duplicates id GO:0000001"),
            ("GO,GO:0000001,a\nGO, GO:0000001 ,b", "concept table: row 3 duplicates id GO:0000001"),
            ("GO,GO:1,a", "concept table: row 2: concept ID 'GO:1' does not match the GO pattern"),
            ("", "concept table: no data rows"),
            # Faults on rows 3 and 5: the earlier one is named, whatever either is.
            (
                "GO,GO:0000001,a\nGO,GO:0000001,b\nGO,GO:0000003,c\nMESH,D1,d",
                "concept table: row 3 duplicates id GO:0000001",
            ),
            (
                "GO,GO:0000001,a\nGO,GO:2,b\nGO,GO:0000003,c\nGO,GO:0000001,d",
                "concept table: row 3: concept ID 'GO:2' does not match the GO pattern",
            ),
            ("GO,GO:0000001,a\nGO,,b\nGO,GO:0000003,c\nGO,GO:0000004", "concept table: row 3 has an empty id"),
            (
                "GO,GO:0000001,a\nUBERON,GO:0000002,b\nGO,GO:0000003,c\nGO,GO:0000001,d",
                "concept table: row 3 mixes UBERON into a GO table",
            ),
            (
                "GO,GO:0000001,a\nGO,GO:0000002\nGO,GO:0000003,c\nGO,GO:1,d",
                "concept table: row 3 has 2 fields, expected 3",
            ),
            # Labels normalize alike only after the rows passed: Ontology's check.
            ("GO,GO:0000001,A  b\nGO,GO:0000002,a B", "duplicate labels not permitted for GO: ['a b']"),
        ],
    )
    def test_row_checks_keep_their_order_and_messages(self, rows, message):
        text = f"source,id,label\n{rows}\n"
        if message is None:
            assert read_concept_table(text).kind is OntologyKind.GO
            return
        with pytest.raises(ParseError) as excinfo:
            read_concept_table(text)
        assert str(excinfo.value) == message


class TestOntologyInvariants:
    def test_concepts_must_be_in_universe(self):
        concept = Concept("GO:0000001", "a", OntologyKind.GO)
        with pytest.raises(ValueError, match="universe"):
            Ontology(OntologyKind.GO, (concept,), frozenset())

    def test_label_normalization(self):
        assert normalize_label("  Kidney   Development ") == "kidney development"

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            Concept("GO:0000001", "   ", OntologyKind.GO)

    def test_id_shape_enforced(self):
        with pytest.raises(ValueError):
            Concept("GO:123", "short id", OntologyKind.GO)
        with pytest.raises(ValueError):
            Concept("Q012", "padded qid", OntologyKind.WIKIDATA)

    def test_source_mismatch_rejected(self):
        concept = Concept("GO:0000001", "a", OntologyKind.GO)
        with pytest.raises(ValueError, match="source"):
            Ontology(OntologyKind.UBERON, (concept,), frozenset({"GO:0000001"}))

    @pytest.mark.parametrize(
        "kind, rows, universe, message",
        [
            (
                "UBERON",
                [("GO:0000001", "a"), ("GO:0000002", "b")],
                None,
                "concept GO:0000001 has source OntologyKind.GO, ontology is OntologyKind.UBERON",
            ),
            (
                "GO",
                [("GO:0000001", "a"), ("GO:0000002", "b"), ("GO:0000001", "c")],
                None,
                "duplicate concept ID GO:0000001",
            ),
            (
                "GO",
                [("GO:0000001", "a"), ("GO:0000002", "b")],
                {"GO:0000001"},
                "concept ID GO:0000002 missing from universe",
            ),
            (
                "GO",
                [("GO:0000001", "Kidney  Development"), ("GO:0000002", "b"), ("GO:0000003", "kidney development")],
                None,
                "duplicate labels not permitted for GO: ['kidney development']",
            ),
            # Faults of several kinds: the first concept at fault is named.
            (
                "GO",
                [("GO:0000001", "a"), ("GO:0000009", "b"), ("GO:0000001", "c"), ("GO:0000001", "a")],
                {"GO:0000001"},
                "concept ID GO:0000009 missing from universe",
            ),
            (
                "GO",
                [("GO:0000001", "a"), ("GO:0000001", "a"), ("GO:0000009", "b")],
                {"GO:0000001"},
                "duplicate concept ID GO:0000001",
            ),
        ],
    )
    def test_direct_construction_keeps_every_check(self, kind, rows, universe, message):
        concepts = tuple(Concept(cid, label, OntologyKind.GO) for cid, label in rows)
        universe = frozenset(universe if universe is not None else (cid for cid, _label in rows))
        with pytest.raises(ValueError) as excinfo:
            Ontology(OntologyKind(kind), concepts, universe)
        assert str(excinfo.value) == message

    def test_wikidata_labels_may_be_shared(self):
        rows = [("Q1", "a"), ("Q2", " A "), ("Q3", "b")]
        concepts = tuple(Concept(qid, label, OntologyKind.WIKIDATA) for qid, label in rows)
        ontology = Ontology(OntologyKind.WIKIDATA, concepts, frozenset({"Q1", "Q2", "Q3", "Q4"}))
        assert ontology.label_index == {"a": {"Q1", "Q2"}, "b": {"Q3"}}
        assert ontology.id_index == {c.id: c for c in concepts}

    @pytest.mark.parametrize(
        "args, message",
        [
            (("GO:123", "short id", OntologyKind.GO), "concept ID 'GO:123' does not match the GO pattern"),
            (("GO:0000001", " \t", OntologyKind.GO), "concept GO:0000001 has an empty label"),
        ],
    )
    def test_concept_keeps_both_checks(self, args, message):
        with pytest.raises(ValueError) as excinfo:
            Concept(*args)
        assert str(excinfo.value) == message


class TestCanonicalIcd10:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("A00", "A00"),
            ("a00", "A00"),
            ("A000", "A00.0"),
            ("E119", "E11.9"),
            ("E11.9", "E11.9"),
            ("S72001", "S72.001"),
            ("C34.1", "C34.1"),
            ("M1A.11X9", None),
            ("", None),
            ("123", None),
        ],
    )
    def test_cases(self, raw, expected):
        assert canonical_icd10(raw) == expected

    def test_idempotent(self):
        for raw in ["A00", "A000", "E119", "S72001", "V97.33X"]:
            once = canonical_icd10(raw)
            assert canonical_icd10(once) == once


# The three readers built on the shared header-checked CSV reader:
# (parse, header, one valid row, error type raised).
CSV_CALLERS = {
    "concept table": (read_concept_table, "source,id,label", "GO,GO:0000001,kidney development", ParseError),
    "occurrence file": (read_occurrences, "source,id,occurrences", "web,GO:0000001,12", ParseError),
    "translation table": (
        load_translation_table, "ontology,style,language,text", "GO,CHAT,IT,Dammi l'ID GO di {l}", ConfigurationError
    ),
}


@pytest.mark.parametrize("caller", sorted(CSV_CALLERS))
class TestSharedCsvReader:
    def _raises(self, caller, text, match):
        parse, _header, _row, error = CSV_CALLERS[caller]
        with pytest.raises(error, match=match) as exc:
            parse(text)
        assert exc.type is error

    def test_missing_header(self, caller):
        self._raises(caller, "", f"^{caller}: missing header row")

    def test_wrong_header(self, caller):
        _parse, header, row, _error = CSV_CALLERS[caller]
        self._raises(caller, f"{header},extra\n{row}\n", f"^{caller}: expected header {header}, got")

    def test_wrong_row_width_names_the_row(self, caller):
        _parse, header, row, _error = CSV_CALLERS[caller]
        short = row.rsplit(",", 1)[0]
        width = header.count(",") + 1
        self._raises(
            caller, f"{header}\n{row}\n{short}\n", f"^{caller}: row 3 has {width - 1} fields, expected {width}$"
        )

    def test_unreadable_row_names_its_line(self, caller):
        # A field over the csv module's size limit (131,072 characters) fails in the
        # csv module itself, which raises csv.Error.
        _parse, header, row, _error = CSV_CALLERS[caller]
        huge = row.rsplit(",", 1)[0] + "," + "x" * 200_000
        self._raises(caller, f"{header}\n{row}\n{huge}\n", f"^{caller}: line 3: field larger than field limit")

    def test_blank_rows_skipped(self, caller):
        parse, header, row, _error = CSV_CALLERS[caller]
        parsed = parse(f"{header}\n\n   \n{row}\n\n")
        items = parsed.concepts if caller == "concept table" else parsed
        assert len(items) == 1

    def test_row_level_error_names_the_row(self, caller):
        parse, header, row, _error = CSV_CALLERS[caller]
        bad = ",".join(["BOGUS", *row.split(",")[1:]]) if caller != "occurrence file" else "web,GO:0000001,many"
        self._raises(caller, f"{header}\n\n{bad}\n", f"^{caller}: row 3")
