"""Every flag that a stage records in its manifest acts, or the stage refuses it.

The run ID hashes a manifest's `inputs`, `parameters` and `seed`, so a
recorded flag that changes nothing still gives the run another identity.
Each case runs one stage twice through `cli.main` on a small `simulate`
input: as its base gives it, where a flag left out takes its default, and
with the flag set to another valid value. Some data output must differ, or
one of the runs must exit 2. A value that acts on nothing in a run is not
recorded, so it leaves the run ID as it was.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import GO_OBO, ICD_CSV, WIKIDATA_CSV
from ontoprobe.cli import build_parser, main

# Files a run writes that hold no data: its identity and its response cache.
NOT_DATA = {"manifest.json", "cache.ndjson"}

# Each base is a stage with its flags; `<name>` is a file the `world` fixture makes.
BASES = {
    "simulate": ["simulate", "--size", "300"],
    "ingest-go": ["ingest", "--source", "<go.obo>", "--kind", "go"],
    "ingest-icd10": ["ingest", "--source", "<icd.csv>", "--kind", "icd10"],
    "ingest-wikidata": ["ingest", "--source", "<wikidata.csv>", "--kind", "wikidata"],
    "probe": ["probe", "--ontology", "<concepts.csv>", "--model-config", "<model_config.json>"],
    "probe-sample": ["probe", "--ontology", "<concepts.csv>", "--model-config", "<model_config.json>", "--sample", "100"],
    "analyze": [
        "analyze", "--scored", "<scored.ndjson>", "--ontology", "<concepts.csv>", "--occurrences", "<occurrences.csv>",
        "--buckets", "5",
    ],
    "analyze-missing": [
        "analyze", "--scored", "<scored.ndjson>", "--ontology", "<concepts.csv>", "--occurrences", "<partial.csv>",
        "--buckets", "5",
    ],
    "invariance": [
        "invariance", "--ontology", "<concepts.csv>", "--model-config", "<model_config.json>",
        "--occurrences", "<occurrences.csv>", "--buckets", "5", "--k-sample", "2", "--repeats", "3",
    ],
    "invariance-pi2": [
        "invariance", "--ontology", "<concepts.csv>", "--model-config", "<model_config.json>",
        "--occurrences", "<occurrences.csv>", "--buckets", "5", "--k-sample", "2", "--strategies", "PI2",
    ],
    "report": ["report", "--analysis", "<analysis.json>"],
}

# (base, flag, another valid value). The value replaces the base's own, if it
# gives one. The bases keep bucket and sample counts small, to stay fast.
CASES = [
    ("simulate", "--size", "200"),
    ("simulate", "--max-exponent", "3"),
    ("simulate", "--hallucination-style", "near_miss"),
    ("simulate", "--temperature-sensitivity", "0.1"),
    ("simulate", "--seed", "1"),
    ("ingest-go", "--source", "<uberon.obo>"),
    ("ingest-go", "--kind", "uberon"),
    ("ingest-icd10", "--source", "<icd_short.csv>"),
    ("ingest-icd10", "--kind", "wikidata"),
    ("ingest-icd10", "--max-code-chars", "3"),
    ("ingest-wikidata", "--source", "<wikidata_short.csv>"),
    ("ingest-wikidata", "--kind", "icd10"),
    ("ingest-wikidata", "--universe", "<universe.csv>"),
    ("probe", "--ontology", "<concepts_short.csv>"),
    ("probe", "--sample", "100"),
    ("probe", "--style", "completion"),
    ("probe", "--language", "fr"),
    ("probe-sample", "--seed", "1"),
    ("analyze", "--scored", "<scored_short.ndjson>"),
    ("analyze", "--ontology", "<concepts_wider.csv>"),
    ("analyze", "--occurrences", "<occurrences_b.csv>"),
    ("analyze", "--buckets", "8"),
    ("analyze", "--lag", "1"),
    ("analyze", "--permutations", "100"),
    ("analyze", "--top-k", "1"),
    ("analyze", "--seed", "1"),
    ("analyze-missing", "--allow-missing", None),
    ("invariance", "--ontology", "<concepts_short.csv>"),
    ("invariance", "--occurrences", "<occurrences_b.csv>"),
    ("invariance", "--strategies", "PI2"),
    ("invariance", "--buckets", "4"),
    ("invariance", "--k-sample", "1"),
    ("invariance", "--repeats", "2"),
    ("invariance", "--permutations", "100"),
    ("invariance", "--style", "completion"),
    ("invariance", "--seed", "1"),
    ("report", "--analysis", "<analysis_b.json>"),
    ("report", "--invariance", "<invariance_report.json>"),
]


@pytest.fixture(scope="module")
def world(tmp_path_factory) -> dict:
    """The input files the bases and cases name, and a cache of runs."""
    root = tmp_path_factory.mktemp("flags")
    files: dict[str, Path] = {}

    def stage(*argv: str) -> Path:
        out = root / f"setup{len(list(root.glob('setup*')))}"
        assert main([*argv, "--out", str(out)]) == 0
        return out

    def text(name: str, content: str) -> None:
        files[name] = root / name
        files[name].write_text(content, encoding="utf-8")

    sim, sim_b = stage("simulate", "--size", "300", "--seed", "2"), stage("simulate", "--size", "300", "--seed", "3")
    for name in ("concepts.csv", "model_config.json", "occurrences.csv"):
        files[name] = sim / name
    files["occurrences_b.csv"] = sim_b / "occurrences.csv"
    table = files["concepts.csv"].read_text(encoding="utf-8").splitlines(keepends=True)
    text("concepts_short.csv", "".join(table[:201]))
    occurrences = files["occurrences.csv"].read_text(encoding="utf-8").splitlines(keepends=True)
    text("partial.csv", "".join(occurrences[:-20]))

    concepts, config = str(files["concepts.csv"]), str(files["model_config.json"])
    files["scored.ndjson"] = stage("probe", "--ontology", concepts, "--model-config", config) / "scored.ndjson"
    # A universe that holds some of the invented answers, as universe-only rows.
    scored = [json.loads(line) for line in files["scored.ndjson"].read_text(encoding="utf-8").splitlines()]
    invented = sorted({row["predicted_id"] for row in scored if row["invented"]})[:10]
    text("concepts_wider.csv", "".join(table) + "".join(f"GO,{cid},\n" for cid in invented))
    short = stage("probe", "--ontology", str(files["concepts_short.csv"]), "--model-config", config)
    files["scored_short.ndjson"] = short / "scored.ndjson"
    analyze = ["analyze", "--scored", str(files["scored.ndjson"]), "--ontology", concepts, "--buckets", "5"]
    files["analysis.json"] = stage(*analyze, "--occurrences", str(files["occurrences.csv"])) / "analysis.json"
    files["analysis_b.json"] = stage(*analyze, "--occurrences", str(files["occurrences_b.csv"])) / "analysis.json"
    inv = stage(
        "invariance", "--ontology", concepts, "--model-config", config, "--occurrences", str(files["occurrences.csv"]),
        "--buckets", "5", "--k-sample", "1", "--repeats", "2",
    )
    files["invariance_report.json"] = inv / "invariance_report.json"

    text("go.obo", GO_OBO)
    text("uberon.obo", GO_OBO.replace("GO:", "UBERON:").replace("ontology: go", "ontology: uberon"))
    text("icd.csv", ICD_CSV)
    text("icd_short.csv", "".join(ICD_CSV.splitlines(keepends=True)[:6]))
    text("wikidata.csv", WIKIDATA_CSV)
    text("wikidata_short.csv", "".join(WIKIDATA_CSV.splitlines(keepends=True)[:4]))
    text("universe.csv", "qid\nQ1\nQ2\nQ42\nQ155\nQ308\nQ5\n")
    return {"root": root, "files": files, "runs": {}}


def run(world: dict, argv: list[str]) -> tuple[int, dict[str, bytes], Path]:
    """Exit code, data outputs and output directory of `main(argv)`, with
    `<name>` replaced by its file; each argv runs once per module."""
    argv = [str(world["files"][a[1:-1]]) if a.startswith("<") else a for a in argv]
    key = tuple(argv)
    if key not in world["runs"]:
        out = world["root"] / f"run{len(world['runs'])}"
        code = main([*argv, "--out", str(out)])
        data = {p.name: p.read_bytes() for p in sorted(out.glob("*")) if p.name not in NOT_DATA} if code == 0 else {}
        world["runs"][key] = code, data, out
    return world["runs"][key]


def with_value(argv: list[str], flag: str, value: str | None) -> list[str]:
    """`argv` with `flag` set to `value`, or added alone if `value` is None."""
    if flag not in argv:
        return argv + [flag] + ([] if value is None else [value])
    at = argv.index(flag)
    return argv[: at + 1] + [value] + argv[at + 2:]


def case_id(case) -> str:
    base, flag, _value = case
    return f"{base} {flag}"


@pytest.mark.parametrize("case", CASES, ids=[case_id(case) for case in CASES])
def test_flag_acts_or_is_refused(world, case):
    base, flag, value = case
    default_code, default_data, _ = run(world, BASES[base])
    code, data, _ = run(world, with_value(BASES[base], flag, value))
    assert {default_code, code} <= {0, 2}
    assert 2 in (default_code, code) or default_data != data, f"{flag} {value} changed no data output"


def recorded(world: dict, base: str) -> set[str]:
    """The flag dests whose value the base's run records, and `seed` if it records one."""
    code, _data, out = run(world, BASES[base])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    names = {name for block in ("inputs", "parameters") for name, value in manifest[block].items() if value is not None}
    return names | ({"seed"} if manifest["seed"] is not None else set())


def flags_of(command: str) -> dict[str, str]:
    """Each long flag of `command`, by its dest."""
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    return {a.dest: a.option_strings[0] for a in subparsers.choices[command]._actions if a.option_strings}


# analyze-missing exits 2 by design: it is the input --allow-missing acts on.
@pytest.mark.parametrize("base", sorted(set(BASES) - {"analyze-missing"}))
def test_each_recorded_value_has_a_case(world, base):
    command = BASES[base][0]
    dests = {flag: dest for dest, flag in flags_of(command).items()}
    covered = {dests[flag] for b, flag, _value in CASES if BASES[b][0] == command}
    assert recorded(world, base) <= covered


# Each (base, flag) leaves out a value that acts on nothing in that run; giving
# the flag must change neither the data nor the run ID.
UNRECORDED = [
    ("probe", "--seed", "1"),  # seeds only the --sample draw
    ("probe", "--kind", "go"),  # asserts the table's kind, which the manifest's ontology block records
]


@pytest.mark.parametrize("case", UNRECORDED, ids=[case_id(case) for case in UNRECORDED])
def test_value_that_acts_on_nothing_is_not_recorded(world, case):
    base, flag, value = case
    default_code, default_data, default_out = run(world, BASES[base])
    code, data, out = run(world, with_value(BASES[base], flag, value))
    assert default_code == code == 0 and default_data == data
    run_ids = [json.loads((o / "manifest.json").read_text(encoding="utf-8"))["run_id"] for o in (default_out, out)]
    assert run_ids[0] == run_ids[1]
    dest = {f: d for d, f in flags_of(BASES[base][0]).items()}[flag]
    assert dest not in recorded(world, base)


@pytest.mark.parametrize(
    "base, name", [("ingest-go", "max_code_chars"), ("ingest-wikidata", "max_code_chars"), ("invariance-pi2", "m_repeats")]
)
def test_value_of_another_kind_or_strategy_is_not_recorded(world, base, name):
    assert name not in recorded(world, base)
