"""Workload definitions and the seeded input generators.

Both workloads run the same seven timed CLI stages, so every end-to-end
metric exists on both; the inputs and flags decide which layer dominates:

- sim10k: the ROADMAP run at 10,000 concepts with default flags (invariance
  samples 10 concepts per bucket, not 20) and the generated SYNTHETIC
  config (max_in_flight=4). Probe, the response cache, analyze and
  invariance all do full work; no HTTP. Analyze gets an
  occurrence file lacking a seeded share of rows (--allow-missing) and a
  second occurrence source, so the missing-row exclusion and the source
  comparison run too.
- http-loopback: a CHAT_HTTP probe of a seeded sample against a loopback
  stub with a fixed service delay and a seeded share of transient faults.
  The transport, retries and the in-flight pool dominate; analyze is small
  and has no missing rows.

All inputs are pure functions of the benchmark seed; the program only
ever sees the files written here.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Stage ids in run order. Each is timed on its own as `<id>_s`.
STAGES = (
    "ingest",
    "probe_fresh",
    "probe_resume",
    "analyze",
    "invariance_fresh",
    "invariance_resume",
    "report",
)


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # concepts made by `ontoprobe simulate`
    sample: int | None = None  # `probe --sample`
    http: bool = False  # probe and invariance go to the loopback stub
    # Share of rows missing from analyze's occurrence file; when set, analyze
    # also gets a second occurrence source and --allow-missing.
    missing_share: float = 0.0
    invariance_args: tuple[str, ...] = ()
    min_rho: float | None = None  # planted popularity/accuracy Spearman rho the analysis must reach


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim10k",
            size=10000,
            missing_share=0.11,
            min_rho=0.9,
            # Half the default sample per bucket keeps a run near 30 s, so ten
            # runs in a row span less of the host's slow drifts.
            invariance_args=("--k-sample", "10"),
        ),
        Workload(
            "http-loopback",
            size=5000,
            sample=600,
            http=True,
            invariance_args=("--buckets", "10", "--k-sample", "1", "--repeats", "3"),
        ),
    )
}

# Loopback stub behaviour for http-loopback.
STUB_DELAY_S = 0.010
STUB_FAULTS = {"429": 0.04, "503": 0.04, "drop": 0.02}  # share of first attempts
HTTP_MAX_IN_FLIGHT = 2  # two requests in flight already overlap the stub delay
HTTP_BACKOFF_BASE = 0.02


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def write_obo(concepts_csv: Path, out: Path, seed: int) -> dict:
    """Write the simulated concepts as a GO OBO file that makes parse_obo work.

    Native terms keep the simulated order and carry namespace, def, synonym,
    is_a and (for a seeded share) alt_id lines. Obsolete GO terms and
    foreign-prefix terms are interleaved at seeded positions: they enter the
    universe but not the concepts. A [Typedef] stanza closes the file.
    """
    rng = random.Random(f"{seed}:obo")
    concepts = [(row[1], row[2]) for row in _rows(concepts_csv) if row[2]]
    n_obsolete = max(1, len(concepts) // 20)
    n_foreign = max(1, len(concepts) // 30)
    n_alt = len(concepts) // 10
    # Simulated IDs are GO:0000001..GO:<size>, so numbers above that are free.
    spare = iter(rng.sample(range(len(concepts) + 1, 10**7), n_obsolete + n_alt))
    extras: dict[int, list[str]] = {}
    for i in range(n_obsolete):
        gid = f"GO:{next(spare):07d}"
        stanza = f"[Term]\nid: {gid}\nname: obsolete synthetic process {i}\nnamespace: biological_process\nis_obsolete: true\n"
        extras.setdefault(rng.randrange(len(concepts)), []).append(stanza)
    prefixes = ("CHEBI", "UBERON", "PR", "CL")
    for i, number in enumerate(rng.sample(range(10**7), n_foreign)):
        stanza = f"[Term]\nid: {prefixes[i % len(prefixes)]}:{number:07d}\nname: imported term {i}\n"
        extras.setdefault(rng.randrange(len(concepts)), []).append(stanza)
    alt_for = set(rng.sample(range(len(concepts)), n_alt))

    buf = io.StringIO()
    buf.write("format-version: 1.2\ndata-version: perfbench\nontology: go\n\n")
    for i, (cid, label) in enumerate(concepts):
        for stanza in extras.get(i, ()):
            buf.write(stanza + "\n")
        buf.write(f"[Term]\nid: {cid}\nname: {label}\nnamespace: biological_process\n")
        if i in alt_for:
            buf.write(f"alt_id: GO:{next(spare):07d}\n")
        buf.write(f'def: "Synthetic definition of {label}." [PERFBENCH:{i}]\n')
        buf.write(f'synonym: "{label} alias" EXACT []\n')
        if i:
            buf.write(f"is_a: {concepts[rng.randrange(i)][0]} ! parent\n")
        buf.write("\n")
    buf.write("[Typedef]\nid: part_of\nname: part of\n")
    out.write_text(buf.getvalue(), encoding="utf-8")
    return {"concepts": len(concepts), "obsolete": n_obsolete, "foreign": n_foreign, "alt_ids": n_alt}


def _write_occurrences(path: Path, rows: list[tuple[str, str, int]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "id", "occurrences"])
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def write_missing_rows(occurrences_csv: Path, out: Path, share: float, seed: int) -> int:
    """Copy the occurrence file without a seeded share of its rows."""
    rows = _rows(occurrences_csv)
    drop = set(random.Random(f"{seed}:missing").sample(range(len(rows)), round(len(rows) * share)))
    _write_occurrences(out, [(r[0], r[1], int(r[2])) for i, r in enumerate(rows) if i not in drop])
    return len(drop)


def write_second_source(occurrences_csv: Path, out: Path, seed: int) -> int:
    """A second web-count source: log-normal noise on the first, 5% of rows absent."""
    rng = random.Random(f"{seed}:second")
    rows = []
    for _source, cid, count in _rows(occurrences_csv):
        if rng.random() < 0.05:
            continue
        rows.append(("second", cid, max(0, round(int(count) * math.exp(rng.gauss(0.0, 0.5))))))
    _write_occurrences(out, rows)
    return len(rows)


def write_model_config(base_config: Path, out: Path, endpoint: str | None) -> None:
    """The model config: the generated one, pointed at the stub when given.

    `out` sits next to `base_config`, so the relative profile path holds.
    """
    config = json.loads(base_config.read_text(encoding="utf-8"))
    if endpoint is not None:
        config.update(
            provider="CHAT_HTTP", endpoint=endpoint, max_in_flight=HTTP_MAX_IN_FLIGHT, backoff_base=HTTP_BACKOFF_BASE
        )
        del config["profile_path"]
    out.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
