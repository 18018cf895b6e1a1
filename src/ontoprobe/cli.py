"""Command line interface.

Exit codes: 0 success; 2 bad input or configuration (including argparse
usage errors); 3 degenerate numeric input; 4 transport gave out, or a
probe run finished with failed requests recorded in its manifest.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigurationError, DegenerateInputError, ParseError, TransportExhausted
from .runs import run_analyze, run_ingest, run_invariance, run_probe, run_report, run_simulate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_TRANSPORT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontoprobe",
        description="Probe language models for memorized ontology ID/label associations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="convert a source ontology into the canonical concept table")
    p_ingest.add_argument(
        "--source", required=True, dest="source_path", metavar="SOURCE", help="OBO file, ICD-10 CSV, or Wikidata sample CSV"
    )
    p_ingest.add_argument("--kind", required=True, type=str.lower, choices=["go", "uberon", "icd10", "wikidata"])
    p_ingest.add_argument("--universe", dest="universe_path", metavar="UNIVERSE", help="full ID universe CSV (WIKIDATA only)")
    p_ingest.add_argument("--max-code-chars", type=int, default=4, help="ICD-10 code length cutoff (default 4)")
    p_ingest.add_argument("--out", required=True, dest="out_dir", metavar="OUT", help="output directory")

    p_probe = sub.add_parser("probe", help="query a model for every concept and score the answers")
    p_probe.add_argument(
        "--ontology", required=True, dest="ontology_path", metavar="ONTOLOGY", help="canonical concept table CSV"
    )
    p_probe.add_argument("--kind", type=str.lower, choices=["go", "uberon", "icd10", "wikidata"], help="assert the table's ontology kind")
    p_probe.add_argument("--model-config", required=True, dest="config", metavar="MODEL_CONFIG", help="model config JSON")
    p_probe.add_argument("--sample", type=int, help="probe a seeded sample instead of every concept")
    p_probe.add_argument(
        "--style", type=str.upper, choices=["CHAT", "COMPLETION"], help="override the provider's default prompt style"
    )
    p_probe.add_argument("--language", default="EN", type=str.upper, choices=["EN", "IT", "DE", "FR", "ES"])
    p_probe.add_argument(
        "--cache", dest="cache_path", metavar="CACHE", help="response cache path (default <out>/cache.ndjson)"
    )
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.add_argument("--out", required=True, dest="out_dir", metavar="OUT")

    p_analyze = sub.add_parser("analyze", help="bucketed popularity analysis of a scored run")
    p_analyze.add_argument(
        "--scored", required=True, dest="scored_path", metavar="SCORED", help="scored records NDJSON from probe"
    )
    p_analyze.add_argument("--ontology", required=True, dest="ontology_path", metavar="ONTOLOGY")
    p_analyze.add_argument(
        "--occurrences",
        action="append",
        required=True,
        dest="occurrence_paths",
        metavar="OCCURRENCES",
        help="occurrence counts CSV; give twice to also compare the two sources",
    )
    p_analyze.add_argument("--buckets", type=int, default=50)
    p_analyze.add_argument("--lag", type=int, default=3)
    p_analyze.add_argument("--permutations", type=int, default=10000)
    p_analyze.add_argument("--top-k", type=int, default=500)
    p_analyze.add_argument("--allow-missing", action="store_true", help="drop scored concepts lacking an occurrence row")
    p_analyze.add_argument("--seed", type=int, default=0)
    p_analyze.add_argument("--out", required=True, dest="out_dir", metavar="OUT")

    p_inv = sub.add_parser("invariance", help="prediction invariance over repeats, temperatures, languages")
    p_inv.add_argument("--ontology", required=True, dest="ontology_path", metavar="ONTOLOGY")
    p_inv.add_argument("--model-config", required=True, dest="config", metavar="MODEL_CONFIG")
    p_inv.add_argument("--occurrences", required=True, dest="occurrence_path", metavar="OCCURRENCES")
    p_inv.add_argument(
        "--strategies",
        nargs="+",
        default=["PI1", "PI2", "PI3"],
        type=str.upper,
        choices=["PI1", "PI2", "PI3"],
    )
    p_inv.add_argument("--buckets", type=int, default=50)
    p_inv.add_argument("--k-sample", type=int, default=20, help="concepts sampled per bucket")
    p_inv.add_argument(
        "--repeats", type=int, default=10, dest="m_repeats", metavar="REPEATS", help="repetitions per concept for PI1"
    )
    p_inv.add_argument("--permutations", type=int, default=10000)
    p_inv.add_argument("--style", type=str.upper, choices=["CHAT", "COMPLETION"])
    p_inv.add_argument("--cache", dest="cache_path", metavar="CACHE", help="response cache path (default <out>/cache.ndjson)")
    p_inv.add_argument("--seed", type=int, default=0)
    p_inv.add_argument("--out", required=True, dest="out_dir", metavar="OUT")

    p_sim = sub.add_parser("simulate", help="generate a synthetic ontology, counts, and memorizer profile")
    p_sim.add_argument("--size", type=int, default=1000)
    p_sim.add_argument("--max-exponent", type=float, default=5.0, help="occurrence counts span 10**0..10**this")
    p_sim.add_argument(
        "--hallucination-style", default="INVENTED", type=str.upper, choices=["NEAR_MISS", "POPULAR_ID", "INVENTED"]
    )
    p_sim.add_argument("--temperature-sensitivity", type=float, default=0.5)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, dest="out_dir", metavar="OUT")

    p_report = sub.add_parser("report", help="flatten analysis JSON into plot-ready CSV tables")
    p_report.add_argument(
        "--analysis", required=True, dest="analysis_path", metavar="ANALYSIS", help="analysis.json from analyze"
    )
    p_report.add_argument(
        "--invariance", dest="invariance_path", metavar="INVARIANCE", help="invariance_report.json to merge AvPI columns"
    )
    p_report.add_argument("--out", required=True, dest="out_dir", metavar="OUT")

    return parser


def main(argv: list[str] | None = None) -> int:
    kwargs = vars(build_parser().parse_args(argv))
    # Looked up at call time so that rebinding a run_* name on this module
    # (as perfbench/tracing.py does) takes effect.
    runner = {
        "ingest": run_ingest,
        "probe": run_probe,
        "analyze": run_analyze,
        "invariance": run_invariance,
        "simulate": run_simulate,
        "report": run_report,
    }[kwargs.pop("command")]
    try:
        manifest = runner(**kwargs)
        # Only probe records failed requests.
        if manifest.counts.get("failed", 0) > 0:
            print(
                f"probe finished with {manifest.counts['failed']} failed requests "
                f"(scored as wrong; see {kwargs['out_dir']}/manifest.json)",
                file=sys.stderr,
            )
            return EXIT_TRANSPORT
    except (ParseError, ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except TransportExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
