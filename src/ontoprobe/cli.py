"""Command line interface.

Exit codes: 0 success; 2 bad input or configuration (including argparse
usage errors); 3 degenerate numeric input; 4 transport gave out, or a
probe run finished with failed requests recorded in its manifest.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from .errors import DegenerateInputError, OntoprobeError, TransportExhausted
from .gateway import HallucinationStyle
from .invariance import Strategy
from .ontology import OntologyKind
from .prompts import Language, PromptStyle
from .runs import run_analyze, run_ingest, run_invariance, run_probe, run_report, run_simulate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_TRANSPORT = 4

# Choices come from the enums the runs parse these options into.
KINDS = [kind.value.lower() for kind in OntologyKind]
STYLES = [style.value for style in PromptStyle]


class _FlagHelpFormatter(argparse.HelpFormatter):
    """Name an option's value after its flag, not its dest: `--source SOURCE`, not `SOURCE_PATH`."""

    def _get_default_metavar_for_optional(self, action: argparse.Action) -> str:
        return action.option_strings[0][2:].upper().replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontoprobe",
        description="Probe language models for memorized ontology ID/label associations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # An option left out stays out of the namespace, so the run_* signatures hold the only defaults.
    add_parser = functools.partial(
        sub.add_parser, argument_default=argparse.SUPPRESS, formatter_class=_FlagHelpFormatter
    )

    p_ingest = add_parser("ingest", help="convert a source ontology into the canonical concept table")
    p_ingest.add_argument(
        "--source", required=True, dest="source_path", help="OBO file, ICD-10 CSV, or Wikidata sample CSV"
    )
    p_ingest.add_argument("--kind", required=True, type=str.lower, choices=KINDS)
    p_ingest.add_argument("--universe", dest="universe_path", help="full ID universe CSV (WIKIDATA only)")
    p_ingest.add_argument("--max-code-chars", type=int, help="ICD-10 code length cutoff (ICD10 only; default 4)")
    p_ingest.add_argument("--out", required=True, dest="out_dir", help="output directory")

    p_probe = add_parser("probe", help="query a model for every concept and score the answers")
    p_probe.add_argument("--ontology", required=True, dest="ontology_path", help="canonical concept table CSV")
    p_probe.add_argument("--kind", type=str.lower, choices=KINDS, help="assert the table's ontology kind")
    p_probe.add_argument("--model-config", required=True, dest="config", help="model config JSON")
    p_probe.add_argument("--sample", type=int, help="probe a seeded sample instead of every concept")
    p_probe.add_argument("--style", type=str.upper, choices=STYLES, help="override the provider's default prompt style")
    p_probe.add_argument("--language", type=str.upper, choices=[language.value for language in Language])
    p_probe.add_argument("--cache", dest="cache_path", help="response cache path (default <out>/cache.ndjson)")
    p_probe.add_argument("--seed", type=int)
    p_probe.add_argument("--out", required=True, dest="out_dir")

    p_analyze = add_parser("analyze", help="bucketed popularity analysis of a scored run")
    p_analyze.add_argument("--scored", required=True, dest="scored_path", help="scored records NDJSON from probe")
    p_analyze.add_argument("--ontology", required=True, dest="ontology_path")
    p_analyze.add_argument(
        "--occurrences",
        action="append",
        required=True,
        dest="occurrence_paths",
        help="occurrence counts CSV; give twice to also compare the two sources",
    )
    p_analyze.add_argument("--buckets", type=int)
    p_analyze.add_argument("--lag", type=int)
    p_analyze.add_argument(
        "--permutations", type=int, help="Spearman permutations (default 10000); memory does not grow with it"
    )
    p_analyze.add_argument("--top-k", type=int)
    p_analyze.add_argument("--allow-missing", action="store_true", help="drop scored concepts lacking an occurrence row")
    p_analyze.add_argument("--seed", type=int)
    p_analyze.add_argument("--out", required=True, dest="out_dir")

    p_inv = add_parser("invariance", help="prediction invariance over repeats, temperatures, languages")
    p_inv.add_argument("--ontology", required=True, dest="ontology_path")
    p_inv.add_argument("--model-config", required=True, dest="config")
    p_inv.add_argument("--occurrences", required=True, dest="occurrence_path")
    p_inv.add_argument("--strategies", nargs="+", type=str.upper, choices=[strategy.value for strategy in Strategy])
    p_inv.add_argument("--buckets", type=int)
    p_inv.add_argument("--k-sample", type=int, help="concepts sampled per bucket")
    p_inv.add_argument("--repeats", type=int, dest="m_repeats", help="repetitions per concept (PI1 only; default 10)")
    p_inv.add_argument(
        "--permutations", type=int, help="Spearman permutations (default 10000); memory does not grow with it"
    )
    p_inv.add_argument("--style", type=str.upper, choices=STYLES)
    p_inv.add_argument("--cache", dest="cache_path", help="response cache path (default <out>/cache.ndjson)")
    p_inv.add_argument("--seed", type=int)
    p_inv.add_argument("--out", required=True, dest="out_dir")

    p_sim = add_parser("simulate", help="generate a synthetic ontology, counts, and memorizer profile")
    p_sim.add_argument("--size", type=int)
    p_sim.add_argument("--max-exponent", type=float, help="occurrence counts span 10**0..10**this")
    p_sim.add_argument("--hallucination-style", type=str.upper, choices=[style.value for style in HallucinationStyle])
    p_sim.add_argument("--temperature-sensitivity", type=float)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", required=True, dest="out_dir")

    p_report = add_parser("report", help="flatten analysis JSON into plot-ready CSV tables")
    p_report.add_argument("--analysis", required=True, dest="analysis_path", help="analysis.json from analyze")
    p_report.add_argument("--invariance", dest="invariance_path", help="invariance_report.json to merge AvPI columns")
    p_report.add_argument("--out", required=True, dest="out_dir")

    return parser


def main(argv: list[str] | None = None) -> int:
    # The cyclic collector is paused for the whole stage: its rows hold no
    # reference cycles, so collections would walk them and free nothing.
    # The stats worker that the stage forks inherits the pause.
    collecting = gc.isenabled()
    gc.disable()
    try:
        kwargs = vars(build_parser().parse_args(argv))
        # Subcommand X runs run_X, looked up at call time so that rebinding a
        # run_* name on this module (as perfbench/tracing.py does) takes effect.
        runner = globals()[f"run_{kwargs.pop('command')}"]
        manifest = runner(**kwargs)
        # Only probe records failed requests.
        if manifest.counts.get("failed", 0) > 0:
            print(
                f"probe finished with {manifest.counts['failed']} failed requests "
                f"(scored as wrong; see {kwargs['out_dir']}/manifest.json)",
                file=sys.stderr,
            )
            return EXIT_TRANSPORT
    except (OntoprobeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DegenerateInputError):
            return EXIT_DEGENERATE
        return EXIT_TRANSPORT if isinstance(exc, TransportExhausted) else EXIT_USAGE
    finally:
        if collecting:
            gc.enable()
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
