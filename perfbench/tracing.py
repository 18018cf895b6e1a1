"""Outside-in tracing of one CLI stage, and the per-layer metrics it yields.

A traced stage runs as

    PYTHONPATH=src python3 perfbench/tracing.py --spans FILE --stage ID -- <ontoprobe args>

It imports the CLI, replaces the module attributes that `cli.py`,
`runs.py`, `invariance.py`, `gateway.py` and `metrics.py` call with timing
wrappers, runs `ontoprobe.cli.main` and writes every span to FILE once, at
exit. `src/` is not modified: only names looked up at call time are
rebound, in this process.

A span is (id, parent, name, start, end, note). The parent is the
innermost open span of the calling thread; work the gateway submits to
its ThreadPoolExecutor gets the submitting span as parent, because the
executor is replaced by one that carries it across (contextvars do not
cross a plain executor).
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = 0  # parent id of spans opened outside any other span


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [ROOT]
        return stack

    def wrap(self, name: str, fn, note=None):
        """`fn` recording one span per call; `note(args, result, exc)` annotates it."""

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1]
            stack.append(sid)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, note(args, result, exc) if note else None))

        return traced

    def executor_class(self):
        """A ThreadPoolExecutor whose tasks run under the submitting span."""
        tracer = self

        class CarryingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._stack()[-1]

                def run():
                    stack = tracer._stack()
                    saved = stack[:]
                    stack[:] = [parent]
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack[:] = saved

                return super().submit(run)

        return CarryingExecutor


def _transport_outcome(args, result, exc):
    if exc is not None:
        return "conn"
    status = result[0]
    if status == 429:
        return "429"
    if 500 <= status < 600:
        return "5xx"
    return str(status)


def _batch_note(args, result, exc):
    gateway = args[0]
    answered = [r for r in result or () if r is not None]
    return {
        "hits": sum(1 for r in answered if r.from_cache),
        "answered": len(answered),
        "requested": len(args[1]),
        "max_in_flight": gateway.config.max_in_flight,
    }


def install(tracer: Tracer) -> None:
    """Rebind the traced names. Span names are `<defining module>.<function>`."""
    from ontoprobe import cli, gateway, invariance, metrics, runs

    def patch(module, attr: str, name: str, note=None) -> None:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), note))

    for stage in ("ingest", "probe", "analyze", "invariance", "simulate", "report"):
        patch(cli, f"run_{stage}", f"runs.run_{stage}")
    for attr, module_name in (
        ("read_concept_table", "ontology"),
        ("parse_obo", "ontology"),
        ("render", "prompts"),
        ("extract_id", "extraction"),
        ("read_scored_records", "metrics"),
        ("write_scored_records", "metrics"),
        ("levenshtein", "metrics"),
        ("error_similarity", "metrics"),
        ("bucketize", "popularity"),
        ("per_bucket_accuracy", "popularity"),
        ("read_occurrences", "popularity"),
        ("spearman", "stats"),
        ("granger_f", "stats"),
        ("atomic_write_text", "runs"),
        ("file_digest", "runs"),
        ("ResponseCache", "gateway.cache_load"),
    ):
        patch(runs, attr, module_name if "." in module_name else f"{module_name}.{attr}")
    for attr in ("run_pi1", "run_pi2", "run_pi3", "aggregate_avpi"):
        patch(invariance, attr, f"invariance.{attr}")
    patch(invariance, "render", "prompts.render")
    patch(invariance, "extract_id", "extraction.extract_id")
    # error_similarity calls levenshtein through the metrics module.
    patch(metrics, "levenshtein", "metrics.levenshtein")
    # The provider call of one attempt: HTTP transport or the synthetic model.
    patch(gateway, "_requests_transport", "gateway.transport", _transport_outcome)
    patch(gateway, "synthetic_respond", "gateway.transport", lambda args, result, exc: "synthetic")
    patch(gateway.ModelGateway, "complete_batch", "gateway.complete_batch", _batch_note)
    patch(gateway.ResponseCache, "put", "gateway.cache_put")
    gateway.ThreadPoolExecutor = tracer.executor_class()


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, start, end, _note in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _note in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


SUMMED = (
    "ontology.read_concept_table",
    "ontology.parse_obo",
    "prompts.render",
    "gateway.complete_batch",
    "gateway.cache_load",
    "gateway.cache_put",
    "extraction.extract_id",
    "metrics.levenshtein",
    "metrics.error_similarity",
    "metrics.read_scored_records",
    "metrics.write_scored_records",
    "popularity.bucketize",
    "popularity.per_bucket_accuracy",
    "popularity.read_occurrences",
    "stats.spearman",
    "stats.granger_f",
    "invariance.run_pi1",
    "invariance.run_pi2",
    "invariance.run_pi3",
    "invariance.aggregate_avpi",
    "runs.atomic_write_text",
    "runs.file_digest",
)


def layer_metrics(traces: list[dict], stages: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics over the traced stage processes of one pass.

    `<layer>_s` sums span durations; spans in the gateway's worker threads
    overlap, so for those it is thread time, not wall time.
    """
    totals = {name: 0.0 for name in SUMMED}
    calls = {name: 0 for name in SUMMED}
    transport: list[float] = []
    retries = {"429": 0, "5xx": 0, "conn": 0}
    hits = answered = 0
    slot_busy = slot_capacity = 0.0
    stage_self = {stage: 0.0 for stage in stages}
    for trace in traces:
        spans = [tuple(s) for s in trace["spans"]]
        own = self_times(spans)
        busy_by_parent: dict[int, float] = {}
        for sid, parent, name, start, end, note in spans:
            if name in totals:
                totals[name] += end - start
                calls[name] += 1
            if name == "gateway.transport":
                transport.append(end - start)
                busy_by_parent[parent] = busy_by_parent.get(parent, 0.0) + end - start
                if note in retries:
                    retries[note] += 1
            elif name.startswith("runs.run_") and parent == ROOT:
                stage_self[trace["stage"]] = own[sid]
        for sid, _parent, name, start, end, note in spans:
            if name == "gateway.complete_batch":
                hits += note["hits"]
                answered += note["answered"]
                if sid in busy_by_parent:
                    slot_busy += busy_by_parent[sid]
                    slot_capacity += (end - start) * note["max_in_flight"]
    out = {"cli.import_s": statistics.median(t["import_s"] for t in traces)}
    for name in SUMMED:
        out[f"{name}_s"] = totals[name]
    out["gateway.cache_put_calls"] = calls["gateway.cache_put"]
    out["gateway.cache_hit_ratio"] = hits / answered if answered else 0.0
    out["gateway.transport_ms_p50"] = 1000 * _percentile(transport, 0.50) if transport else 0.0
    out["gateway.transport_ms_p99"] = 1000 * _percentile(transport, 0.99) if transport else 0.0
    out["gateway.slot_busy_ratio"] = slot_busy / slot_capacity if slot_capacity else 0.0
    for cause, count in retries.items():
        out[f"gateway.retries_{cause}"] = count
    out["metrics.levenshtein_calls"] = calls["metrics.levenshtein"]
    out["stats.spearman_calls"] = calls["stats.spearman"]
    for stage, value in stage_self.items():
        out[f"runs.{stage}.self_s"] = value
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if "_ms_" in metric:
        return "ms"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description="run one ontoprobe CLI stage with tracing")
    parser.add_argument("--spans", required=True, type=Path, help="file the spans are written to")
    parser.add_argument("--stage", required=True, help="stage id recorded with the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.perf_counter()
    from ontoprobe import cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        args.spans.write_text(
            json.dumps({"stage": args.stage, "import_s": import_s, "spans": tracer.spans}), encoding="utf-8"
        )


if __name__ == "__main__":
    sys.exit(main())
