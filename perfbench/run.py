"""ontoprobe benchmark: time per CLI stage, with an output-correctness gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each stage runs as its own `ontoprobe` CLI
process from `src/`, exactly as a researcher runs it. The last line of
stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the bounded end-to-end ones
(set-up, pipeline, peak RSS); every stage time is printed above it. With
`--trace 1` one untraced pass is followed by a traced one and the metrics
are the per-layer ones from the trace, the untraced stage times and the
tracing overhead. Stage times are wall seconds whose busy part is scaled
to a reference host speed (see REFERENCE_S). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import tracing
from workloads import STAGES, WORKLOADS, Workload, write_missing_rows, write_model_config, write_obo, write_second_source

SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole run, set-up included
# The host-speed reference: a process that only starts the interpreter and
# imports scipy.stats, as every stage process does when it imports ontoprobe.
# It runs no ontoprobe code, so no change to the program moves it.
REFERENCE = ["-c", "import scipy.stats"]
# Its median wall time on the 2-vCPU machine the benchmark was defined on
# (Python 3.11.7, scipy 1.17.1). The part of a timed process's wall time it
# spent on a CPU is scaled by REFERENCE_S over the mean of the reference runs
# just before and after it; time spent waiting (on the stub) is not.
REFERENCE_S = 1.25


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
        self.env.update(PYTHONPATH=str(root / "src"), NO_PROXY="*")
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.reference_walls: list[float] = []

    # -- processes -------------------------------------------------------

    def run(self, label: str, argv: list[str], timed: bool = True) -> tuple[float, float]:
        """Run one process to completion; return its wall seconds and busy share.

        The busy share is the process's CPU time over its wall time, at most 1.
        """
        self.attempted += 1
        log = self.work / "logs" / f"{label}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(f"{label}: run deadline passed")
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=self.root)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            # wait4 rather than Popen.wait: it also returns the child's rusage.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
        if timed:
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise RuntimeError(f"{label}: exit code {proc.returncode}\n{tail}")
        return wall, min(1.0, (usage.ru_utime + usage.ru_stime) / wall)

    def reference(self, label: str) -> float:
        wall, _ = self.run(label, [sys.executable, *REFERENCE], timed=False)
        self.reference_walls.append(wall)
        return wall

    def cli(self, label: str, args: list[str], trace_to: Path | None = None, timed: bool = True) -> tuple[float, float]:
        if trace_to is None:
            argv = [sys.executable, "-m", "ontoprobe.cli", *args]
        else:
            here = Path(__file__).resolve().parent
            argv = [sys.executable, str(here / "tracing.py"), "--spans", str(trace_to), "--stage", label.split("#")[0], "--", *args]
        return self.run(label, argv, timed)

    def start_stub(self, sim: Path) -> tuple[subprocess.Popen, str]:
        stub = Path(__file__).resolve().parent / "stub.py"
        log = open(self.work / "logs" / "stub.log", "ab")
        proc = subprocess.Popen(
            [sys.executable, str(stub), "--sim", str(sim), "--seed", str(self.seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=log,
            env=self.env,
            cwd=self.root,
        )
        log.close()
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        line = proc.stdout.readline().decode() if ready else ""
        if not line.startswith("READY "):
            stop(proc)
            raise RuntimeError("stub did not become ready")
        return proc, f"http://127.0.0.1:{int(line.split()[1])}/v1"

    def reset_stub(self, endpoint: str) -> None:
        """Make the stub fail the next run's first attempts again."""
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        opener.open(urllib.request.Request(f"{endpoint}/reset", data=b"", method="POST"), timeout=10).close()

    # -- checks ----------------------------------------------------------

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def same_files(self, what: str, a: Path, b: Path, names: list[str]) -> None:
        for name in names:
            self.check(f"{what}: {name} differs", filecmp.cmp(a / name, b / name, shallow=False))

    def manifest(self, out: Path) -> dict:
        return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def stop(stub: subprocess.Popen) -> None:
    """Close the stub's stdin, which ends it; kill it if it lingers."""
    stub.stdin.close()
    try:
        stub.wait(timeout=10)
    except subprocess.TimeoutExpired:
        stub.kill()
        stub.wait()
    stub.stdout.close()


def normalised(wall: float, busy: float, ref_before: float, ref_after: float) -> float:
    """Wall seconds with their busy share scaled to the reference host speed (see REFERENCE_S)."""
    speed = REFERENCE_S / ((ref_before + ref_after) / 2)
    return wall * (1 + busy * (speed - 1))


def setup(bench: Bench) -> tuple[Path, float, subprocess.Popen | None, str | None]:
    """Simulate SETUP_REPEATS times and keep the last; then start the stub.

    setup_s is the median normalised simulate time plus the normalised time
    the stub takes to serve, on the workloads that use it.
    """
    w, work = bench.workload, bench.work
    times = []
    ref = bench.reference("reference#setup")
    for i in range(SETUP_REPEATS):
        sim = work / f"sim{i}"
        wall, busy = bench.cli(f"simulate#{i}", ["simulate", "--size", str(w.size), "--seed", str(bench.seed), "--out", str(sim)], timed=False)
        next_ref = bench.reference(f"reference#setup{i}")
        times.append(normalised(wall, busy, ref, next_ref))
        ref = next_ref
    bench.same_files("simulate rerun", work / "sim0", sim, ["concepts.csv", "occurrences.csv", "profile.json", "model_config.json"])
    setup_s = statistics.median(times)
    stub = endpoint = None
    if w.http:
        start = time.perf_counter()
        stub, endpoint = bench.start_stub(sim)
        wall = time.perf_counter() - start
        # Starting the stub is interpreter start-up and imports: all busy.
        setup_s += normalised(wall, 1.0, ref, bench.reference("reference#stub"))
    return sim, setup_s, stub, endpoint


def prepare_inputs(bench: Bench, sim: Path, endpoint: str | None) -> dict:
    """Write the workload's generated inputs; return their paths and sizes."""
    w, work, seed = bench.workload, bench.work, bench.seed
    inputs = {"obo": work / "go.obo", "config": sim / "bench_config.json", "occurrences": [sim / "occurrences.csv"]}
    inputs["obo_terms"] = write_obo(sim / "concepts.csv", inputs["obo"], seed)
    write_model_config(sim / "model_config.json", inputs["config"], endpoint)
    if w.missing_share:
        partial, second = work / "occurrences_partial.csv", work / "occurrences_second.csv"
        inputs["missing_rows"] = write_missing_rows(sim / "occurrences.csv", partial, w.missing_share, seed)
        inputs["second_rows"] = write_second_source(sim / "occurrences.csv", second, seed)
        inputs["occurrences"] = [partial, second]
    return inputs


INVARIANCE_OUTPUTS = ["invariance_pi1.ndjson", "invariance_pi2.ndjson", "invariance_pi3.ndjson", "invariance_report.json"]
# Data outputs of each stage, and the stage whose outputs they must equal.
OUTPUTS = {
    "ingest": (["concepts.csv"], "ingest"),
    "probe_fresh": (["scored.ndjson"], "probe_fresh"),
    "probe_resume": (["scored.ndjson"], "probe_fresh"),
    "analyze": (["analysis.json"], "analyze"),
    "invariance_fresh": (INVARIANCE_OUTPUTS, "invariance_fresh"),
    "invariance_resume": (INVARIANCE_OUTPUTS, "invariance_fresh"),
    "report": (["bucket_table.csv", "summary.csv"], "report"),
}


def stage_args(bench: Bench, stage: str, out: Path, sim: Path, inputs: dict) -> list[str]:
    """CLI arguments of one stage, reading earlier stages' outputs under `out`."""
    w, seed = bench.workload, str(bench.seed)
    concepts = str(out / "ingest0" / "concepts.csv")
    probe = ["probe", "--ontology", concepts, "--model-config", str(inputs["config"]), "--seed", seed]
    if w.sample is not None:
        probe += ["--sample", str(w.sample)]
    invariance = [
        "invariance", "--ontology", concepts, "--model-config", str(inputs["config"]),
        "--occurrences", str(sim / "occurrences.csv"), "--seed", seed, *w.invariance_args,
    ]
    if stage == "ingest":
        return ["ingest", "--source", str(inputs["obo"]), "--kind", "go"]
    if stage == "probe_fresh":
        return probe
    if stage == "probe_resume":
        return [*probe, "--cache", str(out / "probe_fresh0" / "cache.ndjson")]
    if stage == "analyze":
        args = ["analyze", "--scored", str(out / "probe_fresh0" / "scored.ndjson"), "--ontology", concepts, "--seed", seed]
        for occurrences in inputs["occurrences"]:
            args += ["--occurrences", str(occurrences)]
        return [*args, "--allow-missing"] if w.missing_share else args
    if stage == "invariance_fresh":
        return invariance
    if stage == "invariance_resume":
        return [*invariance, "--cache", str(out / "invariance_fresh0" / "cache.ndjson")]
    return [
        "report", "--analysis", str(out / "analyze0" / "analysis.json"),
        "--invariance", str(out / "invariance_fresh0" / "invariance_report.json"),
    ]


def run_pass(
    bench: Bench, p: int, sim: Path, inputs: dict, endpoint: str | None, trace_dir: Path | None
) -> tuple[dict[str, float], dict[str, float], Path]:
    """Run the seven stages once; return each stage's wall and normalised seconds.

    An untraced pass runs the reference before the first stage and after
    every stage; a traced pass runs none and has no normalised times.
    """
    out = bench.work / f"pass{p}"
    times, norm = {}, {}
    ref = bench.reference(f"reference#{p}") if trace_dir is None else None
    for stage in STAGES:
        target = out / f"{stage}0"
        spans = trace_dir / f"{stage}.json" if trace_dir is not None else None
        if endpoint is not None and stage.endswith("_fresh"):
            bench.reset_stub(endpoint)
        args = [*stage_args(bench, stage, out, sim, inputs), "--out", str(target)]
        times[stage], busy = bench.cli(f"{stage}#{p}", args, trace_to=spans)
        if ref is not None:
            next_ref = bench.reference(f"reference#{stage}#{p}")
            norm[stage] = normalised(times[stage], busy, ref, next_ref)
            ref = next_ref
        files, reference = OUTPUTS[stage]
        if reference != stage:
            bench.same_files(f"{stage} vs {reference}", out / f"{reference}0", target, files)
        if stage == "probe_resume":
            counts = bench.manifest(target)["counts"]
            bench.check("probe resume: not every answer came from the cache", counts["from_cache"] == counts["requested"])

    for manifest in (bench.manifest(out / "probe_fresh0"), bench.manifest(out / "invariance_fresh0")):
        counts = manifest["counts"]
        requested = counts.get("requested", sum(v for k, v in counts.items() if k.startswith("answers_")))
        bench.attempted += requested
        bench.failures.extend(["model request failed"] * counts.get("failed", 0))
    if p > 0:
        for stage, (files, _) in OUTPUTS.items():
            bench.same_files(f"pass {p} vs pass 0", bench.work / "pass0" / f"{stage}0", out / f"{stage}0", files)
    return times, norm, out


def gate(bench: Bench, sim: Path, inputs: dict, first: Path) -> None:
    """Workload-specific output checks, on the first pass."""
    w = bench.workload
    analysis = json.loads((first / "analyze0" / "analysis.json").read_text(encoding="utf-8"))
    ingested = bench.manifest(first / "ingest0")["counts"]
    bench.check("ingest: concept count differs from simulate", ingested["concepts"] == w.size)
    terms = inputs["obo_terms"]
    bench.check("ingest: universe misses obsolete or foreign terms", ingested["universe"] == w.size + terms["obsolete"] + terms["foreign"])
    if w.min_rho is not None:
        rho = analysis["spearman"]["rho"]
        bench.check(f"planted signal not recovered: rho {rho} < {w.min_rho}", rho is not None and rho >= w.min_rho)
    if w.missing_share:
        bench.check("analyze: missing rows not excluded", analysis["excluded_missing_occurrence"] == inputs["missing_rows"])
        bench.check("analyze: no occurrence comparison", "occurrence_comparison" in analysis)
    if w.http:
        reference = bench.work / "reference"
        args = ["probe", "--ontology", str(first / "ingest0" / "concepts.csv"), "--model-config", str(sim / "model_config.json")]
        args += ["--seed", str(bench.seed), "--sample", str(w.sample), "--out", str(reference)]
        bench.cli("reference-probe", args, timed=False)
        bench.same_files("HTTP probe vs SYNTHETIC probe", reference, first / "probe_fresh0", ["scored.ndjson"])


def environment(root: Path, workload: Workload, seed: int, inputs: dict) -> dict:
    def version(name: str) -> str | None:
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "requests": version("requests"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": workload.name,
        "size": workload.size,
        "sample": workload.sample,
        "obo_terms": inputs.get("obo_terms"),
        "missing_rows": inputs.get("missing_rows"),
        "second_rows": inputs.get("second_rows"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="measure for this long; at least one pass")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "ontoprobe" / "cli.py").is_file():
        print(f"error: no ontoprobe sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    bench = Bench(root, workload, args.seed, work)

    stub = None
    metrics: dict[str, tuple[float, str]] = {}
    try:
        sim, setup_s, stub, endpoint = setup(bench)
        inputs = prepare_inputs(bench, sim, endpoint)
        print("env " + json.dumps(environment(root, workload, args.seed, inputs), sort_keys=True))
        all_times: dict[str, list[float]] = {stage: [] for stage in STAGES}
        all_norm: dict[str, list[float]] = {stage: [] for stage in STAGES}
        start = time.monotonic()
        p = 0
        while True:
            # A traced run times one untraced pass, then one traced pass.
            trace_dir = bench.work / "spans" if args.trace and p == 1 else None
            if trace_dir is not None:
                trace_dir.mkdir()
            times, norm, out = run_pass(bench, p, sim, inputs, endpoint, trace_dir)
            if p == 0:
                gate(bench, sim, inputs, out)
            if trace_dir is None:
                for stage in STAGES:
                    all_times[stage].append(times[stage])
                    all_norm[stage].append(norm[stage])
            p += 1
            elapsed = time.monotonic() - start
            if args.trace:
                if p == 2:
                    break
            elif elapsed + elapsed / p > args.seconds:
                break
        stage_s = {stage: statistics.median(values) for stage, values in all_times.items()}
        norm_s = {stage: statistics.median(values) for stage, values in all_norm.items()}
        if args.trace:
            traces = [json.loads(f.read_text(encoding="utf-8")) for f in sorted(trace_dir.glob("*.json"))]
            metrics = {name: (value, tracing.unit_of(name)) for name, value in tracing.layer_metrics(traces, STAGES).items()}
            # Stage times come from the untraced pass only.
            for stage in STAGES:
                metrics[f"cli.{stage}_s"] = (norm_s[stage], "s")
            metrics["bench.reference_s"] = (statistics.median(bench.reference_walls), "s")
            metrics["bench.trace_overhead_s"] = (sum(times.values()) - sum(stage_s.values()), "s")
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "pipeline_s": (sum(norm_s.values()), "s"),
                "peak_rss_mb": (bench.peak_rss_mb, "MB"),
            }
        for stage in STAGES:
            print(f"{stage + '_s':36s} {norm_s[stage]:14.6f} s  (wall {stage_s[stage]:.6f} s)")
        print(f"passes {p}")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        bench.failures.append(str(exc).splitlines()[0])
    finally:
        if stub is not None:
            stop(stub)

    failed = len(bench.failures)
    for failure in dict.fromkeys(bench.failures):
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    print(f"{'failed_share':36s} {failed / bench.attempted:14.6f} share ({failed} of {bench.attempted})")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
