"""Kill a stage anywhere, resume it, and get the bytes of a run never killed.

Each killed run is a subprocess that runs `cli.main` through a launcher in
this file, so src/ needs no hook. The launcher wraps `ResponseCache.put`:
once the process has appended its N-th cache row, a seeded N, it sends
itself SIGKILL. The second of a run's three such kills first cuts that row
in half, which is what a kill in mid-append leaves on disk. A fourth kill
lands in the rename of the stage's last data output.

Orphaned temp files are left, as harmless. `atomic_write_text` removes its
`.<name>.<hex>.tmp` file only in an `except`, which SIGKILL skips; but the
rename is the commit point, each write takes a fresh random name, and no
stage reads a dotted `.tmp` file. The test checks that the orphan is there
and that the resumed outputs equal the unkilled run's all the same.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_profile
from ontoprobe import parse_wikidata_sample, run_ingest, run_simulate
from ontoprobe.cli import main

pytestmark = pytest.mark.skipif(sys.platform == "win32", reason="sends SIGKILL")

LAUNCHER = """
import json, os, signal, sys
from pathlib import Path
from ontoprobe import cli, gateway

spec = json.loads(sys.argv[1])
appended = 0
put, replace = gateway.ResponseCache.put, os.replace

def put_then_die(self, *args):
    global appended
    before = len(self)
    put(self, *args)
    appended += len(self) - before
    if appended == spec["kill_at"]:
        if spec["tear"]:
            data = self.path.read_bytes()
            row_start = data.rfind(b"\\n", 0, len(data) - 1) + 1
            os.truncate(self.path, (row_start + len(data)) // 2)
        os.kill(os.getpid(), signal.SIGKILL)

def replace_or_die(src, dst, *args, **kwargs):
    if Path(dst).name == spec["kill_on_rename"]:
        os.kill(os.getpid(), signal.SIGKILL)
    return replace(src, dst, *args, **kwargs)

gateway.ResponseCache.put = put_then_die
os.replace = replace_or_die
sys.exit(cli.main(spec["argv"]))
"""


def run_killed(argv: list[str], kill_at: int = 0, tear: bool = False, kill_on_rename: str | None = None) -> None:
    """Run `argv` through the launcher, which must kill itself."""
    spec = {"argv": argv, "kill_at": kill_at, "tear": tear, "kill_on_rename": kill_on_rename}
    result = subprocess.run([sys.executable, "-c", LAUNCHER, json.dumps(spec)], capture_output=True, text=True)
    assert result.returncode == -signal.SIGKILL, result.stderr


def cache_keys(path: Path) -> list[str]:
    return [json.loads(line)["key_hash"] for line in path.read_text(encoding="utf-8").splitlines()]


def assert_killed_run_resumes(argv: list[str], tmp_path: Path, outputs: list[str], seed: int) -> None:
    """Kill `argv` (a stage without `--out`) three times at seeded cache row
    counts and once in the rename of `outputs[-1]`, resume it, and compare
    it with an unkilled run."""
    reference, out = tmp_path / "reference", tmp_path / "killed"
    assert main([*argv, "--out", str(reference)]) == 0
    rows = len(cache_keys(reference / "cache.ndjson"))
    rng = random.Random(seed)
    for tear in (False, True, False):
        written = (out / "cache.ndjson").read_bytes().count(b"\n") if out.exists() else 0
        run_killed([*argv, "--out", str(out)], kill_at=rng.randint(1, (rows - written) // 2), tear=tear)
    run_killed([*argv, "--out", str(out)], kill_on_rename=outputs[-1])
    assert not (out / outputs[-1]).exists()
    assert len(list(out.glob(f".{outputs[-1]}.*.tmp"))) == 1
    assert main([*argv, "--out", str(out)]) == 0
    for name in outputs:
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name
    keys = cache_keys(out / "cache.ndjson")
    assert len(keys) == len(set(keys))
    assert set(keys) == set(cache_keys(reference / "cache.ndjson"))


@pytest.fixture(scope="module")
def sim(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("sim")
    run_simulate(out, size=3000, seed=23)
    return out


def test_probe_killed_at_seeded_rows_resumes_to_the_same_bytes(sim, tmp_path):
    argv = ["probe", "--ontology", str(sim / "concepts.csv"), "--model-config", str(sim / "model_config.json")]
    assert_killed_run_resumes(argv, tmp_path, ["scored.ndjson"], seed=2201)


def test_invariance_killed_at_seeded_rows_resumes_to_the_same_bytes(sim, tmp_path):
    argv = [
        "invariance", "--ontology", str(sim / "concepts.csv"), "--model-config", str(sim / "model_config.json"),
        "--occurrences", str(sim / "occurrences.csv"), "--buckets", "10", "--k-sample", "3", "--repeats", "3",
        "--permutations", "200",
    ]
    outputs = ["invariance_pi1.ndjson", "invariance_pi2.ndjson", "invariance_pi3.ndjson", "invariance_report.json"]
    assert_killed_run_resumes(argv, tmp_path, outputs, seed=2202)


def test_wikidata_probe_with_shared_labels_resumes_to_the_same_bytes(tmp_path):
    # 300 QIDs, the first 200 pairing up on 100 labels: a pair gets one
    # prompt, so one cache key.
    rows = [f"Q{i},{f'pair {(i + 1) // 2}' if i <= 200 else f'lone {i}'},{1000 - i}" for i in range(1, 301)]
    sample = "qid,label,qrank\n" + "\n".join(rows) + "\n"
    (tmp_path / "sample.csv").write_text(sample, encoding="utf-8")
    run_ingest(tmp_path / "sample.csv", "wikidata", tmp_path / "table")
    profile = make_profile(parse_wikidata_sample(sample), recall=0.5)
    (tmp_path / "profile.json").write_text(json.dumps(profile.to_dict()), encoding="utf-8")
    config = {"provider": "SYNTHETIC", "model_name": "m", "temperature": 0.0, "seed": 3, "profile_path": "profile.json"}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    argv = ["probe", "--ontology", str(tmp_path / "table" / "concepts.csv"), "--model-config", str(tmp_path / "config.json")]
    assert_killed_run_resumes(argv, tmp_path, ["scored.ndjson"], seed=2203)
