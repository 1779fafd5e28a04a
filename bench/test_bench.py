"""Self-tests of the benchmark; the repository's test suite does not collect them.

    python3 -m pytest bench -q      (about four minutes on two cores)

Two traced runs of one seed must report identical count-type layer metrics,
every run of one seed, traced or not, must print the same output digest, and
without the program's sources the benchmark must fail without a result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COUNT_METRIC = re.compile(
    r"catalog\.terms\.|catalog\.covariants_evaluated$|classify\.branch\.|atlas\.filter_pass_ratio$"
)


def run(workload, trace, cwd=ROOT, seed=7):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_and_digest(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", ["census", "classify", "invariants"])
def test_counts_and_digests_repeat(workload):
    (a, digest_a), (b, digest_b), (c, digest_c) = (
        result_and_digest(run(workload, trace)) for trace in (1, 1, 0)
    )
    for result in (a, b, c):
        assert result["correct"] and result["failed"] == 0
    counts = {k: v for k, v in a["metrics"].items() if COUNT_METRIC.match(k)}
    assert len(counts) == 12 + 1 + 4 + 1
    assert counts == {k: v for k, v in b["metrics"].items() if COUNT_METRIC.match(k)}
    assert digest_a == digest_b == digest_c
    if workload == "census":
        assert counts["catalog.covariants_evaluated"]["value"] == 83
    if workload == "classify":
        assert sum(counts[f"classify.branch.{b}"]["value"]
                   for b in ("T_V", "Vpp_W", "Vp_Z", "B_Dxy")) == 48


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run("invariants", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_self_time_subtracts_children():
    sys.path.insert(0, str(ROOT / "bench"))
    from tracer import Tracer

    tr = Tracer()
    tr.spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
    ]
    assert tr.self_times() == [3.0, 2.0, 1.0, 4.0]
    assert tr.summary("op")["a"] == [1, 3.0, 2.0]
