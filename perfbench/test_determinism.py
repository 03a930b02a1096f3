"""Exact-count determinism of the benchmark workloads.

Each workload runs at a tiny size with one seed in two fresh interpreters
with different hash seeds; verdict vectors and every count must agree.
Counts are the only benchmark numbers a change may claim as exact.

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {
    "soundness": {"sequents": 3},
    "certify": {"lemmas": 30, "roundtrips": 15, "roundtrip_size": 3},
    "godel": {"formulas": 80},
}
EXACT = ("prover_ip.nodes", "prover_ep.steps", "prover_ip.trace_nodes", "translate.ff_out_nodes")


def profile(workload: str, seed: int, hash_seed: int) -> dict:
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(json.dumps(run.count_profile(sys.argv[2], int(sys.argv[3]), "
            "json.loads(sys.argv[4]))))")
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE), workload, str(seed), json.dumps(TINY[workload])],
        capture_output=True, text=True, check=True, timeout=300,
        env={**os.environ, "PYTHONHASHSEED": str(hash_seed)})
    return json.loads(out.stdout)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_repeats_exactly(workload):
    first = profile(workload, 0, hash_seed=1)
    second = profile(workload, 0, hash_seed=2)
    assert first["failures"] == []
    assert first["digest"] == second["digest"]
    assert first["verdicts"] and first["verdicts"] == second["verdicts"]
    assert any(first["counts"][name] for name in EXACT)
    for name in EXACT:
        assert first["counts"][name] == second["counts"][name], name
    assert first["counts"] == second["counts"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_other_seed_gives_other_corpus(workload):
    _, corpus0 = run.setup(workload, 0, TINY[workload])
    _, corpus1 = run.setup(workload, 1, TINY[workload])
    assert run.digest(corpus0) != run.digest(corpus1)
