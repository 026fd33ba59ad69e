"""Interner codes do not depend on hash order.

A relation's rows live in a ``frozenset``, whose iteration order
follows ``PYTHONHASHSEED`` for string values; ``ColumnStore.columnar``
must still give every value the same code.  Run the same columnar
builds in subprocesses pinned to different seeds and require identical
codes.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

SCRIPT = r"""
import json

from repro.compile import ColumnStore
from repro.state.relation import Relation

store = ColumnStore()
relations = [
    Relation("AB", [{"A": f"a{i}", "B": f"b{i % 7}"} for i in range(40)]),
    # Shares values with the first; one column mixes ints and strings.
    Relation(
        "BC",
        [{"B": f"b{i}", "C": i if i % 3 else f"c{i}"} for i in range(12)],
    ),
    Relation("AB", [{"A": f"a{i}", "B": "b-new"} for i in range(35, 50)]),
]
doc = {"rows": []}
for relation in relations:
    columnar = store.columnar(relation)
    doc["rows"].append(sorted(zip(*columnar.cols)))
doc["decoder"] = [repr(value) for value in store.decoder()]
print(json.dumps(doc))
"""


def codes_with_seed(seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_interner_codes_identical_across_hash_seeds():
    outputs = {seed: codes_with_seed(seed) for seed in ("0", "1", "4242")}
    assert outputs["0"] == outputs["1"] == outputs["4242"]
    assert outputs["0"].strip(), "script produced no output"
