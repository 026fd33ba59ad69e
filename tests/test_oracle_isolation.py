"""No production module imports :mod:`repro.oracle`.

The oracle module holds the reference routes the differential suites
and the benchmarks' naive baselines check the production routes
against.  A production import of it would give an operation a second
route, so this test imports the serving entry points and then every
other module of the package in a fresh interpreter, and fails naming
the first import that pulled the oracle in.  :mod:`repro.bench` (whose
naive sides time the oracles) is the one allowed importer.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import importlib
import pkgutil
import sys

ENTRY_POINTS = [
    "repro",
    "repro.cli",
    "repro.shard.router",
    "repro.shard.frontend",
    "repro.service.store",
    "repro.service.replica",
]
ALLOWED = {"repro.__main__", "repro.bench", "repro.oracle"}

import repro

names = ENTRY_POINTS + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name not in ALLOWED
]
for name in names:
    importlib.import_module(name)
    if "repro.oracle" in sys.modules:
        print(name)
        sys.exit(1)
print(len(names))
"""


def test_production_modules_do_not_import_the_oracle():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, (
        "importing this module pulled in repro.oracle: "
        f"{completed.stdout.strip()}\n{completed.stderr[-2000:]}"
    )
    # The walk really covered the package, not just the entry points.
    assert int(completed.stdout.strip()) > 50
