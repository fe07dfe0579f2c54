"""Smoke test of tools/report_digest.py, the byte-identity check between
two checkouts: one seed and the strand and filtration grids, from a fresh
process."""

import hashlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS  # noqa: E402

DIGEST = re.compile(r"[0-9a-f]{64}")
EMPTY = hashlib.sha256(b"").hexdigest()


def test_one_seed_digests_every_report():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digest.py"), "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split("\t") for line in proc.stdout.splitlines()]
    assert all(len(fields) == 4 and DIGEST.fullmatch(fields[2]) and DIGEST.fullmatch(fields[3])
               for fields in lines)
    # every query once in JSON and once in text mode: every workload, then
    # 66 (ell, j) pairs, steps 0..20 and four primes, then seven ideals,
    # with and without a free variable, at four primes
    runs = Counter(fields[0].rpartition(" [")[0] for fields in lines)
    assert set(runs.values()) == {2}
    grids = ("strand ", "filtration ")
    assert {run.partition(":")[0] for run in runs if not run.startswith(grids)} == set(WORKLOADS)
    assert sum(run.startswith("strand ") for run in runs) == 66 * 21 * 4
    assert sum(run.startswith("filtration ") for run in runs) == 7 * 2 * 4
    # the digest is that of the report as tests/golden holds it
    digests = {fields[0]: fields[1:] for fields in lines}
    golden = (ROOT / "tests" / "golden" / "strand_ell3_j1_steps8_p2.json").read_bytes()
    assert digests["strand ell=3 j=1 steps=8 char=2 [json]"] == ["0", hashlib.sha256(golden).hexdigest(), EMPTY]
