"""frobcalc runs on the standard library alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A None entry in sys.modules makes every later `import numpy` raise
# ImportError, including a lazy import inside a function that only one
# subcommand reaches.
SCRIPT = """
import json, sys
sys.modules["numpy"] = None
from frobcalc.cli import run
print(json.dumps([run(argv + ["--json"]) for argv in json.loads(sys.argv[1])]))
"""

ARGVS = [
    ["strand", "--ell", "4", "--j", "2", "--steps", "3", "--char", "3"],
    ["betti", "--char", "2", "--vars", "x,y,z", "--ideal", "x^2, y^2, z^2, x*y"],
    ["codepth", "--char", "3", "--vars", "x,y", "--ideal", "x^4, x^2*y^2, y^4"],
    ["fsplit", "--char", "5", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3", "-e", "2"],
    ["decompose", "--char", "2", "--vars", "x,y", "--ideal", "x^4, x^2*y^2, y^4"],
]


def test_subcommands_run_without_numpy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(ARGVS)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(ARGVS)
