"""frobcalc runs on the standard library alone, and its start-up imports
only what the CLI uses, in JSON and in text mode alike."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# A None entry in sys.modules makes every later `import numpy` raise
# ImportError, including a lazy import inside a function that only one
# subcommand reaches.  The modules left loaded are reported after the runs.
SCRIPT = """
import json, sys
sys.modules["numpy"] = None
from frobcalc.cli import run
argvs = json.loads(sys.argv[1])
codes = [run(argv + ["--json"]) for argv in argvs]
text_codes = [run(argv) for argv in argvs]
print(json.dumps({"codes": codes, "text_codes": text_codes, "modules": sorted(sys.modules)}))
"""

ARGVS = [
    ["strand", "--ell", "4", "--j", "2", "--steps", "3", "--char", "3"],
    ["betti", "--char", "2", "--vars", "x,y,z", "--ideal", "x^2, y^2, z^2, x*y"],
    ["codepth", "--char", "3", "--vars", "x,y", "--ideal", "x^4, x^2*y^2, y^4"],
    ["fsplit", "--char", "5", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3", "-e", "2"],
    ["decompose", "--char", "2", "--vars", "x,y", "--ideal", "x^4, x^2*y^2, y^4"],
    ["summand", "--char", "3", "--vars", "x0,x1,x2,x3", "--ideal", "x0*x1 + x2*x3", "--j", "1"],
    ["twists", "--char", "3", "--vars", "x0,x1,x2,x3", "--ideal", "x0*x1 + x2*x3"],
    ["witness", "--char", "3", "--vars", "x0,x1,x2,x3", "--ideal", "x0*x1 + x2*x3"],
    ["genexp", "--char", "2", "--vars", "x,y", "--ideal", "x^2, y^2"],
    ["filtration", "--char", "2", "--vars", "x,y,z,w", "--ideal", "x^2, y^2, z*w"],
    ["flevel", "--char", "2", "--vars", "x,y", "--ideal", "x^4, x^2*y^2, y^4"],
    ["loewy", "--char", "2", "--vars", "x,y", "--ideal", "x^4, x^2*y^2, y^4"],
    ["alpha", "--n", "3", "--p", "7"],
    ["pn", "--n", "2", "--p", "3", "-e", "2"],
    ["veronese", "--ell", "2", "--p", "3"],
]

# dataclasses pulls in inspect, ast, dis and tokenize; fractions pulls in
# decimal.  typing is left off: the interpreter's site hook may load it.
UNUSED_AT_STARTUP = ["dataclasses", "inspect", "fractions", "numbers", "decimal", "ast", "dis", "tokenize"]


@pytest.fixture(scope="module")
def fresh_run():
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
    return json.loads(proc.stdout.splitlines()[-1])


def test_subcommands_run_without_numpy(fresh_run):
    assert fresh_run["codes"] == [0] * len(ARGVS)


def test_text_mode_exits_as_json_mode(fresh_run):
    assert fresh_run["text_codes"] == fresh_run["codes"]


def test_startup_imports_no_record_or_fraction_machinery(fresh_run):
    assert [name for name in UNUSED_AT_STARTUP if name in fresh_run["modules"]] == []
