"""Digest every report the benchmark's queries print, to compare checkouts.

Usage:
  python3 tools/report_digest.py [--root CHECKOUT] SEED...

For each seed, the query argvs of every benchmark workload are drawn as
`bench/run.py` draws them, from random.Random(f"{workload}:{seed}"), and
two fixed grids are added: `strand` at ell = 2..12, every class j, steps
0..20 and char 2, 3, 5 and 7, and `filtration` on seven monomial regular
sequences, each in its own variables and again with a free variable t,
at char 2, 3, 5 and 7.  Each argv runs in process through
`frobcalc.cli.run`, once with `--json` and once in text mode, and prints
one line:

  label [mode] <tab> exit code <tab> sha256(stdout) <tab> sha256(stderr)

where stdout is hashed with its timing field removed, as the golden
reports under tests/golden hold it.

`--root` names the checkout whose src/ and bench/ are imported (default:
the one holding this script), so two checkouts are compared with

  diff <(python3 tools/report_digest.py --root OLD 1 2 3) \\
       <(python3 tools/report_digest.py 1 2 3)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import re
import sys
from pathlib import Path

# the timing field of a report, in JSON and in text mode
TIMING = re.compile(r',\n  "timing_seconds": .*|\ntiming_seconds: .*')
STRAND_ELLS = range(2, 13)
STRAND_STEPS = range(21)
GRID_CHARS = (2, 3, 5, 7)
# (variables, ideal): artinian or not, pure powers and mixed monomials
FILTRATION_IDEALS = (
    ("x", "x^2"),
    ("x,y", "x^2,y^2"),
    ("x,y", "x^2,y^3"),
    ("x,y,z", "x^2,y^2,z^2"),
    ("x,y,z,w", "x^2,y^2,z*w"),
    ("x,y,z", "x*y,z^2"),
    ("x,y,z", "x^2*y,z^3"),
)


def strand_grid():
    """(label, argv) for every strand case of the fixed grid."""
    for ell in STRAND_ELLS:
        for j in range(1, ell):
            for steps in STRAND_STEPS:
                for char in GRID_CHARS:
                    argv = ["strand", "--ell", str(ell), "--j", str(j), "--steps", str(steps), "--char", str(char)]
                    yield f"strand ell={ell} j={j} steps={steps} char={char}", argv


def filtration_grid():
    """(label, argv) for every filtration case of the fixed grid."""
    for names, ideal in FILTRATION_IDEALS:
        for variables in (names, names + ",t"):
            for char in GRID_CHARS:
                argv = ["filtration", "--char", str(char), "--vars", variables, "--ideal", ideal]
                yield f"filtration vars={variables} ideal={ideal} char={char}", argv


def cases(workloads, seeds):
    """(label, argv) for every query of every seed of every workload in
    `workloads`, {name: draw(rng)}, then the strand and filtration grids."""
    for seed in seeds:
        for name, draw in workloads.items():
            for i, query in enumerate(draw(random.Random(f"{name}:{seed}"))):
                yield f"{name}:{seed}#{i} {query.label}", query.argv
    yield from strand_grid()
    yield from filtration_grid()


def digest(run, argv):
    """(exit code, stdout digest, stderr digest) of one in-process run; an
    exception escaping the CLI stands in for the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception as exc:  # noqa: BLE001 - a fault is part of the digest
            code = f"uncaught-{type(exc).__name__}"
    stdout = TIMING.sub("", out.getvalue())
    return code, hashlib.sha256(stdout.encode()).hexdigest(), hashlib.sha256(err.getvalue().encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)

    # the benchmark's runner imports the CLI from its own checkout's src/
    bench = args.root.resolve() / "bench"
    if not (bench / "run.py").is_file():
        sys.exit(f"error: no benchmark runner under {bench}")
    sys.path.insert(0, str(bench))
    import run as bench_run

    run = bench_run.load_cli().run
    for label, query in cases(bench_run.WORKLOADS, args.seeds):
        for mode, extra in (("json", ["--json"]), ("text", [])):
            code, out, err = digest(run, query + extra)
            print(f"{label} [{mode}]\t{code}\t{out}\t{err}")


if __name__ == "__main__":
    main()
