"""frobcalc benchmark: end-to-end and per-layer metrics on three workloads.

    python3 bench/run.py --workload ci_split --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Queries go through `frobcalc.cli.run(argv + ["--json"])` one at a
time, in this single process, with numeric libraries held to one thread.
Whole rounds of the workload's corpus run until --seconds have passed.

--trace 0 prints the end-to-end metrics:
  setup_s      median over fresh interpreters that import frobcalc.cli
  corpus_s     sum over queries of each query's median repeat, each
               repeat's time taken relative to the machine's speed during
               it (SpeedProbe) and given in seconds at PROBE_REF_S
  peak_rss_mb  peak resident set of this process (ru_maxrss)
--trace 1 alternates plain and traced rounds and prints the per-layer
metrics (layers.py) with the tracing overhead.

Every report is checked against an independent computation (checks.py).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; per-query times go to
bench/results/.
"""

from __future__ import annotations

import os

# before numpy is imported: the benchmark is single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
MIN_ROUNDS = 2
MIN_SETUPS = 5
PROBE_PERIOD_S = 0.02
# corpus_s is given in seconds of a machine on which probe_seconds() takes this long
PROBE_REF_S = 0.0004

sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def load_cli():
    """Import frobcalc.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "frobcalc" / "cli.py").is_file():
        sys.exit(f"error: no frobcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import frobcalc.cli

    if Path(frobcalc.cli.__file__).resolve().parent != SRC / "frobcalc":
        sys.exit(f"error: imported frobcalc from {frobcalc.cli.__file__}, not {SRC}")
    return frobcalc.cli


def time_setup():
    """Seconds for a fresh interpreter to start and import frobcalc.cli.
    No timeout: with one, subprocess polls the child in sleeps of up to
    50 ms, which quantizes the measurement."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", "import frobcalc.cli"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit("error: a fresh interpreter could not import frobcalc.cli")
    return elapsed


# 35 terms: every monomial of degree <= 4 in 3 variables, coefficients in F_7
PROBE_POLY = {
    (a, b, c): (a + 2 * b + 3 * c) % 7 + 1
    for a in range(5)
    for b in range(5 - a)
    for c in range(5 - a - b)
}


def probe_seconds():
    """Seconds to square PROBE_POLY with dict-of-tuple arithmetic, the
    kind of work frobcalc's own layers do (about 0.3 ms).  The probe does
    not depend on frobcalc, so its time follows only the machine's speed."""
    start = time.perf_counter()
    square = {}
    for (a0, a1, a2), ca in PROBE_POLY.items():
        for (b0, b1, b2), cb in PROBE_POLY.items():
            key = (a0 + b0, a1 + b1, a2 + b2)
            square[key] = (square.get(key, 0) + ca * cb) % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Times a call together with the machine's speed during it.

    The machine this benchmark was made on switches between speeds about
    1.6x apart every few seconds, and a query of a few seconds spans
    several switches.  So probe_seconds() runs just before the call, just
    after it, and every PROBE_PERIOD_S during it from a SIGALRM handler
    (Python runs the handler between bytecodes of the call).  A call's
    time relative to the mean probe time then reads the same whatever the
    speed was."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, _signum, _frame):
        self.samples.append(probe_seconds())

    def run(self, call):
        """(result, seconds, relative): seconds is the call's time less the
        probes run inside it; relative is seconds over the mean probe time."""
        self.samples = [probe_seconds()]
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = elapsed - sum(self.samples[1:])
        self.samples.append(probe_seconds())
        return result, seconds, seconds / statistics.fmean(self.samples)


def run_query(cli, argv, probe=None):
    """(exit code, stdout, seconds, relative) for one in-process CLI call;
    relative is None without a probe.  An exception escaping the CLI is a
    fault of the program: it is recorded in place of the exit code and the
    query counts as failed."""

    def call():
        try:
            return cli.run(argv + ["--json"])
        except Exception as exc:  # noqa: BLE001 - reported as a failed query
            return f"uncaught {type(exc).__name__}: {exc}"

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if probe is None:
            start = time.perf_counter()
            code = call()
            seconds, relative = time.perf_counter() - start, None
        else:
            code, seconds, relative = probe.run(call)
    return code, out.getvalue(), seconds, relative


def without_timing(report):
    return report.rpartition('"timing_seconds"')[0]


class Rounds:
    """Round-robin repeats of the corpus.  Each query's first report is
    kept for checking; later reports, traced or not, must match it."""

    def __init__(self, cli, queries, probe=None):
        self.cli = cli
        self.queries = queries
        self.probe = probe
        self.first = [None] * len(queries)
        self.times = [[] for _ in queries]
        self.relative = [[] for _ in queries]
        self.traced_times = [[] for _ in queries]
        self.unstable = set()
        self.rounds = 0

    def run(self, tracer=None):
        """One round; with a tracer, returns each query's layer snapshot."""
        times = self.times if tracer is None else self.traced_times
        snapshots = []
        for i, query in enumerate(self.queries):
            if tracer is not None:
                tracer.reset()
            code, report, elapsed, relative = run_query(self.cli, query.argv, self.probe)
            times[i].append(elapsed)
            if relative is not None:
                self.relative[i].append(relative)
            if tracer is not None:
                snapshots.append((elapsed, dict(tracer.self_s), dict(tracer.counts)))
            if self.first[i] is None:
                self.first[i] = (code, report)
            elif (code, without_timing(report)) != (self.first[i][0], without_timing(self.first[i][1])):
                self.unstable.add(i)
        self.rounds += 1
        return snapshots


def check_reports(rounds):
    """Check every query's report.  Returns (failing query count,
    unexpected failure messages)."""
    envs = {}
    for query, (code, report) in zip(rounds.queries, rounds.first):
        envs[query.label] = json.loads(report) if code == 0 else None
    failing = 0
    unexpected = []
    for i, query in enumerate(rounds.queries):
        env = envs[query.label]
        if env is None:
            errors = [f"exit code {rounds.first[i][0]!r}"]
        else:
            try:
                errors = query.check(env, envs)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                errors = [f"malformed report: {exc!r}"]
        if i in rounds.unstable:
            errors.append("report changed between repeats")
        if errors:
            failing += 1
            if query.known_fault is None:
                unexpected.append(f"{query.label}: {'; '.join(errors)}")
    return failing, unexpected


def fastest_sum(times):
    return sum(min(t) for t in times)


def timed_run(cli, queries, seconds):
    rounds = Rounds(cli, queries, SpeedProbe())
    setups = []
    start = time.perf_counter()
    while rounds.rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.run()
        setups.append(time_setup())
    while len(setups) < MIN_SETUPS:
        setups.append(time_setup())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "corpus_s": (PROBE_REF_S * sum(statistics.median(r) for r in rounds.relative), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return rounds, metrics, {"setup_s": setups}


def traced_run(cli, queries, seconds):
    from layers import COUNT_METRICS, TIME_METRICS, Tracer

    rounds = Rounds(cli, queries)
    tracer = Tracer()
    best = [None] * len(queries)  # (seconds, self times) of the fastest traced repeat
    counts = None
    start = time.perf_counter()
    while rounds.rounds < 2 * MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.run()
        tracer.install()
        try:
            snapshots = rounds.run(tracer)
        finally:
            tracer.uninstall()
        round_counts = [c for _, _, c in snapshots]
        if counts is None:
            counts = round_counts
        rounds.unstable.update(i for i, (a, b) in enumerate(zip(counts, round_counts)) if a != b)
        for i, (elapsed, self_s, _) in enumerate(snapshots):
            if best[i] is None or elapsed < best[i][0]:
                best[i] = (elapsed, self_s)
    for name in tracer.missing:
        print(f"warning: {name} not found; its layer metric stays 0", file=sys.stderr)
    metrics = {name: (sum(b[1][name] for b in best), "s") for name in TIME_METRICS}
    for name, unit in COUNT_METRICS.items():
        values = [c[name] for c in counts]
        metrics[name] = (max(values) if name == "modlinalg.max_cells" else sum(values), unit)
    overhead = fastest_sum(rounds.traced_times) - fastest_sum(rounds.times)
    metrics["trace.overhead_s"] = (overhead, "s")
    return rounds, metrics, {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = load_cli()
    queries = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"))
    measure = traced_run if args.trace else timed_run
    rounds, metrics, extra = measure(cli, queries, args.seconds)
    failing, unexpected = check_reports(rounds)
    for message in unexpected:
        print(f"FAILED {message}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds.rounds,
        "queries": [
            {
                "label": q.label,
                "argv": q.argv,
                "median_s": statistics.median(t),
                "fastest_s": min(t),
                "corpus_s": PROBE_REF_S * statistics.median(r) if r else None,
                "known_fault": q.known_fault,
            }
            for q, t, r in zip(queries, rounds.times, rounds.relative)
        ],
        **extra,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")

    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": rounds.rounds * len(queries),
                "failed": rounds.rounds * failing,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
