"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced frobcalc function, at every name
through which the program can call it (for example both
`frobcalc.levels.is_f_split` and `frobcalc.cli.is_f_split`), by a wrapper
that keeps a stack of spans.  A span's self time is its duration minus the
time of the spans opened inside it, so the layer metrics add up without
double counting.  Counts are read from arguments and return values.
`uninstall()` puts the original functions back.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

TIME_METRICS = [
    "polyring.power_s",
    "polyring.enumerate_s",
    "ideals.colon_s",
    "ideals.staircase_s",
    "splitting.found_s",
    "splitting.exhausted_s",
    "splitting.witness_s",
    "levels.flevel_s",
    "koszul.homology_s",
    "koszul.betti_s",
    "koszul.strand_s",
    "modlinalg.rank_s",
    "modlinalg.nullspace_s",
    "modlinalg.rowspace_s",
    "pushforward.module_s",
    "pushforward.decompose_s",
    "pushforward.veronese_s",
    "pushforward.filtration_s",
    "cli.parser_s",
    "cli.emit_s",
]

COUNT_METRICS = {
    "polyring.power_terms": "count",
    "polyring.enumerated": "count",
    "ideals.staircase_calls": "count",
    "splitting.summand_tests": "count",
    "levels.split_tests": "count",
    "modlinalg.eliminations": "count",
    "modlinalg.cells": "count",
    "modlinalg.max_cells": "count",
    "cli.report_bytes": "bytes",
}


def _count_matrix(position):
    """Count one elimination of the matrix passed at `position`."""

    def count(counts, args, result):
        shape = np.shape(args[position])
        cells = shape[0] * shape[1]
        counts["modlinalg.eliminations"] += 1
        counts["modlinalg.cells"] += cells
        counts["modlinalg.max_cells"] = max(counts["modlinalg.max_cells"], cells)

    return count


def _report_bytes(report):
    """Bytes of the report before its timing field, whose digit count
    varies from run to run."""
    return len(report.rpartition('"timing_seconds"')[0].encode())


def _count_with(metric, size):
    def count(counts, args, result):
        counts[metric] += size(args, result)

    return count


# (module, attribute, metric or verdict -> metric, count hook)
SPANS = [
    ("frobcalc.polyring", "Polynomial.__pow__", "polyring.power_s",
     _count_with("polyring.power_terms", lambda a, r: len(r.terms))),
    ("frobcalc.polyring", "monomials_of_degree", "polyring.enumerate_s",
     _count_with("polyring.enumerated", lambda a, r: len(r))),
    ("frobcalc.ideals", "ci_colon", "ideals.colon_s", None),
    ("frobcalc.ideals", "monomial_colon", "ideals.colon_s", None),
    ("frobcalc.ideals", "MonomialIdeal.standard_monomials", "ideals.staircase_s",
     _count_with("ideals.staircase_calls", lambda a, r: 1)),
    ("frobcalc.splitting", "graded_summand_test",
     lambda r: "splitting.found_s" if r.verdict else "splitting.exhausted_s",
     _count_with("splitting.summand_tests", lambda a, r: 1)),
    ("frobcalc.splitting", "witness_from_proof", "splitting.witness_s", None),
    ("frobcalc.levels", "f_level_bounds", "levels.flevel_s", None),
    ("frobcalc.koszul", "koszul_homology", "koszul.homology_s", None),
    ("frobcalc.koszul", "koszul_differential", "koszul.homology_s", None),
    ("frobcalc.koszul", "brute_betti", "koszul.betti_s", None),
    ("frobcalc.koszul", "strand_check", "koszul.strand_s", None),
    ("frobcalc.modlinalg", "rank_mod", "modlinalg.rank_s", _count_matrix(0)),
    ("frobcalc.modlinalg", "nullspace_mod", "modlinalg.nullspace_s", _count_matrix(0)),
    # a classmethod: the matrix follows the class argument
    ("frobcalc.modlinalg", "RowSpace.from_matrix", "modlinalg.rowspace_s", _count_matrix(1)),
    ("frobcalc.modlinalg", "RowSpace.add", "modlinalg.rowspace_s", None),
    ("frobcalc.pushforward", "FrobeniusModule.__init__", "pushforward.module_s", None),
    ("frobcalc.pushforward", "cyclic_decompose", "pushforward.decompose_s", None),
    ("frobcalc.pushforward", "veronese_decompose", "pushforward.veronese_s", None),
    ("frobcalc.pushforward", "ci_filtration_check", "pushforward.filtration_s", None),
    ("frobcalc.cli", "build_parser", "cli.parser_s", None),
    ("frobcalc.cli", "emit_json", "cli.emit_s",
     _count_with("cli.report_bytes", lambda a, r: _report_bytes(r))),
]

# counted at one call site only: the split tests that f_level_bounds makes
COUNTERS = [
    ("frobcalc.levels", "is_f_split", _count_with("levels.split_tests", lambda a, r: 1)),
]


class Tracer:
    def __init__(self):
        self.missing = []
        self._stack = []
        self._patches = []
        self.reset()

    def reset(self):
        """Zero the metrics, as before each query."""
        self.self_s = dict.fromkeys(TIME_METRICS, 0.0)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)

    def _span(self, fn, metric, count):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]  # time of the spans opened inside this one
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
            name = metric(result) if callable(metric) else metric
            self.self_s[name] += elapsed - frame[0]
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def _counter(self, fn, count):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.counts, args, result)
            return result

        return wrapper

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        self.missing = []
        for module_name, attr, metric, count in SPANS:
            module = importlib.import_module(module_name)
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name, None)
                raw = cls.__dict__.get(fn_name) if cls is not None else None
                if raw is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    self._patch(cls, fn_name, classmethod(self._span(raw.__func__, metric, count)))
                else:
                    self._patch(cls, fn_name, self._span(raw, metric, count))
                continue
            original = getattr(module, fn_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._span(original, metric, count)
            for name, loaded in list(sys.modules.items()):
                if name == "frobcalc" or name.startswith("frobcalc."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, key, wrapper)
        for module_name, fn_name, count in COUNTERS:
            module = importlib.import_module(module_name)
            original = getattr(module, fn_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{fn_name}")
                continue
            self._patch(module, fn_name, self._counter(original, count))

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)
