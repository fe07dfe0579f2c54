import argparse
import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from collections import OrderedDict, namedtuple
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bracket, walk_candidates
from frobcalc import MonomialIdeal, PolyRing, build_ideal, parse_polynomial, pushforward
from frobcalc.cli import (
    EXIT_GUARD,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    FLAGS,
    IDEAL_FLAGS,
    INPUT_MODES,
    JSON_INT_LIMIT,
    REQUIRED,
    SUBCOMMANDS,
    _parse,
    _parse_ideal_args,
    build_parser,
    emit_json,
    render_text,
    run,
)
from frobcalc.errors import ResourceGuardError, VerificationError
from frobcalc.levels import DEFAULT_E_MAX
from frobcalc.pushforward import ConicDecomposition, Rows, veronese_decompose
from report_digest import TIMING

QUADRIC = ["--char", "3", "--vars", "x0,x1,x2,x3", "--ideal", "x0*x1 + x2*x3"]
TWELVE = ["--char", "2", "--vars", "x,y", "--ideal", "x^4, x^2*y^2, y^4"]
# 519 pure powers x_i^(2^30) and x0*x1 in 520 variables: an lcm box of
# (2^30 + 1)^519 points, more than 4300 digits
HUGE_BOX = ["--char", "2", "--vars", ",".join(f"x{i}" for i in range(520)),
            "--ideal", ", ".join([f"x{i}^1073741824" for i in range(519)] + ["x0*x1"])]
ENVELOPE_KEYS = ["tool", "subcommand", "input", "result", "timing_seconds"]


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    return json.loads(out)


class TestSubcommands:
    def test_fsplit_fermat(self, capsys):
        payload = run_json(
            capsys, ["fsplit", "--char", "7", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3"]
        )
        assert payload["result"]["certificate"]["verdict"] is True
        assert payload["result"]["certificate"]["witness"]["surviving_term"] == "x^6*y^6*z^6"

    def test_codepth_node(self, capsys):
        payload = run_json(capsys, ["codepth", "--char", "2", "--vars", "x,y", "--ideal", "x*y"])
        assert payload["result"] == {"codepth": 1, "depth": 1}

    def test_alpha_table(self, capsys):
        payload = run_json(capsys, ["alpha", "--n", "1", "--p", "2", "--l", "0"])
        assert payload["result"] == {"alpha": {"0": 1, "1": 1}, "sum": 2}

    def test_summand(self, capsys):
        payload = run_json(capsys, ["summand", "--j", "1"] + QUADRIC)
        assert payload["result"]["certificate"]["verdict"] is True

    def test_twists(self, capsys):
        payload = run_json(capsys, ["twists"] + QUADRIC)
        assert payload["result"]["band"] == [0, 1]
        assert payload["result"]["band_consistent"] is True

    def test_witness(self, capsys):
        payload = run_json(capsys, ["witness"] + QUADRIC)
        assert payload["result"]["degree"] == 4
        assert payload["result"]["degree"] == payload["result"]["expected_degree"]

    def test_genexp(self, capsys):
        payload = run_json(
            capsys, ["genexp", "--char", "2", "--vars", "x,y", "--ideal", "x^2, y^3"]
        )
        assert payload["result"] == {"generation_exponent": 2}

    def test_betti_table(self, capsys):
        payload = run_json(
            capsys, ["betti", "--char", "2", "--vars", "x,y", "--ideal", "x^2, x*y, y^2"]
        )
        rows = {(r["i"], r["degree"]): r["value"] for r in payload["result"]["betti"]}
        assert rows == {(0, 0): 1, (1, 2): 3, (2, 3): 2}

    def test_betti_echoes_its_degree_bound(self, capsys):
        # a table cut at degree 3 lacks the syzygy of degree 4, and says so
        argv = ["betti", "--char", "2", "--vars", "x,y", "--ideal", "x^2,y^2"]
        cut = run_json(capsys, argv + ["--degree-bound", "3"])
        assert cut["input"]["degree_bound"] == 3
        assert [(r["i"], r["degree"]) for r in cut["result"]["betti"]] == [(0, 0), (1, 2)]
        whole = run_json(capsys, argv)
        assert whole["input"]["degree_bound"] is None
        assert [(r["i"], r["degree"]) for r in whole["result"]["betti"]] == [(0, 0), (1, 2), (2, 4)]

    def test_betti_formula_mode(self, capsys):
        payload = run_json(capsys, ["betti", "--formula-nvars", "2", "--formula-power", "2"])
        assert payload["result"]["betti"] == {"0": 1, "1": 3, "2": 2}

    def test_strand(self, capsys):
        payload = run_json(capsys, ["strand", "--ell", "3", "--j", "1"])
        assert payload["result"]["exact"] is True

    def test_pn(self, capsys):
        payload = run_json(capsys, ["pn", "--n", "2", "--p", "2"])
        assert payload["result"]["generates"] is False

    def test_decompose(self, capsys):
        payload = run_json(capsys, ["decompose"] + TWELVE)
        assert payload["result"]["direct"] is True
        assert len(payload["result"]["pieces"]) == 4

    def test_veronese(self, capsys):
        payload = run_json(capsys, ["veronese", "--ell", "2", "--p", "3"])
        assert payload["result"]["hilbert_series_verified"] is True

    def test_filtration(self, capsys):
        payload = run_json(
            capsys, ["filtration", "--char", "2", "--vars", "x,y", "--ideal", "x^2, y^2"]
        )
        assert payload["result"]["step_count"] == 4
        assert payload["result"]["all_match"] is True

    def test_flevel(self, capsys):
        payload = run_json(capsys, ["flevel"] + TWELVE)
        assert payload["result"]["lower"] == 2
        assert payload["result"]["upper"] == 5

    def test_loewy(self, capsys):
        payload = run_json(capsys, ["loewy"] + TWELVE)
        assert payload["result"] == {"loewy_length": 5}

    @pytest.mark.parametrize("argv, line", [
        # (x + y + z)^2 in characteristic 2 is not F-split: no band
        (["twists", "--char", "2", "--vars", "x,y,z", "--ideal", "x^2+y^2+z^2"], "  band: null"),
        (["betti", "--char", "2", "--vars", "x,y", "--ideal", "x*y"], "  degree_bound: null"),
    ])
    def test_text_mode_prints_json_null(self, argv, line):
        code, out, _err = run_captured(argv)
        assert code == EXIT_OK
        assert line in out
        assert not any("None" in shown for shown in out)

    def test_text_mode_renders_same_payload(self, capsys):
        code = run(["codepth", "--char", "2", "--vars", "x,y", "--ideal", "x*y"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "codepth: 1" in out
        assert "depth: 1" in out

    def test_flag_defaults_are_the_library_defaults(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["flevel"]).emax == DEFAULT_E_MAX
        report = run_json(capsys, ["veronese", "--ell", "2", "--p", "3"])["result"]
        assert report == json.loads(emit_json(veronese_decompose(2, 3, 1).payload()))


@st.composite
def numeric_flag_argv(draw):
    """Small, possibly out-of-range numeric flags for the subcommands that
    take no ideal, and for decompose and twists."""
    def num(lo, hi):
        return str(draw(st.integers(lo, hi)))

    kind = draw(st.sampled_from(["alpha", "pn", "veronese", "strand", "decompose", "twists"]))
    if kind == "alpha":
        return ["alpha", "--n", num(-1, 4), "--p", num(-2, 12), "--l", num(-6, 6)]
    if kind == "pn":
        return ["pn", "--n", num(-1, 3), "--p", num(-2, 6), "-e", num(-1, 3), "--l", num(-4, 4)]
    if kind == "veronese":
        return ["veronese", "--ell", num(-1, 3), "--p", num(-2, 5), "-e", num(-1, 2)]
    if kind == "strand":
        return ["strand", "--ell", num(-1, 5), "--j", num(-1, 5), "--steps", num(-2, 4),
                "--char", num(-2, 6)]
    if kind == "decompose":
        return ["decompose", "-e", num(-2, 3)] + TWELVE
    return ["twists", "-e", num(-1, 2)] + QUADRIC


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["fsplit", "--char", "2"]) == EXIT_USAGE
        assert run(["fsplit", "--no-such-flag"]) == EXIT_USAGE
        assert run(["fsplit", "--char", "4", "--vars", "x", "--ideal", "x^2"]) == EXIT_USAGE

    def test_unsupported_class(self, capsys):
        # codepth needs a monomial ideal
        argv = ["codepth", "--char", "2", "--vars", "x,y", "--ideal", "x^2 + x*y"]
        assert run(argv) == EXIT_UNSUPPORTED

    @pytest.mark.parametrize("subcommand", ["fsplit", "twists"])
    @pytest.mark.parametrize("char, ideal", [
        ("2", "x^2+y*z, 2*x*y"),
        ("2", "x^2+y*z, 0"),
        ("2", "0, x^2+y*z, 0"),
        ("2", "3*x^2+3*y*z"),
        ("3", "x^2+y*z, 0"),
        ("3", "2*x^2+2*y*z"),
    ])
    def test_zero_generators_and_unit_multiples_give_the_same_result(self, capsys, subcommand, char, ideal):
        # zero generators are dropped before the class is read, and a unit
        # multiple c*f has the colon generator c^(q-1) f^(q-1) = f^(q-1)
        base = [subcommand, "--char", char, "--vars", "x,y,z", "--ideal"]
        expected = run_json(capsys, base + ["x^2+y*z"])["result"]
        assert run_json(capsys, base + [ideal])["result"] == expected

    def test_a_failed_verification_exits_4(self, monkeypatch):
        def fsplit(ideal, e, **_guard):
            raise VerificationError("the certificate does not recheck")

        monkeypatch.setattr("frobcalc.cli.is_f_split", fsplit)
        for mode in (["--json"], []):
            assert run_captured(["fsplit"] + QUADRIC + mode) == (
                EXIT_VERIFICATION, [], "error: the certificate does not recheck\n"
            )

    @pytest.mark.parametrize("flag", ["--formula-nvars", "--formula-power"])
    @pytest.mark.parametrize("ideal", [[], TWELVE], ids=["alone", "with-an-ideal"])
    def test_formula_mode_given_in_part_is_a_usage_error(self, flag, ideal):
        message = "error: formula mode needs both --formula-nvars and --formula-power\n"
        assert run_captured(["betti", flag, "2"] + ideal) == (EXIT_USAGE, [], message)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["betti", "--formula-nvars", "2", "--formula-power", "0"],
             "need d >= 1, j >= 1, i >= 0"),
            (["betti", "--formula-nvars", "2", "--formula-power", "2", "--char", "0"],
             "formula mode takes no --char"),
            (["loewy", "--char", "0", "--vars", "x", "--ideal", "x"],
             "characteristic must be a prime in [2, 2^31): got 0"),
        ],
    )
    def test_a_flag_given_as_zero_is_given(self, argv, message):
        assert run_captured(argv) == (EXIT_USAGE, [], f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["betti", "--formula-nvars", "2", "--formula-power", "2", "--ideal", "x^2", "--vars", "x"],
             "formula mode takes no --vars"),
            (["betti", "--formula-nvars", "2", "--formula-power", "2", "--degree-bound", "0"],
             "formula mode takes no --degree-bound"),
        ],
    )
    def test_a_flag_the_input_mode_does_not_read_is_refused(self, argv, message):
        assert run_captured(argv) == (EXIT_USAGE, [], f"error: {message}\n")

    def test_betti_formula_mode_is_guarded(self, capsys):
        # 3 entries of at most 3 one-word operations each
        argv = ["betti", "--formula-nvars", "3", "--formula-power", "2", "--max-monomials"]
        message = "error: the Betti row may need 9 word operations, over the guard 8\n"
        assert run_captured(argv + ["8"]) == (EXIT_GUARD, [], message)
        assert run(argv + ["0"]) == EXIT_GUARD
        assert run_json(capsys, argv + ["9"])["result"]["betti"] == {"0": 1, "1": 6, "2": 8, "3": 3}

    def test_non_artinian_maps_to_unsupported(self, capsys):
        assert run(["loewy", "--char", "2", "--vars", "x,y", "--ideal", "x*y"]) == EXIT_UNSUPPORTED

    def test_resource_guard(self, capsys):
        argv = ["loewy", "--char", "2", "--vars", "x,y", "--ideal", "x^90, y^90",
                "--max-monomials", "10"]
        assert run(argv) == EXIT_GUARD

    def test_betti_guard_bounds_the_multidegree_box(self, capsys):
        # the box [0, lcm] of (x^2, y^2) has 3 * 3 points
        argv = ["betti", "--char", "2", "--vars", "x,y", "--ideal", "x^2, y^2"]
        assert run(argv + ["--max-monomials", "8"]) == EXIT_GUARD
        assert run(argv + ["--max-monomials", "9"]) == EXIT_OK
        # 4001^2 points under the default guard of 10^7
        assert run(["betti", "--char", "2", "--vars", "x,y", "--ideal", "x^4000, y^4000"]) == EXIT_GUARD

    def test_betti_walks_only_the_box(self, capsys):
        # the box of x^200*y^200 in x, y, z has 201 * 201 * 1 points; degree
        # 400 alone holds 401 monomials of S in x, y and 80601 in x, y, z
        argv = ["betti", "--char", "2", "--vars", "x,y,z", "--ideal", "x^200*y^200"]
        payload = run_json(capsys, argv + ["--max-monomials", "40401"])
        assert payload["result"]["betti"] == [
            {"i": 0, "degree": 0, "value": 1},
            {"i": 1, "degree": 400, "value": 1},
        ]
        assert run_captured(argv + ["--max-monomials", "40400"]) == (
            EXIT_GUARD, [], "error: multidegree box of 40401 points exceeds guard 40400\n"
        )

    def test_betti_of_the_unit_and_zero_ideals(self, capsys):
        assert run(["betti", "--char", "2", "--vars", "x,y", "--ideal", "1"]) == EXIT_UNSUPPORTED
        payload = run_json(capsys, ["betti", "--char", "2", "--vars", "x,y", "--ideal", "0"])
        assert payload["result"]["betti"] == [{"i": 0, "degree": 0, "value": 1}]

    @pytest.mark.parametrize("subcommand", [name for name, (_help, takes_ideal, _own) in SUBCOMMANDS.items()
                                            if takes_ideal])
    def test_the_unit_ideal_is_named(self, subcommand):
        # the generator 1 has degree 0, but S/I is zero rather than badly
        # presented, and no splitting verdict or bound on it means anything
        argv = [subcommand, "--char", "2", "--vars", "x,y", "--ideal", "1"]
        if subcommand == "summand":
            argv += ["--j", "0"]
        assert run_captured(argv) == (EXIT_UNSUPPORTED, [], "error: S/I is zero for the unit ideal\n")

    def test_linearly_dependent_ci_generators_are_unsupported(self, capsys):
        # (x*y + x*z, x*y + x*z) is the F-split hypersurface (x(y+z)), not a
        # complete intersection of codimension 2
        argv = ["fsplit", "--char", "3", "--vars", "x,y,z", "--ideal", "x*y+x*z, x*y+x*z"]
        assert run(argv) == EXIT_UNSUPPORTED
        single = run_json(capsys, ["fsplit", "--char", "3", "--vars", "x,y,z", "--ideal", "x*y+x*z"])
        assert single["result"]["certificate"]["verdict"] is True

    def test_ci_generators_with_a_common_factor_are_unsupported(self, capsys):
        # x*y + x*z and x^2 + x*y share the factor x: after u = x,
        # v = x + y, w = y + z the ideal is (uv, uw), which is F-split
        argv = ["fsplit", "--char", "3", "--vars", "x,y,z", "--ideal", "x*y+x*z, x^2+x*y"]
        assert run(argv) == EXIT_UNSUPPORTED
        assert "error: not a regular sequence: in degree 3" in capsys.readouterr().err
        split = run_json(capsys, ["fsplit", "--char", "3", "--vars", "u,v,w", "--ideal", "u*v, u*w"])
        assert split["result"]["certificate"]["verdict"] is True

    def test_two_coprime_ci_generators_are_verified(self, capsys):
        payload = run_json(capsys, ["fsplit", "--char", "3", "--vars", "x,y,z", "--ideal", "x*y+z^2, x^2+y*z"])
        assert list(payload) == ENVELOPE_KEYS

    def test_one_ci_generator_is_verified(self, capsys):
        # a nonzero form is a nonzerodivisor on the domain S
        payload = run_json(capsys, ["fsplit"] + QUADRIC)
        assert list(payload) == ENVELOPE_KEYS

    def test_three_ci_generators_are_proven(self, capsys):
        argv = ["fsplit", "--char", "3", "--vars", "x,y,z", "--ideal", "x^2+y*z, y^2+x*z, z^2+x*y"]
        assert list(run_json(capsys, argv)) == ENVELOPE_KEYS

    @pytest.mark.parametrize("subcommand", ["fsplit", "flevel"])
    @pytest.mark.parametrize("ideal", ["x*y, x*z, w^2+v^2", "x*y+x*z, x*y+2*x*z, w^2+v^2"])
    def test_ci_generators_that_are_not_a_regular_sequence_are_refused(self, subcommand, ideal):
        # R = k[x,y,z]/(xy, xz) (x) k[v,w]/(v^2 + w^2) is F-split, so
        # Fedder's complete-intersection colon would give a wrong verdict
        argv = [subcommand, "--char", "3", "--vars", "x,y,z,v,w", "--ideal", ideal]
        assert run_captured(argv) == (
            EXIT_UNSUPPORTED,
            [],
            "error: not a regular sequence: in degree 3 the ideal has dimension 14, "
            "below the 15 of a complete intersection\n",
        )

    def test_an_undecided_regular_sequence_check_is_a_guard_exit(self, capsys):
        # proven in degree 4, whose matrix has 18 rows and 15 columns
        argv = ["fsplit", "--char", "3", "--vars", "x,y,z", "--ideal", "x^2+y*z, y^2+x*z, z^2+x*y"]
        assert run_captured(argv + ["--max-monomials", "269"]) == (
            EXIT_GUARD,
            [],
            "error: regular-sequence check in degree 4: 270 matrix cells exceed guard 269\n",
        )
        assert list(run_json(capsys, argv + ["--max-monomials", "270"])) == ENVELOPE_KEYS

    @pytest.mark.parametrize(
        "ideal, message",
        [
            ("x*y, x^2", "supports must be pairwise disjoint (regular sequence)"),
            ("x, y^2", "each f_i must lie in m^2 (degree >= 2)"),
            ("0", "need 1 <= c <= #variables monomials"),
        ],
    )
    def test_filtration_refuses_an_unsupported_ideal(self, ideal, message):
        argv = ["filtration", "--char", "2", "--vars", "x,y", "--ideal", ideal]
        assert run_captured(argv) == (EXIT_UNSUPPORTED, [], f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, box",
        [
            # (x^2 y, y^3) in x, y, z, neither artinian, nor a regular
            # sequence, nor stable: (2 + 1) * (3 + 1) * (0 + 1) points
            (["codepth", "--char", "2", "--vars", "x,y,z", "--ideal", "x^2*y,y^3"], 12),
            # four generators and (2 + 1) * (0 + 1) * (1 + 1) * (1 + 1) points,
            # 12 <= 2^4: the box walk's side
            (["codepth", "--char", "2", "--vars", "a,b,c,d", "--ideal", "d*c, d*a, c*a, a^2"], 12),
            (["betti", "--char", "2", "--vars", "x,y,z", "--ideal", "x^2"], 3),
            # the row cut does not shrink the box
            (["betti", "--char", "2", "--vars", "x,y,z", "--ideal", "x^2,y^3", "--degree-bound", "2"], 12),
            # (x y, y^2) is stable only with y first: the box guard is
            # checked before that order is tried, and the guard does not
            # decide whether it is tried
            (["genexp", "--char", "2", "--vars", "x,y", "--ideal", "x*y,y^2"], 6),
        ],
    )
    def test_koszul_guard_counts_the_lcm_box(self, argv, box):
        # betti, and codepth and genexp where no closed form applies, walk
        # the lcm box, guarded by its points
        assert run_captured(argv + ["--max-monomials", str(box - 1)]) == (
            EXIT_GUARD, [], f"error: multidegree box of {box} points exceeds guard {box - 1}\n"
        )
        code, _lines, err = run_captured(argv + ["--max-monomials", str(box)])
        assert (code, err) == (EXIT_OK, "")

    def test_lattice_walk_is_guarded_by_the_box(self):
        # one generator has the lattice {0, L}, but its block at L has 2^30
        # subsets: the box count refuses it before any block is formed
        names = [f"x{v}" for v in range(30)]
        argv = ["betti", "--char", "2", "--vars", ",".join(names), "--ideal", "*".join(names)]
        assert run_captured(argv) == (
            EXIT_GUARD, [], "error: multidegree box of 1073741824 points exceeds guard 10000000\n"
        )

    def test_closed_form_codepth_answers_before_the_box_guard(self, capsys):
        # one generator is a regular sequence of length 1; twelve squares
        # make an artinian quotient, with a box of 3^12 points
        names = [f"x{v}" for v in range(30)]
        argv = ["codepth", "--char", "2", "--vars", ",".join(names), "--ideal", "*".join(names)]
        assert run_json(capsys, argv)["result"] == {"codepth": 1, "depth": 29}
        names = names[:12]
        argv = ["genexp", "--char", "3", "--vars", ",".join(names),
                "--ideal", ", ".join(f"{x}^2" for x in names), "--max-monomials", "1"]
        assert run_json(capsys, argv)["result"] == {"generation_exponent": 3}

    def test_an_unknown_flag_prints_the_subcommand_usage(self):
        argv = ["fsplit", "--char", "3", "--vars", "x,y", "--ideal", "x^2", "--exponent", "6"]
        code, out, err = run_captured(argv)
        assert (code, out) == (EXIT_USAGE, [])
        assert err.startswith("usage: frobcalc fsplit [-h]")
        assert err.endswith("\nerror: unrecognized arguments: --exponent 6\n")
        # a flag before the subcommand is the top level's to refuse
        code, out, err = run_captured(["--bogus"] + argv[:-2])
        assert (code, out) == (EXIT_USAGE, [])
        assert err.startswith("usage: frobcalc [-h] [--version]")
        assert err.endswith("\nerror: unrecognized arguments: --bogus\n")

    def test_loewy_of_twelve_squares_fits_below_its_widest_degree(self, capsys):
        # degree 9 holds C(20, 11) = 167960 monomials of S; the walk forms
        # one candidate per variable up to the first of each squarefree
        # standard monomial, at most 1716 in any degree and 2^13 - 1 in all
        names = [f"x{v}" for v in range(12)]
        argv = ["loewy", "--char", "2", "--vars", ",".join(names),
                "--ideal", ", ".join(f"{x}^2" for x in names)]
        payload = run_json(capsys, argv + ["--max-monomials", "8191"])
        assert payload["result"] == {"loewy_length": 13}
        assert run(argv + ["--max-monomials", "8190"]) == EXIT_GUARD

    def test_codepth_of_m2_in_nine_variables_fits_the_default_guard(self, capsys):
        # box 3^9 = 19683 points; a walk over every monomial of each degree
        # would meet 10518300 of them in degree 24
        names = [f"x{v}" for v in range(9)]
        square = ", ".join(f"{a}*{b}" for i, a in enumerate(names) for b in names[i:])
        payload = run_json(capsys, ["codepth", "--char", "2", "--vars", ",".join(names), "--ideal", square])
        assert payload["result"] == {"codepth": 9, "depth": 0}

    @pytest.mark.parametrize(
        "argv, nvars, top",
        [
            # the staircase walk runs through the Loewy length 7
            (["loewy", "--char", "2", "--vars", "x,y,z", "--ideal", "x^3, y^3, z^3"], 3, 7),
            (["decompose"] + TWELVE, 2, 5),
            # (x^6, y^6) has Loewy length 11; (x^4, y^4) in three variables
            # is not artinian, so the default band 2 * 4 + 2 is walked
            (["filtration", "--char", "3", "--vars", "x,y", "--ideal", "x^2, y^2"], 2, 11),
            (["filtration", "--char", "2", "--vars", "x,y,z", "--ideal", "x^2, y^2"], 3, 10),
            # socle degree 3 + 2 + 2, so the walk runs through degree 8
            (["decompose", "--char", "2", "--vars", "x,y,z", "--ideal", "x^4, y^3, z^3"], 3, 8),
        ],
    )
    def test_guard_pins_at_every_threshold(self, argv, nvars, top):
        # every degree 0..top is guarded by the running total of the
        # candidates the walk forms, over I for loewy and decompose and over
        # I^[p] for filtration (whose later walk of I forms fewer); the
        # first total over the guard is the one reported.  The filtration
        # then charges its table, p^c steps by the degrees it read: the
        # Loewy length top when artinian, else the band 0..top
        p = int(argv[2])
        ring = PolyRing(p, argv[4].split(","))
        I = MonomialIdeal(ring, [parse_polynomial(ring, g).single_monomial() for g in argv[6].split(",")])
        walked = bracket(I, p) if argv[0] == "filtration" else I
        assert ring.nvars == nvars
        totals = list(itertools.accumulate(walk_candidates(walked, top)))
        degrees = top if walked.is_artinian() else top + 1
        cells = p ** len(I.gens) * degrees if argv[0] == "filtration" else 0
        for threshold in totals + [cells]:
            for guard in (threshold - 1, threshold):
                over = [t for t in totals if t > guard]
                code, lines, err = run_captured(argv + ["--json", "--max-monomials", str(guard)])
                if over:
                    message = f"enumeration of {over[0]} monomials exceeds guard {guard}"
                elif cells > guard:
                    message = (f"filtration table of {p}^{len(I.gens)} steps by {degrees} degrees, "
                               f"{cells} cells, exceeds guard {guard}")
                else:
                    assert (code, err) == (EXIT_OK, "")
                    continue
                assert (code, lines, err) == (EXIT_GUARD, [], f"error: {message}\n")

    def test_veronese_guards_its_hilbert_series_check(self, capsys):
        # 12 * 2 * 3 + 1 degrees are checked; the 3^2 * 2 pieces fit either guard
        argv = ["veronese", "--ell", "2", "--p", "3", "--max-monomials"]
        message = "error: Hilbert-series check over 73 degrees exceeds guard 72\n"
        assert run_captured(argv + ["72"]) == (EXIT_GUARD, [], message)
        assert run_json(capsys, argv + ["73"])["result"]["hilbert_series_bound"] == 72

    def test_veronese_guards_its_pieces(self, capsys):
        # one piece per admissible (u, v, j) with u, v < q: q^2 * ell candidates
        argv = ["veronese", "--ell", "1", "--p", "2", "--max-monomials", "10000"]
        message = "error: 262144 candidate pieces (q^2 * ell) exceed guard 10000\n"
        assert run_captured(argv + ["-e", "9"]) == (EXIT_GUARD, [], message)
        assert len(run_json(capsys, argv + ["-e", "6"])["result"]["pieces"]) == 64 * 64

    def test_strand_guards_its_columns(self, capsys):
        # sum over s = 0..5 of b1*(k+1) + b2*k columns with k = 2s, b1 = 2, b2 = 1
        argv = ["strand", "--ell", "2", "--j", "1", "--steps", "5", "--max-monomials"]
        message = "error: strand maps with 102 columns exceed guard 101\n"
        assert run_captured(argv + ["101"]) == (EXIT_GUARD, [], message)
        assert len(run_json(capsys, argv + ["102"])["result"]["rows"]) == 6
        code, _lines, _err = run_captured(["strand", "--ell", "2", "--j", "1", "--steps", "100000"])
        assert code == EXIT_GUARD

    def test_pn_guards_its_alpha_terms(self, capsys):
        # 3 updates of each of the 803 coefficients of g^401, g = 1 + x + x^2,
        # each of 13 words (2^802 bounds 3^401), before the list is formed
        argv = ["pn", "--n", "400", "--p", "3", "-e", "2", "--max-monomials", "10"]
        message = "error: twist counts may need 31317 word operations, over the guard 10\n"
        assert run_captured(argv) == (EXIT_GUARD, [], message)
        # 3 * 4 one-word coefficient updates, then 2 and 4 one-word products
        argv = ["pn", "--n", "2", "--p", "2", "-e", "2", "--max-monomials"]
        assert run_captured(argv + ["17"])[0] == EXIT_GUARD
        assert run_json(capsys, argv + ["18"])["result"]["total_rank"] == 16
        # the default guard refuses 16 million products of 16000-bit numbers
        # at the second step
        code, _lines, err = run_captured(["pn", "--n", "8000", "--p", "2", "-e", "2"])
        assert code == EXIT_GUARD
        assert err == "error: twist counts may need 4021537133 word operations, over the guard 10000000\n"

    def test_alpha_guards_its_terms(self, capsys):
        # entry by entry: the entries i = 0..3 (degrees 7i <= 24) take 1, 2,
        # 3 and 4 inclusion-exclusion terms, each a one-word binomial formed
        # by 3 multiplications and 3 divisions; the list would take 3 * 25
        argv = ["alpha", "--n", "3", "--p", "7", "--max-monomials"]
        assert run_captured(argv + ["59"]) == (
            EXIT_GUARD, [], "error: twist counts may need 60 word operations, over the guard 59\n"
        )
        assert run_json(capsys, argv + ["60"])["result"]["sum"] == 7**3
        # by the list: 3 updates of each of the 11 one-word coefficients of
        # g^5, then the 4 products of the step (i = 0..3, degrees 3i <= 10);
        # entry by entry would take 10 terms of 8 operations
        argv = ["alpha", "--n", "4", "--p", "3", "--max-monomials"]
        assert run_captured(argv + ["36"])[0] == EXIT_GUARD
        assert run_json(capsys, argv + ["37"])["result"]["sum"] == 3**4

    def test_alpha_at_a_large_prime_answers_at_once(self, capsys):
        # the list would hold 4000009 coefficients; the 4 entries take 10
        # inclusion-exclusion terms
        p = 1000003
        for argv, total in ((["alpha", "--n", "3", "--p", str(p)], "sum"),
                            (["pn", "--n", "3", "--p", str(p)], "total_rank")):
            start = time.perf_counter()
            result = run_json(capsys, argv)["result"]
            assert time.perf_counter() - start < 1
            assert result[total] == str(p**3)

    def test_pn_at_a_large_prime_answers_at_every_e(self, capsys):
        # one step at q = p^2 reads 4 entries; the list would take
        # 24000054 word operations
        p = 1000003
        result = run_json(capsys, ["pn", "--n", "3", "--p", str(p), "-e", "2"])["result"]
        assert result["total_rank"] == str(p**6)
        assert result["generates"]

    def test_alpha_tables_are_those_of_the_recurrence(self, capsys, monkeypatch):
        # both ways of counting, entry by entry for p large against n and by
        # Miller's recurrence otherwise, give the recurrence's table
        recurrence = pushforward._step_counts
        by_list = []

        def spy(n, p):
            by_list.append((n, p))
            return recurrence(n, p)

        monkeypatch.setattr(pushforward, "_step_counts", spy)
        grid = [(n, p, l) for n in (1, 2, 3, 5, 9) for p in (2, 3, 5, 7, 13, 101)
                for l in (-23, -1, 0, 4, 50)]
        for n, p, l in grid:
            counts = recurrence(n, p)
            top = len(counts) - 1
            expected = {str(i): counts[l + i * p] for i in range(-(l // p), (top - l) // p + 1)}
            argv = ["alpha", "--n", str(n), "--p", str(p), "--l", str(l)]
            table = run_json(capsys, argv)["result"]["alpha"]
            assert [(i, int(m)) for i, m in table.items()] == list(expected.items()), (n, p, l)
        both_ways = {(n, p) in by_list for n, p, _l in grid}
        assert both_ways == {True, False}

    def test_alpha_at_large_n_answers_within_the_default_guard(self, capsys):
        # inclusion-exclusion over 900-digit binomials once ran for minutes here
        start = time.perf_counter()
        payload = run_json(capsys, ["alpha", "--n", "3000", "--p", "2"])
        assert time.perf_counter() - start < 5
        assert payload["result"]["sum"] == str(2**3000)
        assert len(payload["result"]["alpha"]) == 1501

    def test_alpha_refuses_a_coefficient_list_past_the_guard(self):
        # 3 * 1000002 updates on numbers of 15626 words, refused before any is done
        start = time.perf_counter()
        code, lines, err = run_captured(["alpha", "--n", "1000000", "--p", "2"])
        assert time.perf_counter() - start < 1
        assert (code, lines) == (EXIT_GUARD, [])
        assert err == "error: twist counts may need 46878093756 word operations, over the guard 10000000\n"

    @pytest.mark.parametrize("mode", [["--json"], []])
    def test_report_integer_past_the_digit_limit_is_a_guard_exit(self, mode):
        # the total rank 2^16000 has 4817 digits, over the interpreter's 4300
        code, lines, err = run_captured(["pn", "--n", "2", "--p", "2", "-e", "8000"] + mode)
        assert (code, lines) == (EXIT_GUARD, [])
        assert err == (
            "error: a report integer of 16000 bits exceeds the interpreter's "
            f"limit of {sys.get_int_max_str_digits()} decimal digits\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["veronese", "--ell", "9" * 4299, "--p", "2"],
         "Hilbert-series check over at least 2^14285 degrees exceeds guard 10000000"),
        (["pn", "--n", "9" * 4299, "--p", "2"],
         "twist counts may need at least 2^28557 word operations, over the guard 10000000"),
        (["alpha", "--n", "9" * 4299, "--p", "2"],
         "twist counts may need at least 2^28557 word operations, over the guard 10000000"),
        (["strand", "--ell", "9" * 4299, "--j", "1"],
         "strand maps with at least 2^14286 columns exceed guard 10000000"),
        (["strand", "--ell", "3", "--j", "1", "--steps", "9" * 4299],
         "strand maps with at least 2^28564 columns exceed guard 10000000"),
        (["betti", "--formula-nvars", "9" * 4299, "--formula-power", "2"],
         "the Betti row may need at least 2^42837 word operations, over the guard 10000000"),
        (["betti"] + HUGE_BOX, "multidegree box of at least 2^15570 points exceeds guard 10000000"),
        (["codepth"] + HUGE_BOX, "multidegree box of at least 2^15570 points exceeds guard 10000000"),
        (["genexp"] + HUGE_BOX, "multidegree box of at least 2^15570 points exceeds guard 10000000"),
    ], ids=["veronese", "pn", "alpha", "strand-ell", "strand-steps", "betti", "betti-box", "codepth-box",
            "genexp-box"])
    def test_a_count_past_the_digit_limit_is_named_by_its_size(self, argv, message):
        # each count has more than the interpreter's 4300 digits
        assert run_captured(argv) == (EXIT_GUARD, [], f"error: {message}\n")

    @pytest.mark.parametrize("e", [str(10**12), "9" * 4299], ids=["10^12", "4299-digits"])
    def test_decompose_refuses_an_unprintable_q_before_forming_it(self, e):
        # 2^(10^12) alone would take about 125 GB; the powers of 2 stop at
        # the first past the digit limit
        argv = ["decompose", "--char", "2", "--vars", "x,y", "--ideal", "x^2,y^2", "-e", e]
        start = time.perf_counter()
        code, lines, err = run_captured(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, lines) == (EXIT_GUARD, [])
        limit = sys.get_int_max_str_digits()
        assert err == f"error: q = 2^{e} has more than {limit} decimal digits, the most a report prints\n"

    def test_decompose_keeps_every_printable_q(self):
        # 2^17 prints; S/I = k, whose only degree offset is 0/1, is refused
        # with the rest once q passes the limit, and a quotient that is not
        # artinian is refused as such first
        base = ["decompose", "--json", "--char", "2", "--vars", "x,y"]
        code, lines, _err = run_captured(base + ["--ideal", "x^2,y^2", "-e", "17"])
        assert code == EXIT_OK
        assert '"den": 131072' in "\n".join(lines)
        assert run_captured(base + ["--ideal", "x,y", "-e", "100000"])[0] == EXIT_GUARD
        assert run_captured(base + ["--ideal", "x*y", "-e", "100000"])[0] == EXIT_UNSUPPORTED

    @pytest.mark.parametrize("n", ["0", "-1", "-2"])
    def test_pn_needs_a_positive_dimension(self, n):
        # projective n-space needs n >= 1, whether or not an alpha count is
        # reached; pn and alpha both say so in the library's words
        for subcommand, l in itertools.product(("pn", "alpha"), ("0", "1")):
            argv = [subcommand, "--n", n, "--p", "2", "--l", l]
            assert run_captured(argv) == (EXIT_USAGE, [], "error: n must be at least 1\n")

    @pytest.mark.parametrize(
        "flag,sub", [("--p", ["alpha", "--n", "1"]), ("--char", ["strand", "--ell", "2", "--j", "1"])]
    )
    @pytest.mark.parametrize("n", ["3215031751", "3825123056546413051", "318665857834031151167461"])
    def test_strong_pseudoprimes_and_huge_numbers_are_usage_errors(self, flag, sub, n):
        # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to the bases 2, 3, 5, 7;
        # the last number is where the 12-base test stops being exact
        code, lines, _err = run_captured(sub + [flag, n])
        assert (code, lines) == (EXIT_USAGE, [])

    def test_summand_checks_q_before_the_twist(self):
        # q = 2^17 is over MAX_Q: the guard speaks before the negative twist
        argv = ["summand", "--char", "2", "--vars", "x,y", "--ideal", "x*y", "-e", "17", "--j", "-1"]
        assert run_captured(argv) == (EXIT_GUARD, [], "error: q = 131072 exceeds the guard 65536\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fsplit"], "q = 3^3000000 exceeds the guard 65536"),
            (["summand", "--j", "0"], "q = 3^3000000 exceeds the guard 65536"),
            (["twists"], "q = 3^3000000 exceeds the guard 65536"),
            (["witness"], "q = 3^3000000 exceeds the guard 65536"),
            (["veronese", "--ell", "2", "--p", "3"],
             "Hilbert-series check over 12 * 2 * 3^3000000 + 1 degrees exceeds guard 10000000"),
        ],
        ids=["fsplit", "summand", "twists", "witness", "veronese"],
    )
    def test_a_huge_exponent_is_refused_without_forming_q(self, argv, message):
        # q is never formed, so the refusal is instant and names q as p^e
        cubic = [] if argv[0] == "veronese" else ["--char", "3", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3"]
        start = time.perf_counter()
        assert run_captured(argv + cubic + ["-e", "3000000"]) == (EXIT_GUARD, [], f"error: {message}\n")
        assert time.perf_counter() - start < 1

    def test_flevel_checks_q_at_every_exponent(self):
        # not split at e = 1, so e = 2..17 come from empty colon tables; q = 2^17 is still refused
        argv = ["flevel", "--char", "2", "--vars", "x,y", "--ideal", "x^2,y^2", "--emax", "17"]
        assert run_captured(argv) == (EXIT_GUARD, [], "error: q = 131072 exceeds the guard 65536\n")

    def test_flevel_forms_no_colon_after_e_one_fails(self, capsys):
        # only f^4 is formed: f^24 and f^124 cannot escape once f^4 does not,
        # so the guard has nothing to bound at e = 2, 3
        argv = ["flevel", "--char", "5", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3",
                "--emax", "3", "--max-monomials", "1000"]
        result = run_json(capsys, argv)["result"]
        assert (result["lower"], result["upper"]) == (2, 5)
        for e, q in [("1", 5), ("2", 25), ("3", 125)]:
            cert = result["split_tests"][e]
            assert (cert["verdict"], cert["q"], cert["search"]) == (False, q, {"degree": 0, "candidates": 1})

    @pytest.mark.parametrize("e", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["fsplit"] + QUADRIC,
            ["fsplit"] + TWELVE,
            ["summand", "--j", "0"] + QUADRIC,
            ["summand", "--j", "1"] + TWELVE,
            ["twists"] + QUADRIC,
            ["witness"] + QUADRIC,
        ],
    )
    def test_exponent_below_one_is_a_usage_error(self, argv, e):
        assert run_captured(argv + ["-e", e]) == (EXIT_USAGE, [], "error: e must be at least 1\n")

    def test_threads_is_not_an_option(self):
        code, lines, err = run_captured(["pn", "--n", "2", "--p", "2", "--threads", "1"])
        assert (code, lines) == (EXIT_USAGE, [])
        assert "unrecognized arguments: --threads 1" in err

    def test_power_guard_covers_fsplit(self, capsys):
        # f^4 of the Fermat cubic takes 3 + 9 + 18 + 30 term pairs
        argv = ["fsplit", "--char", "5", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3",
                "-e", "4", "--max-monomials", "59"]
        assert run(argv) == EXIT_GUARD
        assert run(argv[:-1] + ["60"]) == EXIT_OK

    def test_fsplit_p7_e4_fits_the_default_guard(self, capsys):
        # f^2400 of the Fermat cubic is built only below m^[2401]
        argv = ["fsplit", "--char", "7", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3", "-e", "4"]
        certificate = run_json(capsys, argv)["result"]["certificate"]
        assert certificate["verdict"] is True
        assert certificate["witness"]["surviving_term"] == "x^2400*y^2400*z^2400"

    def test_fsplit_forms_no_exponent_past_q(self, capsys):
        # every term of f lies in m^[q]: nothing is kept, so no exponent
        # reaches 70000 * 2^15 > 2^31
        argv = ["fsplit", "--char", "2", "--vars", "x,y", "--ideal", "x^70000+y^70000", "-e", "16"]
        assert run_json(capsys, argv)["result"]["certificate"]["verdict"] is False

    def test_monomial_fsplit_forms_no_colon(self, capsys):
        # m^3 in 6 variables is not squarefree, so its colon has no live
        # term; none of its 56 generators is paired with another
        cube = ", ".join("*".join(c) for c in itertools.combinations_with_replacement("abcdef", 3))
        argv = ["fsplit", "--char", "2", "--vars", "a,b,c,d,e,f", "--ideal", cube,
                "--max-monomials", "1000"]
        assert run_json(capsys, argv)["result"]["certificate"]["verdict"] is False

    def test_monomial_fsplit_forms_no_bracket(self, capsys):
        # x^1048576 raised to q = 4096 would pass 2^31
        argv = ["fsplit", "--char", "2", "--vars", "x,y", "--ideal", "x^1048576, y", "-e", "12"]
        assert run_json(capsys, argv)["result"]["certificate"]["verdict"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["alpha", "--n", "1", "--p", "0"],
            ["alpha", "--n", "1", "--p", "4"],
            ["pn", "--n", "1", "--p", "0"],
            ["veronese", "--ell", "2", "--p", "0"],
            ["strand", "--ell", "3", "--j", "1", "--char", "4"],
            ["decompose", "-e", "-1"] + TWELVE,
            ["twists", "-e", "-1"] + QUADRIC,
            ["flevel", "--char", "2", "--vars", "x,y", "--ideal", "x*y", "--emax", "0"],
            ["strand", "--ell", "3", "--j", "1", "--steps", "-2"],
            ["alpha", "--n", "0", "--p", "2"],
            ["pn", "--n", "0", "--p", "2"],
            ["betti", "--char", "2", "--vars", "x,y", "--ideal", "x^2,y^2", "--degree-bound", "-1"],
            ["betti", "--formula-nvars", "-1", "--formula-power", "2"],
        ],
    )
    def test_out_of_range_numbers_are_usage_errors(self, capsys, argv):
        assert run(argv) == EXIT_USAGE

    @given(argv=numeric_flag_argv())
    @settings(max_examples=150, deadline=None)
    def test_numeric_flags_end_in_an_exit_code(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run(argv) in range(5)

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["fsplit", "--spec", "char 2; vars x,y; ideal x*y"], "--spec char 2; vars x,y; ideal x*y"),
            (["codepth", "--degree-bound", "4"] + TWELVE, "--degree-bound 4"),
            (["genexp", "--degree-bound", "4"] + TWELVE, "--degree-bound 4"),
            (["fsplit", "--class", "ci"] + QUADRIC, "--class ci"),
            (["summand", "--j", "1", "--class", "monomial"] + TWELVE, "--class monomial"),
            (["betti", "--formula-nvars", "2", "--formula-power", "2", "--class", "ci"], "--class ci"),
            (["twists", "--jmax", "2"] + QUADRIC, "--jmax 2"),
            (["veronese", "--ell", "2", "--p", "3", "--degree-bound", "0"], "--degree-bound 0"),
        ],
    )
    def test_flags_no_answer_depends_on_are_not_options(self, argv, flag):
        # one ideal grammar, and the class read from the generators; codepth
        # reads the complete Betti table, no twist past max(n - d, 0) is a
        # summand, and the Veronese check is a proof from 4 * ell * q on,
        # so none of these flags could change an answer
        code, lines, err = run_captured(argv)
        assert (code, lines) == (EXIT_USAGE, [])
        assert err.startswith(f"usage: frobcalc {argv[0]} ")
        assert err.endswith(f"error: unrecognized arguments: {flag}\n")


def run_captured(argv):
    """(exit code, stdout without the timing field, stderr) of one run()."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # --version and --help exit from argparse
            code = exc.code
    lines = [line for line in out.getvalue().splitlines() if "timing_seconds" not in line]
    return code, lines, err.getvalue()


class TestParserReuse:
    ARGVS = [
        ["codepth", "--char", "2", "--vars", "x,y", "--ideal", "x*y", "--json"],
        ["fsplit", "--char", "2"],
        ["alpha", "--n", "1", "--p", "2"],
        ["--version"],
        ["strand", "--ell", "3", "--j", "1", "--steps", "2", "--json"],
        ["betti", "--char", "2", "--vars", "x,y", "--ideal", "x^2, y^2", "--max-monomials", "8"],
        ["summand", "--j", "1", "--json"] + QUADRIC,
        ["fsplit", "--no-such-flag"],
        ["betti", "--formula-nvars", "3", "--formula-power", "2"],
    ]

    def test_interleaved_calls_match_single_calls(self):
        alone = []
        for argv in self.ARGVS:
            build_parser.cache_clear()
            alone.append(run_captured(argv))
        assert [code for code, _out, _err in alone] == [0, 1, 0, 0, 0, 3, 0, 1, 0]
        for argv, expected in zip(self.ARGVS + self.ARGVS[::-1], alone + alone[::-1]):
            assert run_captured(argv) == expected, argv

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()


IDEAL_COMMANDS = ["fsplit", "summand", "twists", "witness", "codepth", "genexp",
                  "decompose", "filtration", "flevel", "loewy", "betti"]


@st.composite
def polynomial_text(draw, names):
    """A generator: a sum of terms with small exponents, or a malformed one."""
    if draw(st.sampled_from(range(10))) == 9:
        return draw(st.sampled_from(["", "x^", "2*", "x**2", "w", "0", "1", "x^-1", "(x+y)", "x^99999999999"]))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.sampled_from(["", "2*", "-", "3*"]))
        factors = [f"{v}^{draw(st.integers(0, 3))}" for v in names if draw(st.booleans())]
        terms.append(coeff + ("*".join(factors) or "1"))
    return " + ".join(terms)


@st.composite
def cli_argv(draw):
    """Any subcommand with random flags, numbers and ideals; required
    flags are usually present and the characteristic usually prime, so most
    inputs reach the algebra."""
    def num(lo, hi):
        return str(draw(st.integers(lo, hi)))

    def rarely():
        return draw(st.sampled_from(range(10))) == 9

    name = draw(st.sampled_from(IDEAL_COMMANDS + ["strand", "alpha", "pn", "veronese"]))
    argv = [name]
    if name in IDEAL_COMMANDS and not (name == "betti" and rarely()):
        names = draw(st.sampled_from([["x"], ["x", "y"], ["x", "y", "z"]]))
        char = num(-1, 9) if rarely() else draw(st.sampled_from(["2", "3", "5", "7"]))
        ideal = ", ".join(draw(st.lists(polynomial_text(names), min_size=1, max_size=3)))
        argv += ["--char", char, "--vars", ",".join(names), "--ideal", ideal]
    required, optional = {
        "fsplit": ([], [["-e", num(-1, 3)]]),
        "summand": ([["--j", num(-2, 3)]], [["-e", num(-1, 2)]]),
        "twists": ([], [["-e", num(-1, 2)]]),
        "witness": ([], [["-e", num(-1, 2)]]),
        "codepth": ([], []),
        "genexp": ([], []),
        "decompose": ([], [["-e", num(-1, 2)]]),
        "filtration": ([], []),
        "flevel": ([], [["--emax", num(-1, 3)]]),
        "loewy": ([], []),
        "betti": ([], [["--degree-bound", num(-2, 6)], ["--formula-nvars", num(-1, 4)],
                       ["--formula-power", num(-1, 4)]]),
        "strand": ([["--ell", num(-1, 6)], ["--j", num(-1, 6)]],
                   [["--steps", num(-2, 5)], ["--char", num(-2, 7)]]),
        "alpha": ([["--n", num(-1, 4)], ["--p", num(-2, 7)]], [["--l", num(-4, 4)]]),
        "pn": ([["--n", num(-1, 3)], ["--p", num(-2, 5)]], [["-e", num(-1, 2)], ["--l", num(-3, 3)]]),
        "veronese": ([["--ell", num(-1, 4)], ["--p", num(-2, 5)]],
                     [["-e", num(-1, 2)]]),
    }[name]
    for flag in required:
        argv += [] if rarely() else flag
    for flag in optional + [["--json"]]:
        argv += flag if draw(st.booleans()) else []
    if rarely():
        argv.append(draw(st.sampled_from(["--bogus", "-e", "--json=1", "extra"])))
    return argv + ["--max-monomials", num(0, 400)]


class TestGrammarFuzz:
    @given(argv=cli_argv())
    @settings(max_examples=150, deadline=None)
    def test_every_input_ends_in_an_exit_code(self, argv):
        code, _out, err = run_captured(argv)
        assert code in range(5), argv
        assert "Traceback" not in err


@st.composite
def near_monomial_lists(draw):
    """--ideal texts near a list of bare monomials in x, y, z: whitespace,
    repeated and unknown names, x^0, exponents and sums at 2^31, exponents
    past ten digits, empty generators, trailing commas, and now and then a
    coefficient, a constant or a sign."""
    space = st.sampled_from(["", "", " ", "\t", "\n ", "\u00a0"])
    name = st.sampled_from(["x", "y", "z"] * 3 + ["w", "xy", "_"])
    exponent = st.sampled_from(["", "", "", "^0", "^1", "^2", " ^ 3", "^00000000002", "^000000000001",
                                "^1073741824", "^2147483647", "^2147483648", "^" + "9" * 12])
    factor = st.tuples(space, name, exponent, space).map("".join)
    generator = st.lists(factor, min_size=1, max_size=3).map("*".join)
    stray = st.sampled_from([""] * 12 + ["2*", "+", "-", "1", "0", "x + ", "*", "^2"])
    gens = draw(st.lists(st.tuples(stray, generator).map("".join), min_size=1, max_size=4))
    if draw(st.sampled_from([False] * 9 + [True])):
        gens.insert(draw(st.integers(0, len(gens))), draw(space))
    return ",".join(gens) + draw(st.sampled_from(["", "", "", ",", " , "]))


def ideal_or_error(read):
    """The class and generators of the ideal `read()` returns, or the type
    and message of what it raises."""
    try:
        ideal = read()
    except Exception as exc:
        return type(exc), str(exc)
    return type(ideal), ideal.gens


class TestIdealReaders:
    @given(text=near_monomial_lists(), p=st.sampled_from([2, 3]))
    @settings(max_examples=300, deadline=None)
    def test_bare_monomials_read_as_the_polynomial_grammar_reads_them(self, text, p):
        args = argparse.Namespace(char=p, vars="x, y,z", ideal=text)
        ring = PolyRing(p, ["x", "y", "z"])

        def general():
            return build_ideal(ring, [parse_polynomial(ring, chunk) for chunk in text.split(",")])

        assert ideal_or_error(lambda: _parse_ideal_args(args, {})[1]) == ideal_or_error(general)


@st.composite
def unread_flag_argv(draw):
    """A subcommand in one of its input modes, its required flags, some
    flags the mode reads, and one flag it does not read; returns (argv,
    mode, flag)."""
    def value(flag):
        kind, _help = FLAGS[flag]
        if kind is int:
            return str(draw(st.integers(-3, 3)))
        return draw(st.sampled_from(["", "x", "x,y", "x^2"]))

    mode = draw(st.sampled_from(sorted(INPUT_MODES)))
    switches, unread = INPUT_MODES[mode]
    tables = {name: (IDEAL_FLAGS | own) if takes_ideal else own
              for name, (_help, takes_ideal, own) in SUBCOMMANDS.items()}
    name = draw(st.sampled_from([name for name, flags in tables.items() if set(switches) <= set(flags)]))
    flags = tables[name]
    flag = draw(st.sampled_from([f for f in unread if f in flags]))
    pairs = [[f, "2"] for f in switches]
    pairs += [[f, "1"] for f, default in flags.items() if default == REQUIRED]
    switching = {f for other, _unread in INPUT_MODES.values() for f in other}
    read = [f for f in flags if f not in switching | set(unread) and flags[f] != REQUIRED]
    pairs += [[f, value(f)] for f in draw(st.lists(st.sampled_from(read), unique=True))] if read else []
    pairs += [[flag, value(flag)]]
    argv = [name] + [word for pair in draw(st.permutations(pairs)) for word in pair]
    return argv + (["--json"] if draw(st.booleans()) else []), mode, flag


class TestInputModes:
    @given(case=unread_flag_argv())
    @settings(max_examples=150, deadline=None)
    def test_a_flag_the_mode_does_not_read_is_named(self, case):
        argv, mode, flag = case
        assert run_captured(argv) == (EXIT_USAGE, [], f"error: {mode} takes no {flag}\n"), argv

    def test_flag_tables_agree(self):
        # every FLAGS row is declared by IDEAL_FLAGS or a SUBCOMMANDS row,
        # every declared flag has a row, and the input modes name only
        # declared flags: a flag removed from one table leaves no orphan
        declared = set(IDEAL_FLAGS).union(*(own for _help, _ideal, own in SUBCOMMANDS.values()))
        assert declared == set(FLAGS)
        for switches, unread in INPUT_MODES.values():
            assert set(switches) | set(unread) <= declared

    def test_readme_names_every_subcommand(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        paragraph = readme[readme.index("Subcommands:"):].split("\n\n")[0]
        named = [text.split()[0] for text in re.findall(r"`([^`]+)`", paragraph)]
        assert sorted(named) == sorted(SUBCOMMANDS)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fsplit"] + QUADRIC,
            ["twists"] + QUADRIC,
            ["decompose"] + TWELVE,
            ["flevel"] + TWELVE,
        ],
    )
    def test_byte_identical_across_runs_and_threads(self, capsys, argv):
        outputs = []
        for _ in range(4):
            code = run(argv + ["--json"])
            raw = capsys.readouterr().out
            assert code == EXIT_OK
            payload = json.loads(raw)
            payload.pop("timing_seconds")
            outputs.append(json.dumps(payload, indent=2))
        assert len(set(outputs)) == 1


def jsonable(value):
    """Oracle for `emit_json`, for the types reports hold: integers with
    |v| >= 2^53 become decimal strings; `oracle_emit` then writes the copy
    with json.dumps."""
    kind = type(value)
    if value is None or kind in (bool, float, str):
        return value
    if kind is int:
        return value if -JSON_INT_LIMIT < value < JSON_INT_LIMIT else str(value)
    if kind is dict:
        return {k: jsonable(v) for k, v in value.items()}
    if kind is list:
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {kind.__name__}")


def oracle_emit(value):
    return json.dumps(jsonable(value), indent=2) + "\n"


def reference_text(payload):
    """Oracle for `render_text`: the text of the payload's JSON report read
    back, which is how text mode once printed every report."""
    return render_text(json.loads(emit_json(payload)))


BOUNDARY_INTS = [
    sign * magnitude
    for sign in (1, -1)
    for magnitude in (0, 2**53 - 1, 2**53, 2**53 + 1, 2**60)
]
# control characters, non-ASCII (including astral, written as a surrogate pair)
# and the characters JSON escapes
TRICKY_TEXT = st.text(
    alphabet=st.characters(max_codepoint=0x1F, categories=["Cc"])
    | st.sampled_from('"\\/\u00e9\u2028\u03c0\U0001F600 ab')
    | st.characters(),
    max_size=6,
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(BOUNDARY_INTS)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e16, 5e-324])
    | TRICKY_TEXT
    | st.just({})
    | st.just([])
)


PAYLOADS = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(TRICKY_TEXT, children, max_size=4),
    max_leaves=25,
)


class Colour(IntEnum):
    RED = 1


class Tag(str):
    pass


class Count(int):
    pass


class TestJsonEncoding:
    def test_round_trip(self):
        payload = {"a": 1, "b": [1, 2, {"c": None}], "d": "x"}
        assert json.loads(emit_json(payload)) == payload

    def test_large_integers_become_strings(self):
        payload = {"big": 2**60, "small": 2**50}
        loaded = json.loads(emit_json(payload))
        assert loaded["big"] == str(2**60)
        assert loaded["small"] == 2**50

    def test_fractions_raise(self):
        with pytest.raises(TypeError, match="cannot serialize Fraction"):
            emit_json({"deg": Fraction(3, 2)})

    json_values = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-(2**40), 2**40)
        | st.text(max_size=8),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=5), children, max_size=3),
        max_leaves=12,
    )

    @given(payload=st.dictionaries(st.text(max_size=5), json_values, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random_payloads(self, payload):
        assert json.loads(emit_json(payload)) == payload

    @given(payload=PAYLOADS)
    @settings(max_examples=400, deadline=None)
    def test_bytes_match_the_oracle(self, payload):
        """Byte for byte as json.dumps(jsonable(x), indent=2): floats,
        escapes and non-ASCII, empty containers at every depth and the
        2^53 boundary."""
        assert emit_json(payload) == oracle_emit(payload)

    def test_the_string_threshold_is_two_to_the_53(self):
        out = emit_json([2**53 - 1, 2**53, -(2**53 - 1), -(2**53)])
        assert json.loads(out) == [
            2**53 - 1, "9007199254740992", -(2**53 - 1), "-9007199254740992"
        ]

    def test_unsupported_objects_raise(self):
        with pytest.raises(TypeError, match="cannot serialize object"):
            emit_json({"a": [object()]})
        with pytest.raises(TypeError, match="cannot serialize set"):
            emit_json({1, 2})

    def test_tuples_int_keys_and_subclasses_raise(self):
        for value in [(1, 2), {1: "a"}, Colour.RED, Count(7), Tag("v"), OrderedDict(a=1),
                      namedtuple("Pair", "x y")(1, 2)]:
            with pytest.raises(TypeError):
                emit_json({"a": [value]})
            with pytest.raises(TypeError):
                render_text({"a": [value]})
            with pytest.raises(TypeError):
                render_text({"a": value})

    @pytest.mark.parametrize("value", [{1, 2}, object(), Fraction(3, 2), {(1, 2): 3}])
    def test_text_mode_refuses_what_json_refuses(self, value):
        for payload in (value, [value], {"a": value}):
            with pytest.raises(TypeError):
                emit_json(payload)
            with pytest.raises(TypeError):
                render_text(payload)

    def test_render_text_covers_payload(self):
        text = render_text({"a": {"b": [1, 2]}, "c": "x"})
        assert "a:" in text and "b:" in text and "- 1" in text and "c: x" in text
        assert render_text({"a": None, "b": [None, 1]}) == "a: null\nb:\n  - null\n  - 1\n"
        # booleans read as in JSON too; 1 and 0 stay numbers
        assert render_text({"a": True, "b": [False, 1, 0]}) == "a: true\nb:\n  - false\n  - 1\n  - 0\n"
        # an empty container is "(none)" under a key and a bare "-" in a list
        assert render_text({"a": [], "b": [[], {}, [1]], "c": {}}) == "a: (none)\nb:\n  -\n  -\n  -\n    - 1\nc: (none)\n"
        assert render_text([]) == render_text({}) == "\n"
        assert render_text("x") == "x\n"


def row_records(layout, rows):
    """Oracle for a `Rows` table: the list of dicts it stands for, built
    field by field."""
    records = []
    for row in rows:
        entries = iter(row)
        records.append({
            name: next(entries) if width == 1 else [next(entries) for _ in range(width)]
            for name, width in layout
        })
    return records


def old_veronese_payload(dec):
    """`ConicDecomposition.payload()` with the pieces as the list of dicts
    it held before they became a `Rows` table."""
    payload = dec.payload()
    payload["pieces"] = [
        {"residues": [u, v], "class": j, "start_degree": start} for u, v, j, start in dec.pieces
    ]
    return payload


@st.composite
def row_tables(draw):
    """A `Rows` table with distinct field names (escapes and % included),
    widths 1-3 and integers up to and past 2^53."""
    names = draw(st.lists(TRICKY_TEXT | st.sampled_from(["%d", "%", "a%%s"]), min_size=1, max_size=4,
                          unique=True))
    layout = tuple((name, draw(st.integers(1, 3))) for name in names)
    width = sum(w for _name, w in layout)
    value = st.integers(-(2**20), 2**20) | st.sampled_from(BOUNDARY_INTS)
    rows = draw(st.lists(st.tuples(*[value] * width), max_size=5))
    return Rows(layout, rows)


# the payloads the emit_json fuzz tests draw, and payloads holding row tables
TEXT_PAYLOADS = PAYLOADS | TestJsonEncoding.json_values | st.recursive(
    SCALARS | row_tables(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(TRICKY_TEXT, children, max_size=3),
    max_leaves=8,
)


class TestTextRendering:
    @given(payload=TEXT_PAYLOADS)
    @settings(max_examples=300, deadline=None)
    def test_text_matches_the_text_of_the_json_report(self, payload):
        """Integers past 2^53 print as digits, as their JSON strings did;
        a table prints as its records."""
        assert render_text(payload) == reference_text(payload)


class TestRowTables:
    @pytest.mark.parametrize("ell", range(1, 8))
    @pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5, 7) for e in (1, 2) if p**e <= 49])
    def test_veronese_pieces_match_the_dicts(self, ell, p, e):
        dec = veronese_decompose(ell, p, e)
        new, old = dec.payload(), old_veronese_payload(dec)
        for wrap in (lambda x: x, lambda x: {"result": x}, lambda x: [{"a": [x]}]):
            assert emit_json(wrap(new)) == emit_json(wrap(old)) == oracle_emit(wrap(old))
        assert render_text(new) == reference_text(new) == render_text(old)
        assert emit_json(new["pieces"]) == emit_json(row_records(new["pieces"].layout, dec.pieces))

    @given(table=row_tables())
    @settings(max_examples=200, deadline=None)
    def test_any_table_matches_the_dicts(self, table):
        records = row_records(table.layout, table.rows)
        assert table.records() == records
        assert emit_json({"t": [table]}) == oracle_emit({"t": [records]})

    def test_an_empty_table_is_an_empty_list(self):
        table = Rows((("residues", 2), ("class", 1)), [])
        assert emit_json(table) == "[]\n"
        assert emit_json({"pieces": table}) == '{\n  "pieces": []\n}\n'
        assert render_text({"pieces": table}) == "pieces: (none)\n"

    def test_a_payload_with_a_table_is_not_json(self):
        # emit_json writes the table; json.dumps refuses it rather than
        # writing it as some other shape
        with pytest.raises(TypeError, match="Rows"):
            json.dumps(veronese_decompose(2, 2, 1).payload())

    @pytest.mark.parametrize("big", [2**53, -(2**53)])
    def test_an_entry_at_two_to_the_53_falls_back_to_strings(self, big):
        table = Rows((("residues", 2), ("class", 1)), [(0, 1, 2), (3, big, 5)])
        out = emit_json({"pieces": table})
        assert out == oracle_emit({"pieces": row_records(table.layout, table.rows)})
        assert json.loads(out)["pieces"][1] == {"residues": [3, str(big)], "class": 5}

    def test_a_value_past_the_digit_limit_is_a_guard_exit(self, monkeypatch):
        def decompose(ell, p, e, **_guard):
            pieces = [(0, 0, 0, 0), (1, 0, 1, 10**4999)]
            return ConicDecomposition(ell, p, e, p**e, {0: 1, 1: 1}, pieces, 0, True, [], True)

        message = (
            f"a report integer of {(10**4999).bit_length()} bits exceeds the interpreter's "
            f"limit of {sys.get_int_max_str_digits()} decimal digits"
        )
        for write in (emit_json, render_text):
            with pytest.raises(ResourceGuardError) as raised:
                write(decompose(2, 2, 1).payload())
            assert str(raised.value) == message
        monkeypatch.setattr("frobcalc.cli.veronese_decompose", decompose)
        # text mode as well as --json
        for mode in (["--json"], []):
            code, lines, err = run_captured(["veronese", "--ell", "2", "--p", "2"] + mode)
            assert (code, lines, err) == (EXIT_GUARD, [], f"error: {message}\n")


GOLDEN = Path(__file__).resolve().parent / "golden"
DECOMPOSE_FRACTIONAL = [
    "decompose", "--char", "3", "--vars", "x,y,z", "--ideal", "x^5, y^5, z^5, x^2*y^2"
]
SIX_VARS = ["--char", "2", "--vars", "a,b,c,d,e,f",
            "--ideal", "a^2*b^2*d*f^2, a^2*b^2*e^2, a*b^2*d^2, a^2*c*d*f, c*d*f^2, d*e", "--json"]
EIGHT_NAMES = [f"x{v}" for v in range(8)]
M2_EIGHT_VARS = ["--char", "2", "--vars", ",".join(EIGHT_NAMES), "--ideal",
                 ", ".join(f"{a}^2" if a == b else f"{a}*{b}"
                           for i, a in enumerate(EIGHT_NAMES) for b in EIGHT_NAMES[i:]), "--json"]
GOLDEN_REPORTS = {
    "veronese_ell2_p3_e2.json": ["veronese", "--ell", "2", "--p", "3", "-e", "2", "--json"],
    # the text rendering of a row table
    "veronese_ell2_p2_e1.txt": ["veronese", "--ell", "2", "--p", "2", "-e", "1"],
    # text mode prints integers past 2^53 as their digits, booleans as in
    # JSON, and nested certificate dicts
    "alpha_big_l.txt": ["alpha", "--n", "1", "--p", "2", "--l", "100000000000000000000"],
    "fsplit_cubic_p7_e4.txt": ["fsplit", "--char", "7", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3",
                               "-e", "4"],
    "twists_quadric_jmax2.txt": ["twists"] + QUADRIC,
    # the default twist range of the quadric ends at j = 2
    "twists_quadric_jmax2.json": ["twists"] + QUADRIC + ["--json"],
    # the echoed --l and the alpha keys beyond 2^53 become strings
    "alpha_big_l.json": ["alpha", "--n", "1", "--p", "2", "--l", "100000000000000000000", "--json"],
    # degree_offset fractions
    "decompose_fractional_offsets.json": DECOMPOSE_FRACTIONAL + ["--json"],
    "decompose_fractional_offsets.txt": DECOMPOSE_FRACTIONAL,
    # the certificates at e = 2, 3 after the failed test at e = 1
    "flevel_cubic_p5_emax3.json": ["flevel", "--char", "5", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3",
                                   "--emax", "3", "--json"],
    "witness_quartic_p5.json": ["witness", "--char", "5", "--vars", "x,y,z,w", "--ideal", "x^4+y^4+z^4+w^4",
                                "--json"],
    "twists_cubic_p7_e2.json": ["twists", "--char", "7", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3",
                                "-e", "2", "--json"],
    # f^(q-1) mod m^[q]: one live term of the 455 in f^12, the corner of
    # f^2400, none at p = 2 (settled by the top factor), and a whole
    # colon generator with many live terms
    "fsplit_quartic_p13_e1.json": ["fsplit", "--char", "13", "--vars", "x,y,z,w",
                                   "--ideal", "x^4+y^4+z^4+w^4", "-e", "1", "--json"],
    "fsplit_cubic_p7_e4.json": ["fsplit", "--char", "7", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3",
                                "-e", "4", "--json"],
    "summand_cubic_p2_e8.json": ["summand", "--char", "2", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3",
                                 "--j", "0", "-e", "8", "--json"],
    "twists_quadric_p3_e3.json": ["twists", "-e", "3"] + QUADRIC + ["--json"],
    # fits the default guard (190 terms, the monomials of degree 18, that of
    # f^6); captured under --max-monomials 10^8 when the guard counted 25930801
    "fsplit_cubic_p7_e5.json": ["fsplit", "--char", "7", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3",
                                "-e", "5", "--json"],
    # a non-artinian ideal in six variables: lcm box of 486 points
    "codepth_six_vars_p2.json": ["codepth"] + SIX_VARS,
    "genexp_six_vars_p2.json": ["genexp"] + SIX_VARS,
    "betti_six_vars_p2.json": ["betti"] + SIX_VARS,
    "codepth_m2_eight_vars.json": ["codepth"] + M2_EIGHT_VARS,
    # 8 generators in 8 variables: a box of 312,500 points, and the blocks
    # at the lcm-lattice points only; captured from the box walk
    "betti_eight_vars_p2.json": ["betti", "--char", "2", "--vars", ",".join(EIGHT_NAMES), "--json", "--ideal",
                                 "x0^4*x1*x2^3*x3^3*x4^4*x5*x6^2*x7,x0^2*x2^2*x3^4*x4^3*x5^4*x6*x7^2,"
                                 "x0^3*x1*x3^3*x5^3*x6^3*x7^4,x0*x1^3*x2^3*x3*x4^2*x5^4*x6^2,"
                                 "x0*x1^4*x3^2*x5^3*x6^3*x7^3,x0*x1^3*x2^2*x4^3*x5^4*x7,"
                                 "x1^3*x2^2*x3*x4^4*x6^2,x2^4*x4^3*x5*x6^3"],
    # gcd(q, ell) = 4: a residue of u + v admits four classes or none
    "veronese_ell4_p2_e2.json": ["veronese", "--ell", "4", "--p", "2", "-e", "2", "--json"],
    # gcd(q, ell) = 3, checked through 12 * ell * q = 216
    "veronese_ell6_p3_e1.json": ["veronese", "--ell", "6", "--p", "3", "-e", "1", "--json"],
    "filtration_x2_y2_zw_p2.json": ["filtration", "--char", "2", "--vars", "x,y,z,w", "--ideal", "x^2,y^2,z*w",
                                    "--json"],
    # not artinian: the default degree bound
    "filtration_x2_y3_p3.json": ["filtration", "--char", "3", "--vars", "x,y,z", "--ideal", "x^2,y^3", "--json"],
    "pn_n40_p5_e3.json": ["pn", "--n", "40", "--p", "5", "-e", "3", "--json"],
    "alpha_n50_p3_l2.json": ["alpha", "--n", "50", "--p", "3", "--l", "2", "--json"],
    # the strand maps' ranks at every degree
    "strand_ell5_j3_steps12_p3.json": ["strand", "--ell", "5", "--j", "3", "--steps", "12", "--char", "3", "--json"],
    "strand_ell3_j1_steps8_p2.json": ["strand", "--ell", "3", "--j", "1", "--steps", "8", "--char", "2", "--json"],
    # a monomial complete intersection: the Koszul complex on the squares
    "betti_squares_four_vars_p7.json": ["betti", "--char", "7", "--vars", "a,b,c,d", "--ideal", "a^2,b^2,c^2,d^2",
                                        "--json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_golden_report_bytes(capsys, name):
    """The whole report, timing aside, byte for byte as tests/golden holds it."""
    assert run(GOLDEN_REPORTS[name]) == EXIT_OK
    report, timing_lines = TIMING.subn("", capsys.readouterr().out)
    assert timing_lines == 1
    assert report == (GOLDEN / name).read_text()


ONE_PER_SUBCOMMAND = [
    ["fsplit", "--char", "7", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3"],
    ["summand", "--j", "1"] + QUADRIC,
    ["twists"] + QUADRIC,
    ["witness"] + QUADRIC,
    ["flevel"] + TWELVE,
    ["codepth"] + TWELVE,
    ["genexp"] + TWELVE,
    ["decompose"] + TWELVE,
    ["loewy"] + TWELVE,
    ["betti"] + TWELVE,
    ["filtration", "--char", "2", "--vars", "x,y", "--ideal", "x^2, y^2"],
    ["strand", "--ell", "3", "--j", "1"],
    ["alpha", "--n", "2", "--p", "3"],
    ["pn", "--n", "2", "--p", "3", "-e", "2"],
    ["veronese", "--ell", "3", "--p", "2", "-e", "1"],
]


@pytest.mark.parametrize("argv", ONE_PER_SUBCOMMAND, ids=lambda argv: argv[0])
def test_text_mode_renders_the_json_report(capsys, argv):
    """Each subcommand's text is that of its JSON report read back, timing
    aside."""
    assert run(argv + ["--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert run(argv) == EXIT_OK
    text = capsys.readouterr().out
    assert TIMING.sub("", text) == TIMING.sub("", reference_text(report))


def echo_rule(argv):
    """The input keys a report echoes: char, vars, ideal and class for a
    subcommand that takes an ideal, then each of its own flags that the
    input mode reads, under its argparse name, in table order."""
    name = argv[0]
    _help, takes_ideal, own = SUBCOMMANDS[name]
    active = [mode for mode, (switches, _unread) in INPUT_MODES.items() if switches[0] in argv]
    read = [flag for flag in own
            if all(flag not in (unread if mode in active else switches)
                   for mode, (switches, unread) in INPUT_MODES.items())]
    ideal = ["char", "vars", "ideal", "class"] if takes_ideal and not active else []
    return ideal + [flag.lstrip("-").replace("-", "_") for flag in read]


@pytest.mark.parametrize(
    "argv",
    [[a for a in argv if a != "--json"] for _, argv in sorted(GOLDEN_REPORTS.items())] + ONE_PER_SUBCOMMAND
    + [["betti", "--formula-nvars", "3", "--formula-power", "2"]],
    ids=lambda argv: argv[0],
)
def test_input_echo_follows_the_subcommand_table(capsys, argv):
    payload = run_json(capsys, argv)
    assert list(payload["input"]) == echo_rule(argv)


def top_level_parse(argv):
    """The parse every argv took before subcommand parsers were called
    directly: the top-level parser on the whole argv, with unrecognized
    tokens refused by the subcommand's parser when the subcommand comes
    first."""
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    return args, unknown, parser if argv.index(args.subcommand) else args.parser


def parse_outcome(parse, argv):
    """((vars(namespace), unrecognized tokens) or how the parse ended,
    stdout, stderr), with the unrecognized tokens refused as `run` does."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, unknown, owner = parse(argv)
            if unknown:
                owner.error(f"unrecognized arguments: {' '.join(unknown)}")
            ended = (vars(args), unknown)
        except SystemExit as exc:
            ended = ("exit", exc.code)
        except Exception as exc:
            ended = (type(exc), str(exc))
    return ended, out.getvalue(), err.getvalue()


UNKNOWN_FLAG = ["fsplit", "--char", "3", "--vars", "x,y", "--ideal", "x^2", "--exponent", "6"]


@pytest.mark.parametrize(
    "argv",
    [argv for _, argv in sorted(GOLDEN_REPORTS.items())] + ONE_PER_SUBCOMMAND
    + [UNKNOWN_FLAG, ["--bogus"] + UNKNOWN_FLAG[:-2], ["-h"], ["fsplit", "-h"], ["--version"], [],
       ["betti", "--version"], ["--json", "codepth"] + QUADRIC, ["nosuch", "--json"]],
    ids=lambda argv: " ".join(argv[:2]) or "empty",
)
def test_run_parses_as_the_top_level_parser_does(argv, monkeypatch):
    assert parse_outcome(_parse, argv) == parse_outcome(top_level_parse, argv)
    direct = run_captured(argv)
    monkeypatch.setattr("frobcalc.cli._parse", top_level_parse)
    assert run_captured(argv) == direct


class TestCertificateReverification:
    def test_envelope_collects_certificates(self, capsys):
        # the certificates sit once, in the result's entries
        payload = run_json(capsys, ["twists"] + QUADRIC)
        certs = list(payload["result"]["entries"].values())
        assert [c["verdict"] for c in certs] == [True, True, False]

    def test_json_witness_reverifies_offline(self, capsys):
        # a certificate from the JSON report carries enough to recheck it
        # against the library with no access to the original run
        payload = run_json(
            capsys, ["fsplit", "--char", "7", "--vars", "x,y,z", "--ideal", "x^3+y^3+z^3"]
        )
        from frobcalc import PolyRing, in_bracket_max, parse_polynomial

        ring = PolyRing(payload["input"]["char"], payload["input"]["vars"])
        witness = payload["result"]["certificate"]["witness"]
        s = parse_polynomial(ring, witness["s"])
        colon = parse_polynomial(ring, witness["colon_generator"])
        q = payload["result"]["certificate"]["q"]
        assert not in_bracket_max(s * colon, q)

    def test_json_decompose_partition_rechecks(self, capsys):
        payload = run_json(capsys, ["decompose"] + TWELVE)
        sizes = [p["dimension"] for p in payload["result"]["pieces"]]
        assert sum(sizes) == payload["result"]["module_dimension"]


def test_staircase_view(ring2):
    from frobcalc import MonomialIdeal

    I = MonomialIdeal(ring2, [(2, 0), (1, 1), (0, 2)])
    layers = I.staircase(4)
    assert [len(layer) for layer in layers] == [1, 2, 0, 0, 0]


def test_module_entry_point():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "frobcalc", "alpha", "--n", "1", "--p", "2", "--json"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["sum"] == 2
