"""Guard coverage: one case per size parameter that once ran past every
guard.  Each run must end in a report or a guard refusal (exit 0 or 3)
within its time budget; none raises a default guard to get there.

Without the guard each case names, every case here still ends, within a
minute and a few hundred MB, but well past its budget."""

import contextlib
import io

import pytest
from test_acceptance import budget

from frobcalc.cli import EXIT_GUARD, EXIT_OK, run


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv + ["--json"])


@pytest.mark.parametrize(
    "name, argv, seconds",
    [
        # the residues q*j = -r (mod ell) solved in closed form, not by a
        # scan of ell classes for each of ell residues: about 10 s by scan
        ("veronese ell", ["veronese", "--ell", "8000", "--p", "2"], 1.0),
        # 1500^2 standard monomials, none of whose degrees holds more than
        # 1500; the running total of the candidates passes 10^5 in degree 446
        ("staircase exponent", ["loewy", "--char", "2", "--vars", "x,y", "--ideal", "x^1500, y^1500",
                                "--max-monomials", "100000"], 0.5),
        # 83^2 steps by 331 degrees: 2280259 cells, refused before the
        # chain is formed; no staircase is walked
        ("filtration p", ["filtration", "--char", "83", "--vars", "x,y", "--ideal", "x^2, y^2",
                          "--max-monomials", "100000"], 0.5),
    ],
)
def test_size_parameter_is_guarded(name, argv, seconds):
    with budget(name, seconds):
        code = run_quietly(argv)
    assert code in (EXIT_OK, EXIT_GUARD)
