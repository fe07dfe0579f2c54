"""Command-line front end.

One subcommand per library operation.  Each report is one envelope dict,
written as JSON (`emit_json`) or as text
(`render_text`).  Exit codes: 0 success, 1 usage error, 2 unsupported
ideal class / input, 3 resource guard exceeded, 4 internal verification
failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import time
from json.encoder import encode_basestring_ascii as _encode_str

from . import __version__
from .errors import (
    ExponentOverflowError,
    NonArtinianError,
    NotFSplitError,
    ParseError,
    ResourceGuardError,
    RingMismatchError,
    UnsupportedIdealClassError,
    VerificationError,
)
from .ideals import CIIdeal, MonomialIdeal, build_ideal
from .koszul import betti_power_row, betti_table, codepth, strand_check
from .levels import DEFAULT_E_MAX, f_level_bounds, generation_exponent
from .polyring import PolyRing, is_prime, mono_str, parse_monomials, parse_polynomial
from .pushforward import (
    FrobeniusModule,
    Rows,
    ci_filtration_check,
    cyclic_decompose,
    pn_pushforward,
    veronese_decompose,
)
from .splitting import graded_summand_test, is_f_split, twist_spectrum, witness_from_proof

JSON_INT_LIMIT = 2**53

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSUPPORTED = 2
EXIT_GUARD = 3
EXIT_VERIFICATION = 4


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1 (argparse default is 2, reserved here)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _encode(value, pad):
    """`value` as json.dumps(value, indent=2) writes it at the depth whose
    lines start with `pad`, for the types reports hold: dicts with str
    keys, lists, str, int, bool, None and float.  Integers with
    |v| >= 2^53 become decimal strings.  A `Rows` table is written as its
    list of dicts (`Rows.records`) would be, with the same bytes: from one
    %d template per table, or through those dicts when an entry reaches
    2^53.  Any other type, a subclass of these included, raises
    TypeError."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        parts = []
        for key, item in value.items():
            key = _encode_str(key)
            kind = type(item)
            if kind is int and -JSON_INT_LIMIT < item < JSON_INT_LIMIT:
                parts.append(f"{key}: {item!r}")
            elif kind is str:
                parts.append(f"{key}: {_encode_str(item)}")
            else:
                parts.append(f"{key}: {_encode(item, inner)}")
        sep = ",\n" + inner
        return f"{{\n{inner}{sep.join(parts)}\n{pad}}}"
    if kind is list:
        if not value:
            return "[]"
        inner = pad + "  "
        parts = []
        for item in value:
            kind = type(item)
            if kind is int and -JSON_INT_LIMIT < item < JSON_INT_LIMIT:
                parts.append(repr(item))
            elif kind is str:
                parts.append(_encode_str(item))
            else:
                parts.append(_encode(item, inner))
        sep = ",\n" + inner
        return f"[\n{inner}{sep.join(parts)}\n{pad}]"
    if kind is Rows:
        return _encode_rows(value, pad)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        try:
            digits = repr(value)
        except ValueError:
            raise ResourceGuardError(
                f"a report integer of {value.bit_length()} bits exceeds the interpreter's "
                f"limit of {sys.get_int_max_str_digits()} decimal digits"
            ) from None
        return digits if -JSON_INT_LIMIT < value < JSON_INT_LIMIT else f'"{digits}"'
    if kind is str:
        return _encode_str(value)
    if kind is float:
        return repr(value)
    raise TypeError(f"cannot serialize {kind.__name__}")


def _encode_rows(table, pad):
    """`_encode(table.records(), pad)` without the dicts: every row goes
    through one template with a %d per entry."""
    rows = table.rows
    if not rows:
        return "[]"
    if not _fits_template(rows):
        return _encode(table.records(), pad)
    inner = pad + "  "
    field = inner + "  "
    fields = []
    for name, width in table.layout:
        key = _encode_str(name).replace("%", "%%")
        if width == 1:
            fields.append(f"{key}: %d")
        else:
            entries = (",\n" + field + "  ").join(["%d"] * width)
            fields.append(f"{key}: [\n{field}  {entries}\n{field}]")
    template = "{\n" + field + (",\n" + field).join(fields) + "\n" + inner + "}"
    sep = ",\n" + inner
    return f"[\n{inner}{sep.join(map(template.__mod__, rows))}\n{pad}]"


def _fits_template(rows):
    """True when every entry is below 2^53 in size, so that %d writes it
    as a report writes an integer."""
    return max(map(abs, itertools.chain.from_iterable(rows))) < JSON_INT_LIMIT


def emit_json(envelope):
    """Serialize the report envelope; field order is insertion order."""
    return _encode(envelope, "") + "\n"


def _text_scalar(value):
    # a str as itself, any other scalar as `_encode` writes it, unquoted
    if type(value) is str:
        return value
    if type(value) is int and -JSON_INT_LIMIT < value < JSON_INT_LIMIT:
        return repr(value)
    return _encode(value, "").strip('"')


def _text_rows(table, pad):
    """The lines `_text_lines` writes for `table.records()` at `pad`, one
    block per row from one template with a %d per entry."""
    field = pad + "  "
    fields = []
    for name, width in table.layout:
        key = name.replace("%", "%%")
        fields.append(f"{field}{key}: %d" if width == 1 else f"{field}{key}:" + f"\n{field}  - %d" * width)
    template = pad + "-\n" + "\n".join(fields)
    return map(template.__mod__, table.rows)


def _text_lines(value, pad, lines):
    # key + ":" raises TypeError on a key that is not a str, as `_encode` does
    keyed = type(value) is dict
    entries = [(key + ":", item) for key, item in value.items()] if keyed else [("-", item) for item in value]
    for label, item in entries:
        if type(item) is Rows:
            if item.rows and _fits_template(item.rows):
                lines.append(pad + label)
                lines.extend(_text_rows(item, pad + "  "))
                continue
            item = item.records()
        if type(item) not in (dict, list):
            lines.append(f"{pad}{label} {_text_scalar(item)}")
        elif item:
            lines.append(pad + label)
            _text_lines(item, pad + "  ", lines)
        else:
            lines.append(pad + label + (" (none)" if keyed else ""))


def render_text(value):
    """The payload as indented text: a line per dict entry and "-" per list
    item, integers as digits, null, true and false as in JSON.  It takes,
    and refuses, what `emit_json` does; a `Rows` table as its records."""
    if type(value) is Rows:
        value = value.records()
    if type(value) not in (dict, list):
        return _text_scalar(value) + "\n"
    lines = []
    _text_lines(value, "", lines)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the command line as data: `build_parser` and `_dispatch` read these tables

REQUIRED = "required"

# every flag: its type and its help text
FLAGS = {
    "--char": (int, "prime characteristic"),
    "--vars": (str, "comma-separated variable names"),
    "--ideal": (str, "comma-separated generators"),
    "-e": (int, "pushforward exponent"),
    "--j": (int, "twist to test"),
    "--degree-bound": (int, "degree bound of the table"),
    "--emax": (int, "largest exponent to test"),
    "--formula-nvars": (int, "closed form: number of variables"),
    "--formula-power": (int, "closed form: power of the maximal ideal"),
    "--ell": (int, "Veronese index"),
    "--steps": (int, "strand degrees to report"),
    "--n": (int, "dimension of projective space"),
    "--p": (int, "prime characteristic"),
    "--l": (int, "line bundle twist"),
}

# the flags of every subcommand that takes an ideal, read before its own
IDEAL_FLAGS = {"--char": None, "--vars": None, "--ideal": None}

# every subcommand: its help text, the ideal class it takes ("any",
# "monomial", or None for no ideal), and each of its own flags with its
# default or REQUIRED
SUBCOMMANDS = {
    "fsplit": ("Frobenius splitting test", "any", {"-e": 1}),
    "summand": ("graded summand test for one twist", "any", {"-e": 1, "--j": REQUIRED}),
    "twists": ("summand tests across a twist range", "any", {"-e": 1}),
    "witness": ("maximal escape monomial and its twist factors", "any", {"-e": 1}),
    "codepth": ("top nonvanishing Koszul homology degree", "monomial", {}),
    "genexp": ("least e with p^e above the codepth", "monomial", {}),
    "decompose": ("cyclic decomposition of a pushforward module", "monomial", {"-e": 1}),
    "filtration": ("p^c-step filtration check for a regular sequence", "monomial", {}),
    "flevel": ("bound report for the pushforward level", "any", {"--emax": DEFAULT_E_MAX}),
    "loewy": ("Loewy length of an artinian monomial quotient", "monomial", {}),
    "betti": ("graded Betti table, or the power formula", "monomial",
              {"--degree-bound": None, "--formula-nvars": None, "--formula-power": None}),
    "strand": ("strand exact-sequence ranks (Hilbert-Burch)", None,
               {"--ell": REQUIRED, "--j": REQUIRED, "--steps": 6, "--char": 2}),
    "alpha": ("twist multiplicities on projective space", None,
              {"--n": REQUIRED, "--p": REQUIRED, "--l": 0}),
    "pn": ("iterated pushforward of a line bundle on P^n", None,
           {"--n": REQUIRED, "--p": REQUIRED, "-e": 1, "--l": 0}),
    "veronese": ("strand decomposition of a Veronese pushforward", None,
                 {"--ell": REQUIRED, "--p": REQUIRED, "-e": 1}),
}

# every input mode: the flags that switch it on, and the flags it does
# not read, refused in this order
INPUT_MODES = {
    "formula mode": (("--formula-nvars", "--formula-power"),
                     ("--char", "--vars", "--ideal", "--degree-bound")),
}


def _dest(flag):
    # argparse stores --a-b under a_b and -e under e
    return flag.lstrip("-").replace("-", "_")


def _given(args, flag):
    return getattr(args, _dest(flag), None) is not None


def _input_mode(args):
    """The input mode the command line switches on, or None.  A mode given
    in part, or next to a flag it does not read, is a usage error."""
    for mode, (switches, unread) in INPUT_MODES.items():
        on = [_given(args, flag) for flag in switches]
        if any(on):
            if not all(on):
                raise ParseError(f"{mode} needs both {' and '.join(switches)}")
            for flag in unread:
                if _given(args, flag):
                    raise ParseError(f"{mode} takes no {flag}")
            return mode
    return None


def _parse_ideal_args(args, guard):
    """(ring, ideal) from --char, --vars and --ideal.  A list of bare
    monomials goes straight to a MonomialIdeal (`parse_monomials`); any
    other text through the polynomial grammar and `build_ideal`, which
    read such a list as the same ideal."""
    if None in (args.char, args.vars, args.ideal):
        raise ParseError("need --char, --vars and --ideal")
    ring = PolyRing(args.char, [v.strip() for v in args.vars.split(",")])
    monos = parse_monomials(ring, args.ideal)
    if monos is not None:
        return ring, MonomialIdeal(ring, monos)
    polys = [parse_polynomial(ring, chunk) for chunk in args.ideal.split(",")]
    return ring, build_ideal(ring, polys, **guard)


def _need_prime(p, flag):
    if not is_prime(p):
        raise ParseError(f"{flag} must be a prime: got {p}")


@functools.cache
def build_parser():
    """The argument parser; built once per process, since parsing leaves it
    unchanged.  `parser.subcommands` maps each subcommand to its own
    parser."""
    parser = _Parser(prog="frobcalc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"frobcalc {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON envelope")
    common.add_argument(
        "--max-monomials",
        type=int,
        default=None,
        help="resource guard, checked before the work it counts: term pairs multiplied "
        "for f^(q-1) mod m^[q] (f's product included), staircase candidates in total, "
        "filtration table cells, lcm-box points, word operations, "
        "matrix cells per degree of the regular-sequence check",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    parser.subcommands = {}
    for name, (helptext, ideal_class, own) in SUBCOMMANDS.items():
        sub = parser.subcommands[name] = subs.add_parser(name, help=helptext, parents=[common])
        sub.set_defaults(parser=sub)
        for flag, default in ((IDEAL_FLAGS | own) if ideal_class else own).items():
            kind, flag_help = FLAGS[flag]
            spec = {"required": True} if default == REQUIRED else {"default": default}
            sub.add_argument(flag, type=kind, help=flag_help, **spec)
    return parser


def _dispatch(args):
    """Returns (input echo, result payload).  The echo is the ideal, for a
    subcommand that takes one, then each of the subcommand's own flags that
    the input mode reads, in table order.  An ideal outside the class the
    subcommand's row declares is refused as soon as it is read."""
    guard = {}
    if args.max_monomials is not None:
        guard["max_monomials"] = args.max_monomials

    name = args.subcommand
    _help, ideal_class, own = SUBCOMMANDS[name]
    mode = _input_mode(args)
    # the active mode's unread flags and the switches of every other mode
    skipped = {flag for other, (switches, unread) in INPUT_MODES.items()
               for flag in (unread if other == mode else switches)}
    echo = {_dest(flag): getattr(args, _dest(flag)) for flag in own if flag not in skipped}
    if mode == "formula mode":
        d, j = args.formula_nvars, args.formula_power
        row = {str(i): b for i, b in enumerate(betti_power_row(d, j, **guard))}
        degrees = {"0": 0} | {str(i): j + i - 1 for i in range(1, d + 1)}
        return echo, {"betti": row, "generator_degrees": degrees}

    if ideal_class:
        ring, ideal = _parse_ideal_args(args, guard)
        if ideal_class == "monomial" and not isinstance(ideal, MonomialIdeal):
            raise UnsupportedIdealClassError("this subcommand needs a monomial ideal")
        ci = isinstance(ideal, CIIdeal)
        shown = [str(g) if ci else mono_str(ring, g) for g in ideal.gens]
        echo = {"char": ring.p, "vars": list(ring.variables), "ideal": shown,
                "class": "ci" if ci else "monomial"} | echo
        if name == "betti":
            table = betti_table(ideal, args.degree_bound, **guard)
            rows = [{"i": i, "degree": d, "value": v} for (i, d), v in sorted(table.items())]
            return echo, {"betti": rows}
        if name == "fsplit":
            return echo, {"certificate": is_f_split(ideal, args.e, **guard).payload(ring)}
        if name == "summand":
            cert = graded_summand_test(ideal, args.j, args.e, **guard)
            return echo, {"certificate": cert.payload(ring)}
        if name == "twists":
            return echo, twist_spectrum(ideal, args.e, **guard).payload(ring)
        if name == "witness":
            return echo, witness_from_proof(ideal, args.e, **guard).payload(ring)
        if name == "codepth":
            value = codepth(ideal, **guard)
            return echo, {"codepth": value, "depth": ring.nvars - value}
        if name == "genexp":
            return echo, {"generation_exponent": generation_exponent(ideal, **guard)}
        if name == "decompose":
            module = FrobeniusModule(ideal, args.e, **guard)
            return echo, cyclic_decompose(module).payload(ring)
        if name == "filtration":
            report = ci_filtration_check(ring, list(ideal.gens), **guard)
            return echo, report.payload(ring)
        if name == "flevel":
            return echo, f_level_bounds(ideal, e_max=args.emax, **guard).payload(ring)
        if name == "loewy":
            return echo, {"loewy_length": ideal.loewy_length(**guard)}

    if name == "strand":
        _need_prime(args.char, "--char")
        return echo, strand_check(args.ell, args.j, args.steps, args.char, **guard).payload()

    if "--p" in own:
        _need_prime(args.p, "--p")
    if name == "alpha":
        twists = pn_pushforward(args.n, args.p, 1, args.l, **guard).twists
        table = {str(-t): m for t, m in twists.items()}
        return echo, {"alpha": table, "sum": sum(table.values())}
    if name == "pn":
        return echo, pn_pushforward(args.n, args.p, args.e, args.l, **guard).payload()
    if name == "veronese":
        return echo, veronese_decompose(args.ell, args.p, args.e, **guard).payload()

    raise AssertionError(f"unhandled subcommand {name}")


def _parse(argv):
    """(namespace, unrecognized tokens, the parser that refuses them).

    An argv that starts with a subcommand goes to that subcommand's parser
    alone, into a namespace with `subcommand` set: the top-level parser
    would hand it every token after the name all the same, after a scan of
    its own.  Any other argv, `-h`, `--version`, an empty one or a flag
    before the subcommand, goes to the top-level parser, which refuses
    whatever it does not recognize."""
    parser = build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return *parser.parse_known_args(argv), parser
    return *sub.parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0])), sub


def run(argv):
    """Parse (`_parse`), dispatch, and print a report; returns the exit
    code."""
    try:
        args, unknown, owner = _parse(argv)
        if unknown:
            owner.error(f"unrecognized arguments: {' '.join(unknown)}")
        start = time.perf_counter()
        echo, result = _dispatch(args)
        envelope = {
            "tool": {"name": "frobcalc", "version": __version__},
            "subcommand": args.subcommand,
            "input": echo,
            "result": result,
            "timing_seconds": round(time.perf_counter() - start, 6),
        }
        report = emit_json(envelope) if args.json else render_text(envelope)
    except (_UsageError, ParseError, RingMismatchError, ExponentOverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnsupportedIdealClassError, NonArtinianError, NotFSplitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    sys.stdout.write(report)
    return EXIT_OK


def main():
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
