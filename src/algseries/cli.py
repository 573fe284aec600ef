"""Command-line interface.

Subcommands: extract, diagonal, kernel, annihilate, roots, gen.  Exit codes:
0 success, 1 verification failure, 2 input/hypothesis error, 141 (128 +
SIGPIPE) when the reader closed stdout before the output ended.  Field
specs look like "Q", "F2", "F4", "F4:t^2+t+1" or "F3^2:t^2+1"; polynomial
arguments follow the exprparse grammar.  File outputs are written
atomically (temp file + rename).
"""

import argparse
import functools
import json
import os
import sys
import tempfile

from .algebra.fields import GF, QQ, field_order, field_size, is_prime
from .annihilator import frobenius_relation
from .automaton import export_dot, from_json, to_json
from .cartier import degree_bound, rational_kernel
from .diagrat import (DIAGONAL_ORDER_LIMIT, DiagonalRep, diagonal_coeffs,
                      furstenberg_rep)
from .errors import AlgSeriesError
from .exprparse import parse_modulus, parse_poly
from .extract import (EXTRACT_ORDER_LIMIT, FixedPointProblem,
                      fs_coefficients, is_fixed_point)
from .roots import CLOSURE_BUDGET, roots_automata

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_PIPE = 141


def parse_field_spec(spec):
    """Field descriptor from "Q", "F<q>", "F<p>^<k>" with optional ":modulus"."""
    if spec == "Q":
        return QQ
    if not spec.startswith("F"):
        raise AlgSeriesError(f"bad field spec {spec!r}; expected Q or F<q>[...]")
    body, _, modulus_text = spec[1:].partition(":")
    base, _, power = body.partition("^")
    try:
        q = int(base)
        k = int(power) if power else 1
    except ValueError as exc:
        raise AlgSeriesError(f"bad field spec {spec!r}") from exc
    if power:  # F<p>^<k>: the table cap first, then p prime
        p, q = q, field_order(q, k)
        if not is_prime(p):
            raise AlgSeriesError(f"{p} is not prime in the field spec {spec!r}")
    else:
        p, k = field_size(q)
    modulus = parse_modulus(modulus_text, p, k) if modulus_text else None
    return GF(q, modulus=modulus)


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".algseries-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_series(values, field, fmt, start=0):
    if fmt == "json":
        print(json.dumps([field.to_literal(v) for v in values]))
    else:
        for n, v in enumerate(values, start=start):
            print(f"{n}\t{field.fmt(v)}")


def cmd_extract(args):
    field = parse_field_spec(args.field)
    problem = FixedPointProblem(parse_poly(args.poly, field))
    series = fs_coefficients(problem, args.order)
    _emit_series(series.coeffs[1:], field, args.format, start=1)
    if args.check:
        claim = f"f_0 = 0 and P(X, f) = f mod X^{args.order + 1}"
        if not is_fixed_point(problem, series):
            print(f"check: FAILED ({claim} do not both hold)", file=sys.stderr)
            return EXIT_VERIFY
        print(f"check: ok ({claim}: f is the fixed point)", file=sys.stderr)
    return EXIT_OK


def cmd_diagonal(args):
    field = parse_field_spec(args.field)
    if args.from_poly:
        rep = furstenberg_rep(parse_poly(args.from_poly, field))
    else:
        if not args.num or not args.den:
            raise AlgSeriesError("need --num and --den, or --from-poly")
        rep = DiagonalRep(parse_poly(args.num, field),
                          parse_poly(args.den, field))
    series = diagonal_coeffs(rep, args.order)
    if args.from_poly:
        print(f"num = {rep.num.to_text()}")
        print(f"den = {rep.den.to_text()}")
    _emit_series(series.coeffs, field, args.format)
    return EXIT_OK


def cmd_kernel(args):
    field = parse_field_spec(args.field)
    num = parse_poly(args.num, field)
    den = parse_poly(args.den, field)
    automaton = rational_kernel(num, den, diagonal=args.diagonal)
    print(f"states: {automaton.n_states}")
    print(f"degree bound: {degree_bound(num, den)}")
    if args.dot:
        _atomic_write(args.dot, export_dot(automaton))
    if args.json:
        _atomic_write(args.json, to_json(automaton))
    return EXIT_OK


def cmd_annihilate(args):
    with open(args.automaton) as handle:
        automaton = from_json(handle.read())
    # frobenius_relation checks the relation on this automaton's series
    relation = frobenius_relation(automaton, check_order=args.order)
    print(relation.to_text())
    print(f"verified at order {args.order}")
    return EXIT_OK


def cmd_roots(args):
    field = parse_field_spec(args.field)
    outcome = roots_automata(parse_poly(args.poly, field), args.order)
    print(f"relation: {outcome.relation.to_text()}")
    for a0 in outcome.skipped:
        print(f"warning: residue root {field.fmt(a0)} is not simple; skipped")
    for idx, (branch, automaton) in enumerate(outcome.branches):
        # the automaton generates the branch at every index, also past the
        # order its series was certified to
        coeffs = " ".join(field.fmt(c) for c in automaton.generate(31).coeffs)
        print(f"branch {idx}: a0 = {field.fmt(branch.a0)}, "
              f"{automaton.n_states} states")
        print(f"  coefficients: {coeffs}")
        for folder, ext, render in ((args.dot, "dot", export_dot),
                                    (args.json, "json", to_json)):
            if folder:
                os.makedirs(folder, exist_ok=True)
                _atomic_write(os.path.join(folder, f"branch{idx}.{ext}"),
                              render(automaton))
    if outcome.failures:
        print("verification FAILED for: "
              + ", ".join(repr(x) if isinstance(x, str) else field.fmt(x)
                          for x in outcome.failures), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_gen(args):
    with open(args.automaton) as handle:
        automaton = from_json(handle.read())
    values = automaton.generate(args.order).coeffs
    print(" ".join(automaton.field.fmt(v) for v in values))
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on the first call and shared after it.

    Building it costs more than ten parse_args calls.  parse_args changes
    neither the parser nor the defaults and help texts fixed here, so
    in-process callers of main build it once, and not at import.  Every
    caller gets the same parser: adding to it changes main.
    """
    parser = argparse.ArgumentParser(
        prog="algseries",
        description="Exact computation with algebraic power series: "
                    "coefficient extraction, diagonals, kernels, automata.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, field=True):
        if field:
            p.add_argument("--field", required=True,
                           help='field spec: Q, F2, F4, F4:t^2+t+1, F3^2:t^2+1')
        p.add_argument("-n", "--order", type=int, default=256,
                       help="truncation order / sequence length (default 256)")

    p = sub.add_parser(
        "extract", help="Flajolet-Soria coefficients of Y=P(X,Y)",
        description="Coefficients f_1..f_N of the fixed point f = P(X, f) "
                    "by the Flajolet-Soria formula.  An order -n above "
                    f"EXTRACT_ORDER_LIMIT = {EXTRACT_ORDER_LIMIT} exits 2.")
    add_common(p)
    p.add_argument("--poly", required=True, help="P(X,Y) with P(0,0)=P'_Y(0,0)=0")
    p.add_argument("--check", action="store_true",
                   help="prove f the fixed point: f_0 = 0, P(X, f) = f mod X^(N+1)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser(
        "diagonal", help="diagonal coefficients of num/den",
        description="Coefficients c_0..c_N of the diagonal of num/den.  An "
                    f"order -n above DIAGONAL_ORDER_LIMIT = "
                    f"{DIAGONAL_ORDER_LIMIT} exits 2.")
    add_common(p)
    p.add_argument("--num", help="numerator polynomial")
    p.add_argument("--den", help="denominator polynomial (den(0,0) != 0)")
    p.add_argument("--from-poly", dest="from_poly",
                   help="build num/den from a root equation Q(X,Y)=0 instead")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_diagonal)

    p = sub.add_parser("kernel", help="Cartier kernel automaton of num/den")
    add_common(p)
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)
    p.add_argument("--dot", help="write DOT rendering to this file")
    p.add_argument("--json", help="write automaton JSON to this file")
    p.add_argument("--diagonal", action="store_true",
                   help="restrict to equal digit pairs (diagonal sequence)")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("annihilate",
                       help="Frobenius relation for an automaton's series")
    add_common(p, field=False)
    p.add_argument("--automaton", required=True, help="DFAO JSON file")
    p.set_defaults(func=cmd_annihilate)

    p = sub.add_parser(
        "roots", help="series roots of P as automata",
        description="Series roots of P over a finite field, one automaton "
                    "per simple residue root.  A Cartier closure of more "
                    f"than CLOSURE_BUDGET = {CLOSURE_BUDGET} states exits 2.")
    add_common(p)
    p.add_argument("--poly", required=True, help="P(X,Y) over a finite field")
    p.add_argument("--dot", help="directory for per-branch DOT files")
    p.add_argument("--json", help="directory for per-branch JSON files")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("gen", help="run an automaton on 0..N")
    add_common(p, field=False)
    p.add_argument("--automaton", required=True, help="DFAO JSON file")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.order < 1:
            raise AlgSeriesError(f"order must be >= 1, got {args.order}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nobody reads the rest of the output.  Point stdout at devnull so
        # that the flush at interpreter exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (AlgSeriesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
