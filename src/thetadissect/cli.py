"""Command-line front end.

Subcommands: expand, verify, catalog, dissect. Results go to stdout (or the
--out path); diagnostics go to stderr only. Exit codes are a scriptable
contract, and `main` alone turns exceptions into them:

  0  success / verified / all agree
  1  an identity failed (or a catalog/dissection run had failures)
  2  parse or usage errors (bad flags, unknown catalog names, bad m/k,
     an --out path that cannot be written): a UsageError or an OSError
  3  evaluation errors (non-convergent theta arguments, non-monomial
     arguments, order problems): any other EngineError
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog as cat
from .cyclotomic import _digits
from .dissect import dissect_closed, dissect_filter
from .errors import EngineError, ParseError, UsageError
from .expr import required_order
from .exprlang import parse_expr, parse_identity, print_expr

DEFAULT_DEGREE = 60


def _add_common(sp: argparse.ArgumentParser, order: bool = False):
    sp.add_argument("--degree", type=int, default=DEFAULT_DEGREE,
                    help="truncation total degree (default %d)" % DEFAULT_DEGREE)
    if order:
        sp.add_argument("--order", type=int, default=None,
                        help="override the cyclotomic working order L")
    sp.add_argument("--format", choices=("text", "json"), default="text",
                    help="output format (default text)")
    sp.add_argument("--out", default=None, help="write output to this path instead of stdout")


class _SubcommandParser(argparse.ArgumentParser):
    """Every subcommand option but -h starts with "--", so a token such as
    "-f(a,b)" is read as an expression (None marks a positional)."""

    def _parse_optional(self, arg_string):
        if arg_string[:2] != "--" and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="thetadissect",
        description="Exact theta-series expansion and dissection-identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    sp = sub.add_parser("expand", help="expand an expression as a truncated series")
    sp.add_argument("expr", help="expression in the identity language")
    _add_common(sp, order=True)
    sp.set_defaults(run=_cmd_expand)

    sp = sub.add_parser("verify", help="verify an identity 'lhs = rhs'")
    sp.add_argument("identity", help="identity in the identity language")
    _add_common(sp, order=True)
    sp.set_defaults(run=_cmd_verify)

    sp = sub.add_parser("catalog", help="verify built-in identities")
    sp.add_argument("names", nargs="*",
                    help="catalog entry names, or 'all' / nothing for every entry")
    _add_common(sp)
    sp.set_defaults(run=_cmd_catalog)

    sp = sub.add_parser("dissect", help="residue-class dissection S_k of f(a, b)")
    sp.add_argument("--m", type=int, required=True, help="modulus (>= 1)")
    sp.add_argument("--k", type=int, default=None, help="residue class (default: all)")
    sp.add_argument("--mode", choices=("filter", "closed", "both"), default="both")
    _add_common(sp)
    sp.set_defaults(run=_cmd_dissect)

    return parser


def _emit(text: str, args):
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _resolve_order(requested, *exprs) -> int:
    needed = required_order(*exprs)
    if requested is None:
        return needed
    if requested < 1 or requested % needed != 0:
        raise UsageError(
            "--order %d is not a positive multiple of the required order %d"
            % (requested, needed)
        )
    return requested


def _cmd_expand(args) -> int:
    ast = parse_expr(args.expr)
    order = _resolve_order(args.order, ast)
    series = cat.evaluate(ast, args.degree, order)
    if args.format == "json":
        doc = {
            "expr": print_expr(ast),
            "degree": args.degree,
            "order": order,
            "validity": series.validity,
            "terms": [
                {"monomial": mono.render(), "coeff": str(coeff)}
                for mono, coeff in series.sorted_terms()
            ],
        }
        _emit(json.dumps(doc, indent=2), args)
    else:
        _emit("%s\nvalidity: %s" % (series.render(), _digits(series.validity)), args)
    return 0


def _cmd_verify(args) -> int:
    lhs, rhs = parse_identity(args.identity)
    order = _resolve_order(args.order, lhs, rhs)
    identity = cat.Identity("user", lhs, rhs, order, "user-supplied identity")
    report = cat.verify_identity(identity, args.degree)
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), indent=2), args)
    else:
        _emit(_report_line(report), args)
    if report.status == "verified":
        return 0
    if report.status == "failed":
        return 1
    print("evaluation error: %s" % report.error, file=sys.stderr)
    return 3


def _report_line(report: cat.Report) -> str:
    if report.status == "verified":
        return "%s: verified (degree %d, lhs %d terms, rhs %d terms)" % (
            report.name, report.degree, report.lhs_terms, report.rhs_terms)
    if report.status == "failed":
        mm = report.first_mismatch
        return "%s: failed at %s (lhs %s, rhs %s; degree %d)" % (
            report.name, mm.monomial.render(), mm.left, mm.right, report.degree)
    return "%s: error (%s)" % (report.name, report.error)


def _cmd_catalog(args) -> int:
    run_all = not args.names or "all" in args.names
    named = [cat.get_identity(name) for name in args.names if name != "all"]
    identities = sorted(cat.builtin_catalog() if run_all else named, key=lambda ident: ident.name)
    reports = [cat.verify_identity(ident, args.degree) for ident in identities]

    if args.format == "json":
        doc = {
            "reports": [r.to_dict() for r in reports],
            "summary": cat.summarize(reports),
        }
        _emit(json.dumps(doc, indent=2), args)
    else:
        lines = []
        show_series = not run_all
        for report in reports:
            lines.append(_report_line(report))
            if show_series and report.status != "error":
                lines.append("  lhs: %s" % report.lhs.render())
                lines.append("  rhs: %s" % report.rhs.render())
        summary = cat.summarize(reports)
        lines.append("summary: total=%(total)d verified=%(verified)d "
                     "failed=%(failed)d error=%(error)d" % summary)
        _emit("\n".join(lines), args)
    return 0 if all(r.status == "verified" for r in reports) else 1


def _cmd_dissect(args) -> int:
    m, degree, mode = args.m, args.degree, args.mode
    if m < 1:
        raise UsageError("modulus m must be >= 1, got %d" % m)
    # the closed form holds for any integer k; the report names each class once
    if args.k is not None and not 0 <= args.k < m:
        raise UsageError("residue k=%d out of range [0, %d)" % (args.k, m))

    # the paths --mode asks for, read once; each class writes its JSON entry
    # and its text lines together
    paths = [(side, run) for side, run in (("filter", dissect_filter), ("closed", dissect_closed))
             if mode in (side, "both")]
    entries, lines = [], []
    for k in [args.k] if args.k is not None else range(m):
        tag = "m=%d k=%d" % (m, k)
        entry: dict = {"k": k}
        series = [run(m, k, degree) for _, run in paths]
        for (side, _), result in zip(paths, series):
            entry[side] = result.render()
            lines.append("%s %s: %s" % (tag, side, entry[side]))
        if mode == "both":
            filtered, closed = series
            mm = filtered.first_mismatch(closed, degree)
            entry["agree"] = mm is None
            if mm is None:
                lines.append("%s: agree" % tag)
            else:
                entry["mismatch"] = {
                    "monomial": mm.monomial.render(),
                    "filter": str(mm.left),
                    "closed": str(mm.right),
                }
                lines.append(tag + ": disagree at %(monomial)s (filter %(filter)s, "
                             "closed %(closed)s)" % entry["mismatch"])
        entries.append(entry)
    all_agree = all(entry.get("agree", True) for entry in entries)
    doc = {"m": m, "degree": degree, "mode": mode, "entries": entries}
    if mode == "both":
        doc["all_agree"] = all_agree
        lines.append("all agree" if all_agree else "disagreement found")
    _emit(json.dumps(doc, indent=2) if args.format == "json" else "\n".join(lines), args)
    return 0 if all_agree else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.degree < 0:
            raise UsageError("--degree must be >= 0, got %d" % args.degree)
        return args.run(args)
    except ParseError as exc:
        message, code = "parse error: %s" % exc, 2
    except UsageError as exc:
        message, code = str(exc), 2
    except EngineError as exc:
        message, code = "evaluation error: %s: %s" % (type(exc).__name__, exc), 3
    except OSError as exc:  # writing the result is the only I/O a command does
        message, code = "cannot write output: %s" % exc, 2
    print(message, file=sys.stderr)
    return code


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
