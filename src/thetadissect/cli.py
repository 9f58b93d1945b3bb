"""Command-line front end.

Subcommands: expand, verify, catalog, dissect. Results go to stdout (or the
--out path); diagnostics go to stderr only. Exit codes are a scriptable
contract, and `main` alone turns exceptions into them and writes to stderr;
`verify` prints its report of an evaluation error first, then re-raises it:

  0  success / verified / all agree
  1  an identity failed (or a catalog/dissection run had failures; catalog
     reports an entry's evaluation error in the run, not as exit 3)
  2  parse or usage errors (bad flags, unknown catalog names, bad m/k,
     m above MAX_MODULUS, an --out path that cannot be written): a
     UsageError or an OSError
  3  evaluation errors (non-convergent theta arguments, non-monomial
     arguments, order problems, and each RequestTooLarge refusal that the
     README's refusal table lists with its cap): any other EngineError
"""
from __future__ import annotations

import argparse
import functools
import sys
from _json import encode_basestring_ascii as _quote

from . import catalog as cat
from .cyclotomic import _digits, check_root_table
from .dissect import check_run_size, dissect_closed, dissect_filter
from .errors import EngineError, ParseError, UsageError, describe
from .exprlang import parse_expr, parse_identity, print_expr
from .laurent import per_value

DEFAULT_DEGREE = 60
# dissect runs one filter and one closed form per residue class, so m is capped
MAX_MODULUS = 100_000


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--degree", type=int, default=DEFAULT_DEGREE,
                    help="truncation total degree (default %d)" % DEFAULT_DEGREE)
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
    _add_common(sp)
    sp.set_defaults(run=_cmd_expand)

    sp = sub.add_parser("verify", help="verify an identity 'lhs = rhs'")
    sp.add_argument("identity", help="identity in the identity language")
    _add_common(sp)
    sp.set_defaults(run=_cmd_verify)

    sp = sub.add_parser("catalog", help="verify built-in identities")
    sp.add_argument("names", nargs="*",
                    help="catalog entry names, or 'all' / nothing for every entry")
    _add_common(sp)
    sp.set_defaults(run=_cmd_catalog)

    sp = sub.add_parser("dissect", help="residue-class dissection S_k of f(a, b)")
    sp.add_argument("--m", type=int, required=True,
                    help="modulus, from 1 to %d" % MAX_MODULUS)
    sp.add_argument("--k", type=int, default=None, help="residue class (default: all)")
    sp.add_argument("--mode", choices=("filter", "closed", "both"), default="both")
    _add_common(sp)
    sp.set_defaults(run=_cmd_dissect)

    return parser


def json_text(value, indent: str = "\n") -> str:
    """The bytes json.dumps(value, indent=2) gives for dicts with str keys,
    lists, strings, ints, floats, bools and None, without loading the json
    package: strings go through its C escaper, and ints are spelled by
    _digits, so they print in full past the 4300-digit int-to-str limit.
    `indent` is the line break and indent of the enclosing level."""
    if isinstance(value, str):
        return _quote(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{%s%s}" % (",".join([
            inner + _quote(key) + ": "
            + (_quote(item) if type(item) is str else json_text(item, inner))
            for key, item in value.items()]), indent)
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[%s%s]" % (",".join([inner + json_text(item, inner) for item in value]), indent)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _digits(value)
    if isinstance(value, float):
        return repr(value)
    raise TypeError("%s is not JSON serializable" % type(value).__name__)


def _emit(text: str, args):
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_expand(args) -> int:
    ast, order = parse_expr(args.expr)
    check_root_table(order)  # evaluate may allocate phi(L) entries and build no table
    series = cat.evaluate(ast, args.degree, order)
    if args.format == "json":
        text = per_value(str)
        doc = {
            "expr": print_expr(ast),
            "degree": args.degree,
            "order": order,
            "validity": series.validity,
            "terms": [
                {"monomial": mono.render(), "coeff": text(coeff)}
                for mono, coeff in series.sorted_terms()
            ],
        }
        _emit(json_text(doc), args)
    else:
        _emit("%s\nvalidity: %s" % (series.render(), _digits(series.validity)), args)
    return 0


def _cmd_verify(args) -> int:
    lhs, rhs, order = parse_identity(args.identity)
    check_root_table(order)
    identity = cat.Identity("user", lhs, rhs, order, "user-supplied identity")
    report = cat.verify_identity(identity, args.degree)
    if args.format == "json":
        _emit(json_text(report.to_dict()), args)
    else:
        _emit(report.to_line(), args)
    if report.exception is not None:
        raise report.exception  # the report is out; main maps the error to exit 3
    return 0 if report.status == "verified" else 1


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
        _emit(json_text(doc), args)
    else:
        lines = []
        show_series = not run_all
        for report in reports:
            lines.append(report.to_line())
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
    if m > MAX_MODULUS:
        raise UsageError("modulus m must be <= %d, got %d" % (MAX_MODULUS, m))
    # the closed form holds for any integer k; the report names each class once
    if args.k is not None and not 0 <= args.k < m:
        raise UsageError("residue k=%d out of range [0, %d)" % (args.k, m))
    # each class is capped on its own; a run over all of them is capped here
    if args.k is None:
        check_run_size(degree)

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
                entry["mismatch"] = mm.to_dict("filter", "closed")
                lines.append(tag + ": disagree at %(monomial)s (filter %(filter)s, "
                             "closed %(closed)s)" % entry["mismatch"])
        entries.append(entry)
    all_agree = all(entry.get("agree", True) for entry in entries)
    doc = {"m": m, "degree": degree, "mode": mode, "entries": entries}
    if mode == "both":
        doc["all_agree"] = all_agree
        lines.append("all agree" if all_agree else "disagreement found")
    _emit(json_text(doc) if args.format == "json" else "\n".join(lines), args)
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
        message, code = "evaluation error: %s" % describe(exc), 3
    except OSError as exc:  # writing the result is the only I/O a command does
        message, code = "cannot write output: %s" % exc, 2
    print(message, file=sys.stderr)
    return code


def entrypoint():
    raise SystemExit(main())
