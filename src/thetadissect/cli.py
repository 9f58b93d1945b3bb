"""Command-line front end.

Subcommands: expand, verify, catalog, dissect. Results go to stdout (or the
--out path); diagnostics go to stderr only. Exit codes are a scriptable
contract:

  0  success / verified / all agree
  1  an identity failed (or a catalog/dissection run had failures)
  2  parse or usage errors (bad flags, unknown catalog names, bad m/k,
     an --out path that cannot be written)
  3  evaluation errors (non-convergent theta arguments, non-monomial
     arguments, order problems)
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import catalog as cat
from .dissect import DissectionSpec, dissect_closed, dissect_filter
from .errors import EngineError, ParseError, UnknownIdentityName
from .expr import required_order
from .exprlang import parse_expr, parse_identity, print_expr

DEFAULT_DEGREE = 60


@dataclass(frozen=True)
class RunConfig:
    """Validated common flags. degree None means the default: 60, or a
    catalog identity's own default_degree."""

    degree: Optional[int] = None
    order: Optional[int] = None
    format: str = "text"
    out: Optional[str] = None

    @property
    def effective_degree(self) -> int:
        return self.degree if self.degree is not None else DEFAULT_DEGREE


def _config_from(args) -> RunConfig:
    if args.degree is not None and args.degree < 0:
        raise ValueError("--degree must be >= 0, got %d" % args.degree)
    return RunConfig(args.degree, args.order, args.format, args.out)


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--degree", type=int, default=None,
                    help="truncation total degree (default %d)" % DEFAULT_DEGREE)
    sp.add_argument("--order", type=int, default=None,
                    help="override the cyclotomic working order L")
    sp.add_argument("--format", choices=("text", "json"), default="text",
                    help="output format (default text)")
    sp.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetadissect",
        description="Exact theta-series expansion and dissection-identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("expand", help="expand an expression as a truncated series")
    sp.add_argument("expr", help="expression in the identity language")
    _add_common(sp)

    sp = sub.add_parser("verify", help="verify an identity 'lhs = rhs'")
    sp.add_argument("identity", help="identity in the identity language")
    _add_common(sp)

    sp = sub.add_parser("catalog", help="verify built-in identities")
    sp.add_argument("names", nargs="*",
                    help="catalog entry names, or 'all' / nothing for every entry")
    _add_common(sp)

    sp = sub.add_parser("dissect", help="residue-class dissection S_k of f(a, b)")
    sp.add_argument("--m", type=int, required=True, help="modulus (>= 1)")
    sp.add_argument("--k", type=int, default=None, help="residue class (default: all)")
    sp.add_argument("--mode", choices=("filter", "closed", "both"), default="both")
    _add_common(sp)

    return parser


def _emit(text: str, config: RunConfig):
    if config.out:
        with open(config.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _resolve_order(requested, *exprs) -> int:
    needed = required_order(*exprs)
    if requested is None:
        return needed
    if requested < 1 or requested % needed != 0:
        raise ValueError(
            "--order %d is not a positive multiple of the required order %d"
            % (requested, needed)
        )
    return requested


def _cmd_expand(args, config: RunConfig) -> int:
    degree = config.effective_degree
    try:
        ast = parse_expr(args.expr)
    except ParseError as exc:
        return _fail("parse error: %s" % exc, 2)
    try:
        order = _resolve_order(config.order, ast)
    except ValueError as exc:
        return _fail(str(exc), 2)
    try:
        series = cat.evaluate(ast, degree, order)
    except EngineError as exc:
        return _fail("evaluation error: %s: %s" % (type(exc).__name__, exc), 3)
    if config.format == "json":
        doc = {
            "expr": print_expr(ast),
            "degree": degree,
            "order": order,
            "validity": series.validity,
            "terms": [
                {"monomial": mono.render(), "coeff": str(coeff)}
                for mono, coeff in series.sorted_terms()
            ],
        }
        _emit(json.dumps(doc, indent=2), config)
    else:
        _emit("%s\nvalidity: %d" % (series.render(), series.validity), config)
    return 0


def _cmd_verify(args, config: RunConfig) -> int:
    try:
        lhs, rhs = parse_identity(args.identity)
    except ParseError as exc:
        return _fail("parse error: %s" % exc, 2)
    try:
        order = _resolve_order(config.order, lhs, rhs)
    except ValueError as exc:
        return _fail(str(exc), 2)
    identity = cat.Identity("user", lhs, rhs, order, "user-supplied identity")
    report = cat.verify_identity(identity, config.effective_degree)
    if config.format == "json":
        _emit(json.dumps(report.to_dict(), indent=2), config)
    else:
        _emit(_report_line(report), config)
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


def _cmd_catalog(args, config: RunConfig) -> int:
    run_all = not args.names or "all" in args.names
    try:
        if run_all:
            identities = cat.builtin_catalog()
        else:
            identities = [cat.get_identity(name) for name in args.names]
    except UnknownIdentityName as exc:
        return _fail(str(exc), 2)
    identities = sorted(identities, key=lambda ident: ident.name)

    def degree_for(ident: cat.Identity) -> int:
        return config.degree if config.degree is not None else ident.default_degree

    reports = [cat.verify_identity(ident, degree_for(ident)) for ident in identities]

    if config.format == "json":
        doc = {
            "reports": [r.to_dict() for r in reports],
            "summary": cat.summarize(reports),
        }
        _emit(json.dumps(doc, indent=2), config)
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
        _emit("\n".join(lines), config)
    return 0 if all(r.status == "verified" for r in reports) else 1


def _cmd_dissect(args, config: RunConfig) -> int:
    degree = config.effective_degree
    if args.m < 1:
        return _fail("modulus m must be >= 1, got %d" % args.m, 2)
    if args.k is not None and not 0 <= args.k < args.m:
        return _fail("residue k=%d out of range [0, %d)" % (args.k, args.m), 2)
    residues = [args.k] if args.k is not None else list(range(args.m))

    def run(k: int) -> dict:
        spec = DissectionSpec(args.m, k)
        entry: dict = {"k": k}
        if args.mode in ("filter", "both"):
            entry["filter"] = dissect_filter(spec, degree)
        if args.mode in ("closed", "both"):
            entry["closed"] = dissect_closed(spec, degree)
        if args.mode == "both":
            entry["mismatch"] = entry["filter"].first_mismatch(entry["closed"], degree)
        return entry

    entries = [run(k) for k in residues]

    all_agree = all(entry.get("mismatch") is None for entry in entries)
    if config.format == "json":
        doc_entries = []
        for entry in entries:
            item: dict = {"k": entry["k"]}
            if "filter" in entry:
                item["filter"] = entry["filter"].render()
            if "closed" in entry:
                item["closed"] = entry["closed"].render()
            if args.mode == "both":
                item["agree"] = entry["mismatch"] is None
                if entry["mismatch"] is not None:
                    mm = entry["mismatch"]
                    item["mismatch"] = {
                        "monomial": mm.monomial.render(),
                        "filter": str(mm.left),
                        "closed": str(mm.right),
                    }
            doc_entries.append(item)
        doc = {"m": args.m, "degree": degree, "mode": args.mode, "entries": doc_entries}
        if args.mode == "both":
            doc["all_agree"] = all_agree
        _emit(json.dumps(doc, indent=2), config)
    else:
        lines = []
        for entry in entries:
            tag = "m=%d k=%d" % (args.m, entry["k"])
            if "filter" in entry:
                lines.append("%s filter: %s" % (tag, entry["filter"].render()))
            if "closed" in entry:
                lines.append("%s closed: %s" % (tag, entry["closed"].render()))
            if args.mode == "both":
                if entry["mismatch"] is None:
                    lines.append("%s: agree" % tag)
                else:
                    mm = entry["mismatch"]
                    lines.append("%s: disagree at %s (filter %s, closed %s)"
                                 % (tag, mm.monomial.render(), mm.left, mm.right))
        if args.mode == "both":
            lines.append("all agree" if all_agree else "disagreement found")
        _emit("\n".join(lines), config)
    if args.mode == "both":
        return 0 if all_agree else 1
    return 0


_COMMANDS = {
    "expand": _cmd_expand,
    "verify": _cmd_verify,
    "catalog": _cmd_catalog,
    "dissect": _cmd_dissect,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from(args)
    except ValueError as exc:
        return _fail(str(exc), 2)
    try:
        return _COMMANDS[args.command](args, config)
    except OSError as exc:  # writing the result is the only I/O a command does
        return _fail("cannot write output: %s" % exc, 2)


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
