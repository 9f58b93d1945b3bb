"""Spans around the public functions of each layer, for the traced run only.

`Tracer.install` replaces each function below with a wrapper that opens a
span (name, start, parent) on entry and closes it (end) on return. A span's
self time is its duration minus the durations of its child spans. Spans are
folded into per-name totals as they close rather than kept one by one: the
cyclotomic layer alone opens hundreds of thousands per round. Counters ride
on the same wrappers.

Names imported into other modules (`theta_expand` in catalog and dissect,
the parser and dissection functions in cli) are wrapped where they are
looked up too.
"""
from __future__ import annotations

import time

from thetadissect import catalog, cli, cyclotomic, dissect, exprlang, laurent, theta

_SERIES = laurent.LaurentSeries
_CYCLO = cyclotomic.CycloNum


def _expand_terms(args, result):
    return {"theta.expand.terms": result.term_count}


def _mul_sizes(args, result):
    return {"laurent.mul.pairs": len(args[0].terms) * len(args[1].terms),
            "laurent.mul.terms_out": result.term_count}


# (span name, [(owner, attribute), ...], counter or None)
TARGETS = [
    ("cli.main", [(cli, "main")], None),
    ("exprlang.parse", [(exprlang, "parse_expr"), (exprlang, "parse_identity"),
                        (cli, "parse_expr"), (cli, "parse_identity")], None),
    ("catalog.evaluate", [(catalog, "evaluate")], None),
    ("catalog.fold", [(catalog, "fold_scaled_monomial")], None),
    ("catalog.builtin", [(catalog, "builtin_catalog")], None),
    ("theta.expand", [(theta, "theta_expand"), (catalog, "theta_expand"),
                      (dissect, "theta_expand")], _expand_terms),
    ("theta.pochhammer", [(theta, "pochhammer_expand")], None),
    ("theta.triple", [(theta, "triple_product_rhs")], None),
    ("dissect.filter", [(dissect, "dissect_filter"), (cli, "dissect_filter")], None),
    ("dissect.closed", [(dissect, "dissect_closed"), (cli, "dissect_closed")], None),
    ("laurent.add", [(_SERIES, "__add__")], None),
    ("laurent.mul", [(_SERIES, "__mul__")], _mul_sizes),
    ("laurent.scale", [(_SERIES, "scale")], None),
    ("laurent.map", [(_SERIES, "map_coeffs")], None),
    ("laurent.specialize", [(_SERIES, "specialize_q")], None),
    ("laurent.compare", [(_SERIES, "first_mismatch")], None),
    ("laurent.render", [(_SERIES, "render")], None),
    ("cyclotomic.mul", [(_CYCLO, "__mul__"), (_CYCLO, "__rmul__")], None),
    ("cyclotomic.pow", [(_CYCLO, "__pow__")], None),
    ("cyclotomic.add", [(_CYCLO, "__add__")], None),
    ("cyclotomic.embed", [(_CYCLO, "embed")], None),
    ("cyclotomic.conjugate", [(_CYCLO, "conjugate")], None),
]

# The per-layer metrics, in the order BENCHMARK.json lists them.
CALL_COUNTS = ["exprlang.parse", "catalog.evaluate", "catalog.fold", "catalog.builtin",
               "theta.expand", "laurent.add", "laurent.mul", "cyclotomic.mul",
               "cyclotomic.pow", "cyclotomic.add", "cyclotomic.embed", "cyclotomic.conjugate"]
SELF_TIMES = ["cli.main", "exprlang.parse", "catalog.evaluate", "catalog.fold",
              "catalog.builtin", "theta.expand", "theta.pochhammer", "theta.triple",
              "dissect.filter", "dissect.closed", "laurent.add", "laurent.mul",
              "laurent.scale", "laurent.map", "laurent.specialize", "laurent.compare",
              "laurent.render", "cyclotomic.mul", "cyclotomic.pow"]
COUNTERS = ["theta.expand.terms", "laurent.mul.pairs", "laurent.mul.terms_out"]


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name, _, _ in TARGETS}
        self.self_s = {name: 0.0 for name, _, _ in TARGETS}
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[list] = []  # open spans: [name, start, child seconds]
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        stack, calls, self_s, counters = self._stack, self.calls, self.self_s, self.counters
        clock = time.process_time  # CPU time, as the end-to-end metrics use

        def span(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if counter is not None:
                for key, value in counter(args, result).items():
                    counters[key] += value
            return result

        return span

    def install(self) -> None:
        for name, places, counter in TARGETS:
            for owner, attr in places:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
