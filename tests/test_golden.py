"""CLI outputs against golden files in tests/golden/: the stdout, stderr and
exit code of catalog, dissect, expand and verify stay byte-identical, apart
from the `millis` timings, which are masked.

The files hold what the code printed when they were written. After an
intended change of output, write them again from the source tree under test
and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import os
import re

import pytest

from thetadissect import cli

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_CATALOG_NAMES = (
    "entry30_ii entry30_iii entry25_i entry25_ii entry7 entry9a entry9b remark_re "
    "remark_re_parts remark_im remark_im_parts remark_q_re remark_q_im thm_m2 thm_m3 "
    "thm_m4 thm_m5 thm_m6 thm_m7 thm_m8"
).split()

# rational, zeta, Re/Im, specq and negative-exponent terms
_EXPANSIONS = {
    "rational": ("3/2*f(a,b) - 1/3*f(a^2,b)", 14),
    "rational-power": ("(2/3*f(a,b))^3", 10),
    "zeta5": ("f(zeta(5,2)*a, zeta(5,3)*b)", 16),
    "omega": ("(1 - omega)*f(omega*a, b)", 14),
    "scaled-zeta12": ("f(-3/2*zeta(12,5)*a, 2*b)", 12),
    "mixed-coefficient": ("(1 + i)*1/2*f(a, i*b)", 12),
    "re": ("Re(f(i*a, b))", 16),
    "im": ("Im(f(zeta(8,1)*a, 1/2*b))", 12),
    "specq": ("specq(f(a,b)^2)", 30),
    "specq-zeta3": ("specq(f(zeta(3,1)*a, b))", 30),
    "negative-exponent": ("f(a^-1*b^2, a^2)", 16),
    "negative-power": ("a^-2*f(a,b)^2", 12),
}

CASES = {"catalog-" + name: ["catalog", name, "--degree", "24"] for name in _CATALOG_NAMES}
CASES.update({"dissect-m%d" % m: ["dissect", "--m", str(m), "--degree", "20", "--format", "json"]
              for m in range(1, 9)})
# one path at a time: a single class of the closed form in text, and every
# class of the filter in JSON
CASES.update({
    "dissect-m12-k7-closed-text": [
        "dissect", "--m", "12", "--k", "7", "--mode", "closed", "--degree", "60"],
    "dissect-m5-filter": [
        "dissect", "--m", "5", "--mode", "filter", "--degree", "30", "--format", "json"],
})
CASES.update({"expand-" + name: ["expand", expr, "--degree", str(degree), "--format", "json"]
              for name, (expr, degree) in _EXPANSIONS.items()})
CASES.update({
    "expand-negated-text": ["expand", "-f(a,b)", "--degree", "6"],
    "verify-verified": ["verify", "f(a,b) = f(b,a)", "--degree", "12", "--format", "json"],
    "verify-failed": ["verify", "f(i*a, b) = f(a, i*b)", "--degree", "8", "--format", "json"],
})

# text reports through the series renderer: several basis terms at the
# constant monomial, entries over one denominator that reduce apart, negative
# single roots at 1 and times monomials, Re/Im at orders 8 and 24 with
# rational ratios, and failed verifications with a zero on either side
_TEXT_EXPANSIONS = {
    "constant-multiterm": ("(1 + i)*1/2*f(a, i*b)", 6),
    "one-denominator": ("(1/2 + 3/4*zeta(8,1))*f(a,-b)", 8),
    "negative-roots": ("f(zeta(12,7)*a^-1*b^2, -3/2*zeta(12,5)*a^2)", 10),
    "negative-root-constant": ("-zeta(5,2)*f(a, zeta(5,1)*b)", 8),
    "re8": ("Re(f(2/3*zeta(8,3)*a, 5/2*b))", 8),
    "im8": ("Im(f(2/3*zeta(8,1)*a, 1/2*b))", 8),
    "re24": ("Re(f(3*zeta(24,5)*a, 1/2*zeta(24,2)*b))", 6),
    "im24": ("Im(f(3*zeta(24,5)*a, 1/2*zeta(24,2)*b))", 6),
}
CASES.update({"expand-text-" + name: ["expand", expr, "--degree", str(degree)]
              for name, (expr, degree) in _TEXT_EXPANSIONS.items()})
CASES.update({
    "verify-failed-text": ["verify", "f(i*a, b) = f(a, i*b)", "--degree", "8"],
    "verify-failed-text-zero-rhs": ["verify", "f(i*a,b) + i*a^5 = f(i*a,b)", "--degree", "8"],
    "verify-failed-text-zero-lhs": [
        "verify", "f(i*a,b) = f(i*a,b) + (1/2 - 3/4*zeta(8,3))*a^-1*b^2", "--degree", "8"],
})

# Re/Im as series identities: parts where every term cancels, a rational times
# a root at order 12, a negative-exponent monomial factor, a working order
# above the one required, and Re + i*Im recombining the operand
CASES.update({
    "expand-text-im-real-operand": ["expand", "Im(f(a,b))", "--degree", "10"],
    "expand-text-re-imaginary-operand": ["expand", "Re(i*f(a,b))", "--degree", "10"],
    "expand-text-im-third-zeta12": ["expand", "Im(1/3*zeta(12,5)*f(a,-b))", "--degree", "8"],
    "expand-re-zeta8-negative-exponent": [
        "expand", "Re(zeta(8,3)*a^-1*f(a^2,b))", "--degree", "10", "--format", "json"],
    "expand-text-re-order24": ["expand", "zeta(24,0)*Re(f(i*a, i*b))", "--degree", "10"],
    "verify-re-im-recombine": [
        "verify", "Re(f(i*a, i*b)) + i*Im(f(i*a, i*b)) = f(i*a, i*b)", "--degree", "16"],
})

# evaluation's product rule at its edges: a negation inside a product, a
# negated power of a series, powers of a negated series and of zero, zero
# factors, and the nodes that stop a theta argument or a negative power. The
# two verify calls are true identities refused with ValidityExceeded, because
# a monomial factor below degree 0 lowers the bound the comparison needs
_PRODUCT_RULE = {
    "negated-factor": "2*-f(a,b)*a",
    "negated-power": "-(a+b)^2*f(a,b)",
    "zero-factor": "0*f(a,b)",
    "zero-power-factor": "f(a,b)*0^2",
    "series-power-zero": "(a+b)^0",
    "negated-negative-exponents": "-(a^-1 - b^-1)*f(a,b)",
    "zero-negative-power": "0^-1",
    "series-negative-power": "(a+b)^-1",
    "sum-argument": "f((a+b)^2, b)",
    "zero-argument": "f(0^2, b)",
}
CASES.update({"expand-product-" + name: ["expand", expr, "--degree", "6"]
              for name, expr in _PRODUCT_RULE.items()})
CASES.update({
    "expand-product-power-of-negated": [
        "expand", "(-f(a,b))^2", "--degree", "6", "--format", "json"],
    "verify-error-negative-monomial-factor": [
        "verify", "a^-1*f(a,b) = a^-1*f(a,b)", "--degree", "5"],
    "verify-error-negative-monomial-sum-factor": [
        "verify", "(a^-3+1)*(f(a,b)-1) = 0", "--degree", "0"],
})

_MILLIS = re.compile(r'"millis": [-+.0-9eE]+')


def run(argv) -> str:
    """Exit code and stdout of one CLI call, millis masked, then stderr after
    a `stderr:` line when there is any."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = "exit %d\n%s" % (code, _MILLIS.sub('"millis": "*"', out.getvalue()))
    if err.getvalue():
        text += "stderr:\n" + err.getvalue()
    return text


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name + ".out")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    with open(golden_path(name)) as handle:
        expected = handle.read()
    assert run(CASES[name]) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        with open(golden_path(name), "w") as handle:
            handle.write(run(argv))
    print("wrote %d cases to %s" % (len(CASES), GOLDEN_DIR))
