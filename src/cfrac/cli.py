"""Command-line surface: convergent tables, certified digits, certificates.

Subcommands: ``convergents``, ``digits``, ``certify``, ``verify``.  Data goes
to stdout (or ``--out FILE``, rewritten in place and truncated to the new
length when it is a regular file; the write is neither atomic nor synced,
see ``_emit``); diagnostics go to stderr.  Exit codes: 0 on
success; 1 on every refusal (a ``DomainError``: bad x/y, digit cap, depth
over budget), on failed verification and on an ``--out`` that cannot be
written (a directory, or a file in a missing directory); 2 on usage errors
(unknown flags, missing arguments, malformed or unreadable certificate
files).  ``run`` is the only code that turns a failure into an exit code and
an ``error:`` line.  The parser is built once per process (``build_parser``)
and shared by every ``run`` call; ``run`` looks up the handler
``cmd_<command>`` by the parsed command name when the request arrives.

Decimal rendering of results lives here; the library underneath never
leaves exact rational arithmetic.  Digit strings are truncated, not rounded:
truncated digits are certifiable directly from a two-sided bound.  Each
refinement round of ``digits`` pins them from the value a/b and the bound
c/(b d) of its enclosure, with one division a s // b at the scale s and three
leading-bit product comparisons (``certified_digits``); an interval that
straddles a truncation boundary simply forces the next round.

str() of an int is quadratic in its length, and CPython refuses it past
``sys.get_int_max_str_digits()`` digits.  Digits and certificate integers are
rendered (``core._decimal``) and parsed (``core._integer``) in chunks below
the smallest limit the interpreter accepts, so they print at any size.
Convergent tables are walked in base-10 integers (``decimal.Decimal`` under an exact context), which
print in linear time; a row that would print an integer past the
interpreter's limit fails as str() of that integer would.  Each row is also
built in time linear in its digits (``_convergent_rows``, a ``zip`` of the
states of ``core._walk`` with the terms that made them).  The gap
denominator k_n k_{n-1} is not a full-size product: it comes from a
recurrence of at most four products per row, each by a term-sized
multiplier other than 1.  A tanh row with |D_n| > 1 finds the common
factor of its gap from the parts of k_n and k_{n-1} made of primes of x, so
it divides full-size integers only by numbers of that factor's size.  Once
two rows print the same 20-digit preview, every later row prints it too, so
no later row divides for it.  The rows are written by one format per table,
text or JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from collections.abc import Callable
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_DOWN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    localcontext,
)
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import gcd, lcm

from . import __version__
from .core import DEPTH_CAP, _compare_products, _decimal, _integer, _integer_terms, _walk
from .errors import (
    CertificateFormatError,
    DepthCapError,
    DomainError,
)
from .expansions import certified_enclosures, e_simple_cf, tanh_integer_cf
from .irrationality import (
    VERDICT_IRRATIONAL,
    VERDICT_NOT_APPLICABLE,
    IrrationalityCertificate,
    certify_irrational,
    verify_certificate,
)

MAX_DIGITS = 10_000

#: Canonical certificate schema: (JSON key, certificate attribute) for the
#: integer fields, written as decimal strings so consumers without big integers
#: cannot silently overflow, then the verdict and the engine version.
_CERTIFICATE_INTEGERS = (
    ("x", "x"),
    ("y", "y"),
    ("reducedX", "reduced_x"),
    ("reducedY", "reduced_y"),
    ("tailIndex", "tail_index"),
    ("checkedPrefixDepth", "checked_prefix_depth"),
    ("thresholdIndex", "threshold_index"),
)
CERTIFICATE_KEYS = (*(key for key, _ in _CERTIFICATE_INTEGERS), "verdict", "engineVersion")

PREVIEW_DIGITS = 20

#: Integer arithmetic in base 10 without rounding: any result that would be
#: rounded raises instead.  Used only through ``localcontext``, which copies it.
_EXACT = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, InvalidOperation, DivisionByZero]
)


def decimal_preview(h, k, sig: int = PREVIEW_DIGITS) -> str:
    """h/k truncated to ``sig`` significant digits.  Display only.

    h and k > 0 are ints or integer-valued Decimals.  The division is
    correctly rounded toward zero at ``sig`` digits, so its digits are those
    of the exact quotient; an integer part longer than that is printed whole.
    Each call builds its own context: a table makes few calls (24 for e to
    depth 2000), as a row reuses a preview once two rows print the same one.
    """
    if h == 0:
        return "0"
    quotient = Context(prec=sig, rounding=ROUND_DOWN).divide(h, k)
    places = sig - 1 - quotient.adjusted()
    if places < 0:
        with localcontext(_EXACT):
            return str(Decimal(h) // k)
    return f"{quotient:.{places}f}"


def _pinned(a: int, b: int, c: int, d: int, scale: int) -> int | None:
    """floor(v scale), shared by every v within c/(b d) of a/b, if positive and shared.

    b, d > 0 and c >= 0.  With q, r = divmod(a scale, b), u = r/b in [0, 1)
    and e = c scale/(b d) >= 0, the interval scaled by ``scale`` is q + u -+ e,
    so its ends have one floor iff floor(u - e) == floor(u + e).  That holds
    iff both are 0: u + e >= 0 keeps the upper floor at 0 or more, and
    u - e <= u < 1 keeps the lower one at 0 or less.  So the floor is q
    exactly when the lower end is positive (a d > c), u >= e (r d >= c scale)
    and u + e < 1 ((b - r) d > c scale), and None otherwise.  The three tests
    are leading-bit comparisons (``_compare_products``); a scale // b is the
    one full-size operation, and its quotient has about as many digits as
    the output.
    """
    q, r = divmod(a * scale, b)
    if (
        _compare_products((a, d), (c,)) > 0
        and _compare_products((r, d), (c, scale)) >= 0
        and _compare_products((b - r, d), (c, scale)) > 0
    ):
        return q
    return None


def certified_digits(expr: str, x: int, y: int, digits: int) -> tuple[str, str, int]:
    """Truncated decimal digits of e^(x/y) or tanh(x/y), all guaranteed.

    The evaluation tolerance starts at 10^-(digits+2) and is divided by 10^4
    until the certified interval [value - bound, value + bound] truncates to
    a single digit string (``_pinned``), so every emitted digit is a correct
    digit of the true value.  One walk of the expansion is resumed across
    these rounds, and each round stops at the depth a fresh evaluation at
    its tolerance would.  The rounds end: tanh(x/y) and e^(x/y) are
    irrational for rational x/y != 0 (``irrationality``), so the value never
    sits on a truncation boundary, and the bound shrinks to 0; e^0 = 1 is
    exact.  DEPTH_CAP terms bound the walk.  Returns the integer part, the
    ``digits`` fractional digits and the expansion depth that pinned them.
    """
    if not 1 <= digits <= MAX_DIGITS:
        raise DomainError(f"digits must be between 1 and {MAX_DIGITS}")
    scale = 10**digits
    tolerances = (Fraction(1, 10 ** (digits + 2 + 4 * r)) for r in count())
    for a, b, c, d, depth in certified_enclosures(expr, x, y, tolerances):
        pinned = _pinned(a, b, c, d, scale)
        if pinned is not None:
            text = _decimal(pinned).rjust(digits + 1, "0")
            return text[:-digits], text[-digits:], depth


#: A certificate as ``json.dumps(payload, indent=2)`` writes it, keys in the
#: order of CERTIFICATE_KEYS.  The integers are ``_decimal`` strings, made of
#: "-" and 0-9, and the version is a constant that needs no escaping either
#: (a test checks it), so both go in as they are; only the verdict goes
#: through json.
_CERTIFICATE_JSON = (
    "{\n"
    + "".join(f'  "{key}": "%({attr})s",\n' for key, attr in _CERTIFICATE_INTEGERS)
    + f'  "verdict": %(verdict)s,\n  "engineVersion": "{__version__}"\n}}\n'
)


def certificate_to_json(cert: IrrationalityCertificate) -> str:
    fields = {attr: _decimal(getattr(cert, attr)) for _, attr in _CERTIFICATE_INTEGERS}
    return _CERTIFICATE_JSON % {**fields, "verdict": json.dumps(cert.verdict)}


def certificate_from_json(text: str) -> IrrationalityCertificate:
    """Parse a serialized certificate, rejecting anything off-schema."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    missing = set(CERTIFICATE_KEYS) - payload.keys()
    if missing:
        raise CertificateFormatError(f"missing fields: {sorted(missing)}")
    unknown = payload.keys() - set(CERTIFICATE_KEYS)
    if unknown:
        raise CertificateFormatError(f"unknown fields: {sorted(unknown)}")

    def _int(key: str) -> int:
        # Only what ``_decimal`` writes: 0, or an optional "-" and ASCII
        # digits without a leading zero.
        value = payload[key]
        if not isinstance(value, str):
            raise CertificateFormatError(f"{key} must be a decimal string")
        digits = value.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()) or (digits[0] == "0" and value != "0"):
            raise CertificateFormatError(f"{key} is not an integer: {value!r}")
        return -_integer(digits) if value.startswith("-") else _integer(digits)

    verdict = payload["verdict"]
    if verdict not in (VERDICT_IRRATIONAL, VERDICT_NOT_APPLICABLE):
        raise CertificateFormatError(f"unknown verdict: {verdict!r}")
    if not isinstance(payload["engineVersion"], str):
        raise CertificateFormatError("engineVersion must be a string")
    integers = {attr: _int(key) for key, attr in _CERTIFICATE_INTEGERS}
    return IrrationalityCertificate(**integers, verdict=verdict)


def certificate_to_text(cert: IrrationalityCertificate) -> str:
    n = {attr: _decimal(getattr(cert, attr)) for _, attr in _CERTIFICATE_INTEGERS}
    lines = [
        f"x/y: {n['x']}/{n['y']} (reduced: {n['reduced_x']}/{n['reduced_y']})",
        f"verdict: {cert.verdict}",
    ]
    if cert.verdict == VERDICT_IRRATIONAL:
        lines += [
            f"tail index: {n['tail_index']}",
            f"threshold index: {n['threshold_index']}",
            f"checked prefix depth: {n['checked_prefix_depth']}",
        ]
    lines.append(f"statement: {cert.statement()}")
    return "\n".join(lines) + "\n"


def _emit(args, render_json: Callable[[], str], render_text: Callable[[], str]) -> int:
    """Render only the format ``--format`` asks for; write it to ``--out`` or stdout.

    ``--out`` is rewritten in place: opened without truncation, written from
    its start, then truncated at the end of the new text if it is a regular
    file (a device such as /dev/null cannot be truncated).  A truncation to
    zero would make ext4 start writeback of the file on close, the largest
    single cost of a certificate request.  The write is neither
    atomic nor synced: a crash can leave the old bytes, the new ones, or the
    old ones cut to the new length, which ``verify`` refuses as malformed.
    """
    text = render_json() if args.format == "json" else render_text()
    if args.out:
        with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as f:
            f.write(text)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
    else:
        sys.stdout.write(text)
    return 0


def _row_text(n: Decimal, limit: int) -> str:
    """An integer-valued Decimal in decimal digits, under the int-str limit ``limit``.

    str() of a Decimal takes linear time and never checks the limit, so a
    number past it goes through str(int(n)) to raise the interpreter's own
    ValueError, as a table of ints would.  ``limit`` is
    ``sys.get_int_max_str_digits()``, read once per table.
    """
    text = str(n)
    if limit and len(text) > limit:
        str(int(n))
    return text


def _smooth_part(n, beta: int, e: int) -> tuple[int, int]:
    """The beta-smooth part of n > 0, and the exponent E that found it, trying E = e first.

    n is an int, or an integer-valued Decimal under ``_EXACT``; beta >= 1 and
    e >= 1.  w = gcd(n mod beta^E, beta^E) = gcd(n, beta^E) holds each prime
    p of beta to min(v_p(n), E v_p(beta)).  If w divides beta^(E-1), no
    prime reached its cap E v_p(beta), so w holds every prime of beta to
    v_p(n): w is the whole smooth part.  Otherwise E doubles.  The one
    operation on n is a remainder by beta^E.
    """
    while True:
        cap = beta**e
        w = gcd(int(n % cap), cap)
        if (cap // beta) % w == 0:
            return w, e
        e *= 2


def _convergent_rows(cf, depth: int) -> list[dict]:
    """Rows n = 1..depth: h_n/k_n and the gap P_n/(k_n k_{n-1}) in lowest terms.

    ``cf`` has positive terms, as e and tanh(x/y) with x, y >= 1 do.  A row
    pays only for the digits it prints: every full-size operation is a sum,
    a product, quotient or remainder by a short number, or str().

    ``core._walk`` runs in Decimal integers in an exact context, so every
    row prints in time linear in its digits, and the gap denominator
    Q_n = k_n k_{n-1} is not formed as a full-size product either.  With
    S_n = k_n^2, k_n = a_n k_{n-1} + b_n k_{n-2} and t = b_n Q_{n-1}:

        Q_n = a_n k_{n-1}^2 + b_n k_{n-1} k_{n-2} = a_n S_{n-1} + t
        S_n = k_n (a_n k_{n-1} + b_n k_{n-2})
            = a_n Q_n + b_n (a_n Q_{n-1} + b_n S_{n-2}) = a_n (Q_n + t) + b_n^2 S_{n-2}

    from k_{-1} = 0 and k_0 = c_0, that is S_{-1} = 0, S_0 = c_0^2 and
    Q_0 = 0.  That is four full-size products per row: by b_n in t, by a_n
    twice and by b_n^2.  A product whose multiplier is 1 is skipped, as in
    ``core._walk``.  The terms come from a second ``_integer_terms(cf)``,
    zipped with the walk's states, so every multiplier is term-sized.  The
    zip pulls the state first: a table of ``depth`` rows never asks for term
    depth + 1.

    Reduction.  By the determinant identity a common divisor of h_n and k_n
    divides P_n, and so does one of P_n and Q_n: a row with P_n = 1 is in
    lowest terms as it stands.  Every prime of P_n = c_0 b_1 ... b_n divides
    beta = lcm(c_0, b_1, ..., b_n), so g = gcd(P_n, Q_n) is gcd(P_n, w w'),
    that is gcd(w w', P_n mod w w'), with w and w' the beta-smooth parts of
    k_n and k_{n-1} (``_smooth_part``, whose exponent carries from row to
    row).  w becomes the next row's w', and w' is found afresh when beta
    changes.  The gap is divided by g, and h_n and k_n by
    gcd(g, h_n mod g, k_n mod g), since their common divisors divide
    gcd(P_n, k_n), which divides g.  P_n and Q_n are carried unreduced.

    Settled previews.  c_n = (a_n k_{n-1} c_{n-1} + b_n k_{n-2} c_{n-2})/k_n
    is a weighted mean of c_{n-1} and c_{n-2} with positive weights, so it
    lies between them, and so does every later convergent.  The preview
    (``decimal_preview``) is a non-decreasing function of h/k, its truncation
    toward zero, and its string names that value.  So once rows n-1 and n-2
    print the same preview, every later row prints it too, and no later row
    divides.
    """
    rows = []
    limit = sys.get_int_max_str_digits()
    c_0 = cf.leading.denominator
    s_2, s_1, q_1 = Decimal(0), Decimal(c_0 * c_0), Decimal(0)  # S_{n-2}, S_{n-1}, Q_{n-1}
    beta, e, w_prev = c_0, 1, None
    last = settled = None  # the previous row's preview; the preview of every later row
    with localcontext(_EXACT):
        states = islice(_walk(cf, num=Decimal), 1, depth + 1)
        for (n, _, h, k_prev, k, p), (a, b) in zip(states, _integer_terms(cf)):
            t = q_1 if b == 1 else b * q_1
            den = (s_1 if a == 1 else a * s_1) + t
            s = den + t
            s_2, s_1, q_1 = s_1, (s if a == 1 else a * s) + (s_2 if b == 1 else b * b * s_2), den
            if beta % b:
                beta, w_prev = lcm(beta, b), None
            if beta > 1:
                if w_prev is None:
                    w_prev, e = _smooth_part(k_prev, beta, e)
                w, e = _smooth_part(k, beta, e)
                smooth, w_prev = w * w_prev, w
                g = gcd(smooth, int(p % smooth))
                if g > 1:
                    p, den = p // g, den // g
                    g = gcd(g, int(h % g), int(k % g))
                    h, k = h // g, k // g
            gap = _row_text(p, limit)
            if den != 1:
                gap = f"{gap}/{_row_text(den, limit)}"
            value = settled or decimal_preview(h, k)
            if value == last:
                settled = value
            last = value
            rows.append(
                {
                    "index": n,
                    "h": _row_text(h, limit),
                    "k": _row_text(k, limit),
                    "value": value,
                    "gap": gap,
                }
            )
    return rows


#: The keys of a table row in column order, each with its text header.
_TABLE_COLUMNS = {"index": "n", "h": "h", "k": "k", "value": "value", "gap": "gap"}


def _render_rows(rows: list[dict]) -> str:
    """The text table: columns two spaces apart, each padded to its widest cell but the last."""
    *padded, last = _TABLE_COLUMNS
    widths = (max(len(_TABLE_COLUMNS[c]), *(len(str(row[c])) for row in rows)) for c in padded)
    line = "".join(f"%({c})-{w}s  " for c, w in zip(padded, widths)) + f"%({last})s\n"
    return "".join(line % row for row in (_TABLE_COLUMNS, *rows))


#: One row of a JSON table, as ``json.dumps(payload, indent=2)`` writes it.
#: Every value is made of the characters 0-9, "/", "." and "-", which json
#: writes as they are, so the values go into the template unescaped.
_JSON_ROW = """\
    {
      "index": %(index)s,
      "h": "%(h)s",
      "k": "%(k)s",
      "value": "%(value)s",
      "gap": "%(gap)s"
    }"""


def _table_json(args, rows: list[dict]) -> str:
    """The table as ``json.dumps(payload, indent=2) + "\\n"`` writes it, in its key order."""
    tail = f',\n  "x": "{args.x}",\n  "y": "{args.y}"' if args.expansion == "tanh" else ""
    body = ",\n".join(_JSON_ROW % row for row in rows)
    return (
        f'{{\n  "expansion": "{args.expansion}",\n  "depth": {args.depth},\n'
        f'  "convergents": [\n{body}\n  ]{tail}\n}}\n'
    )


def cmd_convergents(args) -> int:
    if args.expansion == "tanh":
        if args.x is None or args.y is None:
            args.parser.error("--expansion tanh requires --x and --y")
        cf = tanh_integer_cf(args.x, args.y)
    else:
        if args.x is not None or args.y is not None:
            args.parser.error("--expansion e takes no --x or --y")
        cf = e_simple_cf()
    if args.depth < 1:
        raise DomainError("depth must be >= 1")
    rows = _convergent_rows(cf, args.depth)
    return _emit(args, lambda: _table_json(args, rows), lambda: _render_rows(rows))


def cmd_digits(args) -> int:
    integer_part, fractional_part, depth = certified_digits(args.expr, args.x, args.y, args.digits)
    payload = {
        "expr": args.expr,
        "x": str(args.x),
        "y": str(args.y),
        "value": f"{integer_part}.{fractional_part}",
        "sign": "+",
        "integerPart": integer_part,
        "fractionalPart": fractional_part,
        "guaranteedDigits": args.digits,
        "cfDepth": depth,
    }
    text = "{value}\nguaranteed digits: {guaranteedDigits}\nexpansion depth: {cfDepth}\n"
    return _emit(args, lambda: json.dumps(payload, indent=2) + "\n", lambda: text.format_map(payload))


def cmd_certify(args) -> int:
    cert = certify_irrational(args.x, args.y)
    return _emit(args, lambda: certificate_to_json(cert), lambda: certificate_to_text(cert))


def cmd_verify(args) -> int:
    try:
        with open(args.certificate, encoding="utf-8") as f:
            raw = f.read()
    except OSError as exc:
        raise CertificateFormatError(f"cannot read certificate: {exc}") from exc
    cert = certificate_from_json(raw)
    outcome = verify_certificate(cert, args.depth)
    if outcome:
        depth = cert.checked_prefix_depth if args.depth is None else args.depth
        print(f"certificate verified to depth {_decimal(depth)}: {cert.statement()}")
        return 0
    print(f"verification failed: {outcome.reason}", file=sys.stderr)
    if outcome.failed_index is not None:
        print(f"violated index: {_decimal(outcome.failed_index)}", file=sys.stderr)
    return 1


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``cfrac`` argument parser, built on the first call and shared after it.

    Every later call in the process returns the same parser, so callers
    must not mutate it.  Parsing leaves it as it was: ``parse_args`` returns
    a fresh namespace, and help text is formatted when it is printed.  Each
    subcommand's namespace holds its own subparser as ``parser``, for
    ``parser.error``, and no handler: ``run`` looks that up by name.
    """
    parser = argparse.ArgumentParser(
        prog="cfrac",
        description="Exact continued fractions: convergents, certified digits, irrationality certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convergents", help="table of exact convergents")
    p.add_argument("--expansion", choices=("e", "tanh"), required=True)
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(parser=p)

    p = sub.add_parser("digits", help="certified decimal digits of exp(x/y) or tanh(x/y)")
    p.add_argument("--expr", choices=("exp", "tanh"), required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--digits", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(parser=p)

    p = sub.add_parser("certify", help="emit an irrationality certificate for tanh(x/y) and e^(x/y)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(parser=p)

    p = sub.add_parser("verify", help="re-check a certificate file")
    p.add_argument("certificate", help="path to a JSON certificate")
    p.add_argument(
        "--depth", type=int, help=f"also rescan every term up to this depth (at most {DEPTH_CAP})"
    )
    p.set_defaults(parser=p)

    return parser


def run(argv=None) -> int:
    """Dispatch a command line; returns the exit code instead of exiting.

    Parses with the parser ``build_parser`` built once for the process, then
    calls the module's ``cmd_<command>`` as it stands at call time.  The only
    code that turns a failure into an exit code.  argparse's own exits keep
    their code.  A refusal (any ``DomainError``), a depth cap, a division by
    zero or an I/O error, such as an ``--out`` that cannot be written, prints
    ``error: <message>`` and exits 1; any other ValueError, such as a
    malformed or unreadable certificate, exits 2.
    """
    try:
        args = build_parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DomainError, DepthCapError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
