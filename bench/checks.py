"""Output checks that share no code with cfrac.

Each checker gets the request and what the CLI produced and returns ``None``
for a correct output or a one-line reason.  They run outside the timed
region.  None of them raises the interpreter's int<->str digit limit, so a
request that only works with the limit lifted still fails in the benchmark:
long digit strings are converted in chunks instead.

- digits: ``mpmath`` at extra precision, raised further until the reference
  decides every truncated digit.
- convergents: the last row against a bottom-up fold of the terms, every row
  and every gap against an independent integer recurrence, using the
  determinant identity ``|c_n - c_(n-1)| = |b_1...b_n| / (k_n k_(n-1))``, and
  every preview against its truncation bracket.
- certificates: every field recomputed in closed form with integer
  arithmetic; tampered files must be rejected by ``verify`` with exit 1.
"""

from __future__ import annotations

import json
from math import gcd

#: Largest decimal string converted in one ``int()`` call; CPython refuses
#: more than 4300 digits by default.
_CHUNK = 4000

CERTIFICATE_KEYS = (
    "x",
    "y",
    "reducedX",
    "reducedY",
    "tailIndex",
    "checkedPrefixDepth",
    "thresholdIndex",
    "verdict",
    "engineVersion",
)

PREVIEW_DIGITS = 20


def parse_int(text: str) -> int:
    """Decimal string to int in chunks, whatever its length."""
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("+-")
    if not digits or not digits.isdigit() or not digits.isascii():
        raise ValueError(f"not an integer: {text[:40]!r}")
    value = 0
    for start in range(0, len(digits), _CHUNK):
        chunk = digits[start:start + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def parse_fraction(text: str) -> tuple[int, int]:
    """'p/q' or 'p' to (p, q)."""
    num, _, den = text.partition("/")
    return parse_int(num), parse_int(den) if den else 1


# --- digits -----------------------------------------------------------------

def reference_scaled_floor(expr: str, x: int, y: int, digits: int) -> int:
    """floor(f(x/y) * 10^digits) for f = exp or tanh, from mpmath.

    The working precision is raised until the reference interval no longer
    straddles an integer, so every truncated digit is decided.
    """
    import mpmath

    magnitude = abs(x) // y + 1 if expr == "exp" else 1
    dps = digits + magnitude + 30
    for _ in range(12):
        with mpmath.workdps(dps):
            r = mpmath.mpf(x) / y
            value = mpmath.exp(r) if expr == "exp" else mpmath.tanh(r)
            scaled = value * mpmath.power(10, digits)
            slack = abs(scaled) * mpmath.power(10, -(dps - 10)) + mpmath.power(10, -(dps - 10))
            lo = int(mpmath.floor(scaled - slack))
            hi = int(mpmath.floor(scaled + slack))
        if lo == hi:
            return lo
        dps *= 2
    raise ArithmeticError(f"reference cannot decide {expr}({x}/{y}) to {digits} digits")


def _digit_value(argv) -> tuple[str, int, int, int, str]:
    opts = dict(zip(argv[1::2], argv[2::2]))
    return (opts["--expr"], int(opts["--x"]), int(opts["--y"]),
            int(opts["--digits"]), opts["--format"])


def check_digits(argv, stdout: str) -> str | None:
    expr, x, y, digits, fmt = _digit_value(argv)
    if fmt == "json":
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if payload.get("expr") != expr or payload.get("x") != str(x) or payload.get("y") != str(y):
            return "echoed request fields differ"
        if payload.get("sign") != "+":
            return f"sign {payload.get('sign')!r}"
        integer_part, fractional_part = payload["integerPart"], payload["fractionalPart"]
        if payload.get("value") != f"{integer_part}.{fractional_part}":
            return "value differs from integerPart.fractionalPart"
        guaranteed, depth = payload.get("guaranteedDigits"), payload.get("cfDepth")
    else:
        lines = stdout.split("\n")
        if len(lines) != 4 or lines[3] != "":
            return f"expected 3 lines, got {len(lines) - 1}"
        integer_part, dot, fractional_part = lines[0].partition(".")
        if not dot:
            return "no decimal point"
        prefix_g, prefix_d = "guaranteed digits: ", "expansion depth: "
        if not (lines[1].startswith(prefix_g) and lines[2].startswith(prefix_d)):
            return "missing guaranteed-digits or depth line"
        try:
            guaranteed = int(lines[1][len(prefix_g):])
            depth = int(lines[2][len(prefix_d):])
        except ValueError:
            return "unreadable guaranteed-digits or depth line"
    if guaranteed != digits:
        return f"guaranteed digits {guaranteed}, asked {digits}"
    if not isinstance(depth, int) or depth < 1:
        return f"bad expansion depth {depth!r}"
    if len(fractional_part) != digits:
        return f"{len(fractional_part)} fractional digits, asked {digits}"
    try:
        got = parse_int(integer_part + fractional_part)
    except ValueError as exc:
        return str(exc)
    if got != reference_scaled_floor(expr, x, y, digits):
        return "digits differ from the mpmath reference"
    return None


# --- convergents ------------------------------------------------------------

def expansion_terms(expansion: str, x: int | None, y: int | None, depth: int):
    """(a0, [(a_1, b_1), ..., (a_depth, b_depth)]) for e or tanh(x/y)."""
    if expansion == "e":
        return 2, [(2 * (i + 1) // 3 if i % 3 == 2 else 1, 1) for i in range(1, depth + 1)]
    return 0, [((2 * i - 1) * y, x if i == 1 else x * x) for i in range(1, depth + 1)]


def bottom_up_fold(a0: int, terms) -> tuple[int, int]:
    """a0 + b1/(a1 + b2/(a2 + ... + bn/an)) as an unreduced pair (p, q)."""
    p, q = terms[-1][0], 1
    for i in range(len(terms) - 2, -1, -1):
        a, _ = terms[i]
        b_next = terms[i + 1][1]
        p, q = a * p + b_next * q, p
    b1 = terms[0][1]
    return a0 * p + b1 * q, p


def _preview_ok(preview: str, h: int, k: int) -> bool:
    """``preview`` is h/k truncated to PREVIEW_DIGITS significant digits."""
    whole, _, frac = preview.partition(".")
    digits = (whole + frac).lstrip("0")
    if not (whole + frac).isdigit() or len(digits) != PREVIEW_DIGITS:
        return False
    scaled = int(whole + frac)
    unit = 10 ** len(frac)
    return scaled * k <= h * unit < (scaled + 1) * k


def _json_rows(payload: dict):
    for row in payload["convergents"]:
        yield row["index"], row["h"], row["k"], row["value"], row["gap"]


def _lines(text: str):
    """The lines of ``text`` one at a time, without a list of all of them."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        yield text[start:end]
        start = end + 1


def _text_rows(stdout: str):
    """Yield (index, h, k, value, gap) strings; raise ValueError on bad shape."""
    lines = _lines(stdout)
    if next(lines, "").split() != ["n", "h", "k", "value", "gap"]:
        raise ValueError("bad table header")
    for line in lines:
        fields = line.split()
        if len(fields) != 5:
            raise ValueError(f"row with {len(fields)} fields")
        yield int(fields[0]), fields[1], fields[2], fields[3], fields[4]


def check_convergents(argv, stdout: str) -> str | None:
    opts = dict(zip(argv[1::2], argv[2::2]))
    expansion, depth, fmt = opts["--expansion"], int(opts["--depth"]), opts["--format"]
    x = int(opts["--x"]) if "--x" in opts else None
    y = int(opts["--y"]) if "--y" in opts else None
    if fmt == "json":
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        want = {"expansion": expansion, "depth": depth}
        if expansion == "tanh":
            want.update(x=str(x), y=str(y))
        if any(payload.get(k) != v for k, v in want.items()):
            return "echoed request fields differ"
        rows = _json_rows(payload)
    else:
        rows = _text_rows(stdout)
    a0, terms = expansion_terms(expansion, x, y, depth)
    h_prev, h, k_prev, k = 1, a0, 0, 1
    b_product = 1
    count = 0
    last = None
    try:
        for index, h_text, k_text, preview, gap_text in rows:
            count += 1
            if index != count or count > depth:
                return f"row {count} has index {index}"
            a, b = terms[count - 1]
            h_prev, h = h, a * h + b * h_prev
            k_prev, k = k, a * k + b * k_prev
            b_product *= b
            row_h, row_k = parse_int(h_text), parse_int(k_text)
            if row_k <= 0 or row_h * k != row_k * h:
                return f"row {count}: h/k is not the convergent"
            gap_num, gap_den = parse_fraction(gap_text)
            if gap_den <= 0 or gap_num * k * k_prev != gap_den * b_product:
                return f"row {count}: gap breaks the determinant identity"
            if not _preview_ok(preview, row_h, row_k):
                return f"row {count}: preview {preview!r} is not a 20-digit truncation"
            last = (row_h, row_k)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable table: {exc}"
    if count != depth:
        return f"{count} rows, asked {depth}"
    p, q = bottom_up_fold(a0, terms)
    if last[0] * q != last[1] * p or gcd(*last) != 1:
        return "last row differs from the bottom-up fold or is not reduced"
    return None


# --- certificates -----------------------------------------------------------

def expected_certificate(x: int, y: int) -> dict:
    """Every re-derivable field of the certificate for (x, y), in closed form.

    The tail index n is the smallest n >= 1 with (2i-1)*ry > rx^2 for all
    i > n; with q = rx^2 // ry that is max(1, (q + 1) // 2).
    """
    if x == 0:
        return {"x": "0", "y": str(y), "reducedX": "0", "reducedY": str(y),
                "tailIndex": "0", "checkedPrefixDepth": "0", "thresholdIndex": "0",
                "verdict": "NotApplicable"}
    g = gcd(abs(x), y)
    rx, ry = abs(x) // g, y // g
    n = max(1, (rx * rx // ry + 1) // 2)
    return {"x": str(x), "y": str(y), "reducedX": str(rx), "reducedY": str(ry),
            "tailIndex": str(n), "thresholdIndex": str(n + 1),
            "verdict": "CertifiedIrrational"}


def check_certificate_file(x: int, y: int, text: str) -> str | None:
    """The JSON that ``certify`` wrote for (x, y)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"certificate is not JSON: {exc}"
    if not isinstance(payload, dict) or tuple(payload) != CERTIFICATE_KEYS:
        return "certificate keys are not the canonical schema"
    for field, want in expected_certificate(x, y).items():
        if payload[field] != want:
            return f"{field} is {payload[field]!r}, expected {want!r}"
    if not isinstance(payload["engineVersion"], str):
        return "engineVersion is not a string"
    checked = parse_int(payload["checkedPrefixDepth"])
    if x != 0 and checked < parse_int(payload["thresholdIndex"]):
        return "checked prefix stops before the threshold index"
    return None


def check_verify(tampered: bool, stdout: str, stderr: str, certificate: dict) -> str | None:
    """``verify``'s report, once its exit code was the expected one."""
    if tampered:
        if stdout or not stderr.startswith("verification failed"):
            return "tampered certificate rejected without the failure report"
        return None
    prefix = f"certificate verified to depth {certificate['checkedPrefixDepth']}: "
    if not stdout.startswith(prefix) or stdout.count("\n") != 1:
        return f"unexpected verify output {stdout[:60]!r}"
    return None
