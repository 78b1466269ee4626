"""Independent oracles for the test suite.

Nothing here touches the integer engine or the evaluators under test:
continued fractions are folded bottom-up over their finite prefixes, and
exp/tanh values come from truncated factorial and odd/even power series in
exact rationals with explicit remainder bounds.  Enclosures are honest
intervals: the true value always lies inside [lo, hi].

The ``reference_*`` functions are the Fraction loops that the integer engine
replaced, kept verbatim as the reference its views must match field by
field.  They step ``ConvergentState``, the unscaled reference step in exact
rationals, which lives here since the engine stopped using it: in ``src``
only ``core._walk`` and ``core._GapBound._leap``, which folds the terms into
a 2x2 matrix or takes one step, step the recurrence.
``decimal_preview`` is the Fraction preview that the table rows used before
they were walked in base 10, also kept verbatim.  ``reference_pinned`` is the
rule by which ``cli.certified_digits`` pinned digits from the endpoints
[lo/den, hi/den] before it pinned them from the parts of the enclosure.  The
``reference_*`` certificate functions are the term scans that the
closed-form checks of ``cfrac.irrationality`` replaced, also kept verbatim;
``closed_form_tail_index`` is the tail index in plain integer arithmetic.
``reference_closed_form_term`` is ``ClosedFormRule.term`` and the ``Term``
normalisation as they were before each term was normalised once, from
integers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import floor, gcd

from cfrac.cli import MAX_DIGITS, PREVIEW_DIGITS
from cfrac.core import DEPTH_CAP, ApproximationResult, ClosedFormRule, Term
from cfrac.errors import (
    DepthCapError,
    DomainError,
    ExpansionExhaustedError,
    InvalidTermError,
    NonPositiveTermError,
    TailUnreachableError,
)
from cfrac.expansions import tanh_integer_cf
from cfrac.irrationality import (
    CHECKED_PREFIX_MARGIN,
    SCAN_MARGIN,
    VERDICT_IRRATIONAL,
    VERDICT_NOT_APPLICABLE,
    IrrationalityCertificate,
    VerificationOutcome,
)


def bottom_up_value(cf, depth: int) -> Fraction:
    """Fold the finite prefix a0 + b1/(a1 + ... + b_depth/a_depth) from the bottom."""
    acc = Fraction(0)
    for i in range(depth, 0, -1):
        term = cf.term(i)
        acc = term.b / (term.a + acc)
    return cf.leading + acc


def exp_enclosure(r: Fraction, terms: int = 80) -> tuple[Fraction, Fraction]:
    """Exact enclosure of e^r from the factorial series.

    For r >= 0 the partial sum underestimates and the tail is bounded by a
    geometric series; negative r goes through the exact reciprocal.
    """
    r = Fraction(r)
    if r < 0:
        lo, hi = exp_enclosure(-r, terms)
        return 1 / hi, 1 / lo
    if r >= terms + 1:
        raise ValueError("not enough series terms for this argument")
    partial = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        partial += term
        term = term * r / (k + 1)
    # term == r^terms / terms!; remaining terms shrink at least geometrically
    # with ratio r/(terms+1) < 1.
    tail = term / (1 - r / (terms + 1))
    return partial, partial + tail


def tanh_enclosure(r: Fraction, terms: int = 80) -> tuple[Fraction, Fraction]:
    """Exact enclosure of tanh r, r >= 0, from the sinh and cosh power series."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("nonnegative arguments only")
    if r == 0:
        return Fraction(0), Fraction(0)
    r2 = r * r
    sinh_partial = Fraction(0)
    term = Fraction(r)
    for k in range(terms):
        sinh_partial += term
        term = term * r2 / ((2 * k + 2) * (2 * k + 3))
    ratio = r2 / ((2 * terms + 2) * (2 * terms + 3))
    if ratio >= 1:
        raise ValueError("not enough series terms for this argument")
    sinh_hi = sinh_partial + term / (1 - ratio)

    cosh_partial = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        cosh_partial += term
        term = term * r2 / ((2 * k + 1) * (2 * k + 2))
    ratio = r2 / ((2 * terms + 1) * (2 * terms + 2))
    cosh_hi = cosh_partial + term / (1 - ratio)

    # sinh and cosh partial sums underestimate (all series terms positive).
    return sinh_partial / cosh_hi, sinh_hi / cosh_partial


def enclosure_digits(lo: Fraction, hi: Fraction, digits: int) -> str:
    """Truncated decimal digits pinned by an enclosure of a positive value."""
    if not 0 < lo <= hi:
        raise ValueError("enclosure must be positive")
    scale = 10**digits
    n_lo = (lo * scale).numerator // (lo * scale).denominator
    n_hi = (hi * scale).numerator // (hi * scale).denominator
    if n_lo != n_hi:
        raise ValueError("enclosure too wide to pin the requested digits")
    text = str(n_lo)
    integer_part = text[:-digits] if len(text) > digits else "0"
    return f"{integer_part}.{text[-digits:].rjust(digits, '0')}"


def brute_force_tail_index(cf, window: int = 200) -> int:
    """Smallest n >= 1 with a_i > b_i for all i in (n, n + window].

    Pure scanning, no closed-form shortcut; ``window`` must be wide enough
    that the eventually-monotone family under test cannot fool it.
    """
    n = 1
    while True:
        if all(
            (lambda t: t.a > t.b)(cf.term(i)) for i in range(n + 1, n + window + 1)
        ):
            return n
        n += 1


@dataclass(frozen=True)
class ConvergentState:
    """Rolling state (h_{n-1}, h_n, k_{n-1}, k_n) of the fundamental recurrence.

    The unscaled reference step in exact rationals.  For expansions with
    positive terms k_n stays nonzero at every depth, so ``value`` is always
    defined there.
    """

    index: int
    h_prev: Fraction
    h_curr: Fraction
    k_prev: Fraction
    k_curr: Fraction

    @classmethod
    def initial(cls, leading: Fraction) -> "ConvergentState":
        return cls(0, Fraction(1), Fraction(leading), Fraction(0), Fraction(1))

    def step(self, term: Term) -> "ConvergentState":
        return ConvergentState(
            self.index + 1,
            self.h_curr,
            term.a * self.h_curr + term.b * self.h_prev,
            self.k_curr,
            term.a * self.k_curr + term.b * self.k_prev,
        )

    @property
    def value(self) -> Fraction:
        return self.h_curr / self.k_curr

    @property
    def determinant(self) -> Fraction:
        """D_n = h_n k_{n-1} - h_{n-1} k_n; satisfies D_n = -b_n D_{n-1}, D_0 = -1."""
        return self.h_curr * self.k_prev - self.h_prev * self.k_curr


def reference_evaluate(cf, tol, max_depth=DEPTH_CAP):
    """``core.evaluate`` as a Fraction loop."""
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    state = ConvergentState.initial(cf.leading)
    prev_value = state.value
    value = prev_value
    gap = Fraction(0)
    for i in range(1, max_depth + 1):
        try:
            term = cf.term(i)
        except ExpansionExhaustedError:
            return ApproximationResult(prev_value, Fraction(0), i - 1)
        if term.a <= 0 or term.b <= 0:
            raise NonPositiveTermError(i, term)
        state = state.step(term)
        value = state.value
        gap = abs(value - prev_value)
        if gap <= tol:
            return ApproximationResult(value, gap, i)
        prev_value = value
    raise DepthCapError(
        f"tolerance {tol} not reached within {max_depth} terms",
        best=ApproximationResult(value, gap, max_depth),
    )


def reference_tanh_rational(x, y, tol, max_depth=DEPTH_CAP):
    """``expansions.tanh_rational`` over ``reference_evaluate``."""
    if x < 1 or y < 1:
        raise DomainError("x and y must be positive integers")
    g = gcd(x, y)
    return reference_evaluate(tanh_integer_cf(x // g, y // g), tol, max_depth)


def reference_exp_rational(x, y, tol, max_depth=DEPTH_CAP):
    """``expansions.exp_rational`` as a Fraction loop."""
    if y < 1:
        raise DomainError("y must be a positive integer")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if x == 0:
        return ApproximationResult(Fraction(1), Fraction(0), 0)

    negative = x < 0
    g = gcd(abs(x), 2 * y)
    cf = tanh_integer_cf(abs(x) // g, 2 * y // g)

    one = Fraction(1)
    state = ConvergentState.initial(cf.leading)
    prev = state.value
    best = None
    for i in range(1, max_depth + 1):
        state = state.step(cf.term(i))
        t = state.value
        eps = abs(t - prev)
        prev = t
        if t + eps >= 1:
            continue
        if negative:
            value = (one - t) / (one + t)
            bound = 2 * eps / ((one + t) * (one + t - eps))
        else:
            value = (one + t) / (one - t)
            bound = 2 * eps / ((one - t) * (one - t - eps))
        if bound <= tol:
            return ApproximationResult(value, bound, i)
        best = ApproximationResult(value, bound, i)
    raise DepthCapError(
        f"tolerance {tol} not reached within {max_depth} terms",
        best=best,
    )


def reference_certified_digits(expr, x, y, digits):
    """``cli.certified_digits`` restarting the reference evaluators each round.

    Returns (rendered digits, depth).
    """
    if not 1 <= digits <= MAX_DIGITS:
        raise DomainError(f"digits must be between 1 and {MAX_DIGITS}")
    evaluator = reference_exp_rational if expr == "exp" else reference_tanh_rational
    scale = 10**digits
    tol = Fraction(1, 10 ** (digits + 2))
    for _ in range(64):
        result = evaluator(x, y, tol)
        lo = result.value - result.error_bound
        hi = result.value + result.error_bound
        if lo > 0:
            n_lo = floor(lo * scale)
            if n_lo == floor(hi * scale):
                text = str(n_lo)
                integer_part = text[:-digits] if len(text) > digits else "0"
                fractional_part = text[-digits:].rjust(digits, "0")
                return f"{integer_part}.{fractional_part}", result.depth
        tol /= 10**4
    raise DomainError(f"could not pin {digits} digits for {expr}({x}/{y})")


def reference_pinned(a, b, c, d, scale):
    """floor(lo scale / den) if it equals floor(hi scale / den) and lo > 0, else None.

    [lo/den, hi/den] = a/b -+ c/(b d) is the enclosure in endpoint form.
    """
    lo, hi, den = a * d - c, a * d + c, b * d
    if lo > 0:
        n_lo = lo * scale // den
        if n_lo == hi * scale // den:
            return n_lo
    return None


def decimal_preview(q: Fraction, sig: int = PREVIEW_DIGITS) -> str:
    """Truncated decimal with ``sig`` significant digits.  Display only."""
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    a, b = abs(q.numerator), q.denominator
    if a >= b:
        int_digits = len(str(a // b))
        places = max(sig - int_digits, 0)
        scaled = str(a * 10**places // b)
        if places == 0:
            return sign + scaled
        return sign + scaled[:-places] + "." + scaled[-places:]
    leading_zeros = 0
    while a * 10 ** (leading_zeros + 1) < b:
        leading_zeros += 1
    places = sig + leading_zeros
    scaled = str(a * 10**places // b).rjust(places, "0")
    return sign + "0." + scaled


def reference_convergent_rows(cf, depth):
    """``cli._convergent_rows`` as a Fraction loop."""
    state = ConvergentState.initial(cf.leading)
    rows = []
    prev = state.value
    for i in range(1, depth + 1):
        state = state.step(cf.term(i))
        value = state.value
        rows.append(
            {
                "index": i,
                "h": str(value.numerator),
                "k": str(value.denominator),
                "value": decimal_preview(value),
                "gap": str(abs(value - prev)),
            }
        )
        prev = value
    return rows


def reference_closed_form_term(b_first, b_rest, a_slope, a_intercept, i: int):
    """Term i of the closed-form rule with these coefficients, as (a_i, b_i).

    Every value goes through Fraction(), a_i = a_slope*i + a_intercept takes
    two normalising Fraction operations, and a zero b_i raises ValueError.
    """
    b_first, b_rest, a_slope, a_intercept = map(Fraction, (b_first, b_rest, a_slope, a_intercept))
    a = a_slope * i + a_intercept
    b = b_first if i == 1 else b_rest
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        raise ValueError("partial numerator must be nonzero")
    return a, b


def closed_form_tail_index(rx: int, ry: int) -> int:
    """Tail index of tanh_integer_cf(rx, ry): smallest n >= 1 with (2i-1) ry > rx^2 for i > n."""
    return max(1, (rx * rx // ry + 1) // 2)


def is_integer(q: Fraction) -> bool:
    """True when q is an integer (canonical denominator 1)."""
    return q.denominator == 1


def _check_integer_positive(term, i: int) -> tuple[int, int]:
    if not (is_integer(term.a) and is_integer(term.b)):
        raise InvalidTermError(f"term {i} is not integral: a={term.a}, b={term.b}", index=i)
    a, b = int(term.a), int(term.b)
    if a < 1 or b < 1:
        raise InvalidTermError(f"term {i} is not positive: a={a}, b={b}", index=i)
    return a, b


def reference_legendre_tail_index(cf) -> int:
    """``irrationality.legendre_tail_index`` scanning every term to n + 10."""
    rule = cf.rule
    if not isinstance(rule, ClosedFormRule):
        raise DomainError("tail index needs a closed-form term rule")
    coeffs = (rule.b_first, rule.b_rest, rule.a_slope, rule.a_intercept)
    if not all(is_integer(c) for c in coeffs):
        raise InvalidTermError(f"rule coefficients are not integers: {coeffs}")
    if rule.a_slope <= 0:
        raise TailUnreachableError(
            "partial denominators do not grow; the tail condition can never hold"
        )
    if rule.b_first < 1 or rule.b_rest < 1 or rule.a_slope + rule.a_intercept < 1:
        raise InvalidTermError("expansion has a nonpositive term")

    # Smallest integer i with a_slope*i + a_intercept > b_rest, clamped to
    # start no earlier than i = 2 (the first index ever constrained by a
    # tail at n >= 1); n is one below that threshold.
    quotient = (rule.b_rest - rule.a_intercept) / rule.a_slope
    n = max(1, floor(quotient))

    for i in range(1, n + SCAN_MARGIN + 1):
        a, b = _check_integer_positive(rule.term(i), i)
        if i > n and not a > b:
            raise InvalidTermError(f"a_{i} = {a} <= b_{i} = {b} inside the certified tail", index=i)
        if i == n and n >= 2 and a > b:
            raise InvalidTermError(f"tail index {n} is not minimal: a_{n} = {a} > b_{n} = {b}", index=i)
    return n


def reference_certify_irrational(x: int, y: int) -> IrrationalityCertificate:
    """``irrationality.certify_irrational`` rescanning every term to n + 50."""
    if y < 1:
        raise DomainError("y must be a positive integer")
    if x == 0:
        return IrrationalityCertificate(
            x=x, y=y, reduced_x=0, reduced_y=y,
            tail_index=0, checked_prefix_depth=0, threshold_index=0,
            verdict=VERDICT_NOT_APPLICABLE,
        )
    g = gcd(abs(x), y)
    rx, ry = abs(x) // g, y // g
    cf = tanh_integer_cf(rx, ry)
    n = reference_legendre_tail_index(cf)
    checked = n + CHECKED_PREFIX_MARGIN
    for i in range(1, checked + 1):
        a, b = _check_integer_positive(cf.term(i), i)
        if i > n and not a > b:
            raise InvalidTermError(f"a_{i} = {a} <= b_{i} = {b} inside the certified tail", index=i)
    return IrrationalityCertificate(
        x=x, y=y, reduced_x=rx, reduced_y=ry,
        tail_index=n, checked_prefix_depth=checked, threshold_index=n + 1,
        verdict=VERDICT_IRRATIONAL,
    )


def reference_verify_certificate(cert, depth=None) -> VerificationOutcome:
    """``irrationality.verify_certificate`` rescanning every term to ``depth``."""
    if depth is None:
        depth = cert.checked_prefix_depth
    if depth < cert.checked_prefix_depth:
        raise ValueError("depth must be >= the certificate's checked prefix depth")

    try:
        expected = reference_certify_irrational(cert.x, cert.y)
    except (DomainError, InvalidTermError, TailUnreachableError) as exc:
        return VerificationOutcome(False, reason=str(exc))

    for field in fields(IrrationalityCertificate):
        got = getattr(cert, field.name)
        want = getattr(expected, field.name)
        if got != want:
            return VerificationOutcome(
                False,
                reason=f"{field.name} does not recompute: stored {got!r}, derived {want!r}",
            )

    if cert.verdict == VERDICT_NOT_APPLICABLE:
        return VerificationOutcome(True)

    cf = tanh_integer_cf(cert.reduced_x, cert.reduced_y)
    for i in range(1, depth + 1):
        try:
            a, b = _check_integer_positive(cf.term(i), i)
        except InvalidTermError as exc:
            return VerificationOutcome(False, reason=str(exc), failed_index=i)
        if i > cert.tail_index and not a > b:
            return VerificationOutcome(
                False,
                reason=f"a_{i} = {a} <= b_{i} = {b} inside the certified tail",
                failed_index=i,
            )
    return VerificationOutcome(True)
