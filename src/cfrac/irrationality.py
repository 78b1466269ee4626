"""Machine-checkable irrationality certificates for tanh(x/y) and e^(x/y).

The classical tail criterion due to Legendre: if every a_i and b_i of

    b1/(a1 + b2/(a2 + b3/(a3 + ...)))

is a positive integer and a_i > b_i for all i beyond some index n, the value
of the fraction is irrational.  For the integer expansion of tanh(x/y) the
partial denominators (2i-1)y grow linearly while the partial numerators sit
at x^2 from the second term on, so the hypothesis holds from the computable
index below; tanh(x/y) is therefore irrational, and because a rational e^(x/y)
would force tanh(x/y) = (e^(x/y) - e^(-x/y))/(e^(x/y) + e^(-x/y)) to be
rational too, e^(x/y) is irrational as well.

The hypothesis is proved in closed form, not by scanning: every coefficient
of the term rule is an integer, a_1 >= 1, b >= 1 and the a-slope is
positive, so every term is a positive integer, a_i increases and b_i is
constant from i = 2 on.  One inequality at the threshold then covers the
whole infinite tail, and one more shows the tail index minimal.  Terms are
built explicitly only on a head window and on a window around the tail
index, to catch a fault in the implementation of the rule, so certifying
and verifying cost the same for every x/y.  ``verify_certificate`` with an
explicit depth rescans every term up to it, within the DEPTH_CAP budget.

Only the sufficient direction is certified.  When the hypothesis fails
(e.g. the simple continued fraction of e itself, where a_i = b_i = 1
infinitely often yet e is irrational) nothing is asserted: the verdict
vocabulary has no "rational" arm.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import gcd

from .core import DEPTH_CAP, ClosedFormRule, ContinuedFraction, _decimal
from .errors import DomainError, InvalidTermError, TailUnreachableError
from .expansions import tanh_integer_cf

VERDICT_IRRATIONAL = "CertifiedIrrational"
VERDICT_NOT_APPLICABLE = "NotApplicable"

#: How far past the tail index a certificate's checked_prefix_depth reaches.
#: Every term up to there satisfies the hypothesis: proved in closed form,
#: cross-checked explicitly on the head and threshold windows.  The closed
#: form covers the infinite tail as well; the margin fixes the certificate
#: format, not the amount of work.
CHECKED_PREFIX_MARGIN = 50

#: Width of the windows of terms built explicitly: 1..SCAN_MARGIN and
#: [n - SCAN_MARGIN, n + SCAN_MARGIN] around the tail index n.
SCAN_MARGIN = 10


@dataclass(frozen=True)
class IrrationalityCertificate:
    """Evidence that tanh(rx/ry) and e^(rx/ry) are irrational.

    (reduced_x, reduced_y) is the gcd-reduced pair (|x|, y) actually expanded;
    tail_index is the smallest n with a_i > b_i for all i > n;
    threshold_index = tail_index + 1 is where the closed-form inequality
    a_i = (2i-1) reduced_y > reduced_x^2 = b_i starts holding permanently
    (verdict CertifiedIrrational); checked_prefix_depth = tail_index +
    CHECKED_PREFIX_MARGIN: every term up to here satisfies the hypothesis,
    proved in closed form and cross-checked explicitly on the head and
    threshold windows.
    """

    x: int
    y: int
    reduced_x: int
    reduced_y: int
    tail_index: int
    checked_prefix_depth: int
    threshold_index: int
    verdict: str

    def statement(self) -> str:
        """Human-readable claim covered by this certificate."""
        if self.verdict != VERDICT_IRRATIONAL:
            return f"e^({self.x}/{self.y}) = 1 is rational; the criterion does not apply"
        ratio = f"{self.reduced_x}/{self.reduced_y}"
        power = "e" if self.reduced_x == self.reduced_y == 1 else f"e^({ratio})"
        return f"tanh({ratio}) is irrational, hence {power} is irrational"


@dataclass(frozen=True)
class VerificationOutcome:
    """Boolean verdict plus the reason and violated index on failure."""

    ok: bool
    reason: str | None = None
    failed_index: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _check_integer_positive(term, i: int) -> tuple[int, int]:
    if not (term.a.denominator == 1 and term.b.denominator == 1):
        raise InvalidTermError(f"term {i} is not integral: a={term.a}, b={term.b}", index=i)
    a, b = term.a.numerator, term.b.numerator
    if a < 1 or b < 1:
        raise InvalidTermError(f"term {i} is not positive: a={a}, b={b}", index=i)
    return a, b


def _check_tail(i: int, a: int, b: int, n: int) -> None:
    """Term i obeys tail index n: a_i > b_i past n, and a_n <= b_n when n >= 2."""
    if i > n and not a > b:
        raise InvalidTermError(f"a_{i} = {a} <= b_{i} = {b} inside the certified tail", index=i)
    if i == n and n >= 2 and a > b:
        raise InvalidTermError(f"tail index {n} is not minimal: a_{n} = {a} > b_{n} = {b}", index=i)


def _scan(rule, indices, n: int) -> None:
    """Build term i of ``rule`` for each i in ``indices``; check it against tail index n."""
    for i in indices:
        _check_tail(i, *_check_integer_positive(rule.term(i), i), n)


def legendre_tail_index(cf: ContinuedFraction) -> int:
    """Smallest n >= 1 such that a_i > b_i for every i > n.

    Requires a closed-form rule with integer coefficients, a_1 >= 1, b >= 1
    and a positive a-slope.  Every term is then a positive integer, a_i
    increases and b_i = b_rest is constant from i = 2 on, so n is computed
    symbolically and proved in exact integers: a_{n+1} > b_rest gives
    a_i > b_i for every i > n, and a_n <= b_rest makes n minimal when
    n >= 2.  The terms 1..SCAN_MARGIN (the head window) and
    n - SCAN_MARGIN..n + SCAN_MARGIN (the threshold window) are also built
    through ``rule.term`` and checked for integrality, positivity and the
    same two inequalities, to catch a fault in the implementation of the
    rule.  The cost does not grow with n.
    """
    rule = cf.rule
    if not isinstance(rule, ClosedFormRule):
        raise DomainError("tail index needs a closed-form term rule")
    coeffs = (rule.b_first, rule.b_rest, rule.a_slope, rule.a_intercept)
    if not all(c.denominator == 1 for c in coeffs):
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
    slope, intercept, b = int(rule.a_slope), int(rule.a_intercept), int(rule.b_rest)
    n = max(1, (b - intercept) // slope)
    for i in (n, n + 1):
        _check_tail(i, slope * i + intercept, b, n)

    head = range(1, SCAN_MARGIN + 1)
    threshold = range(max(1, n - SCAN_MARGIN), n + SCAN_MARGIN + 1)
    _scan(rule, sorted({*head, *threshold}), n)
    return n


def certify_irrational(x: int, y: int) -> IrrationalityCertificate:
    """Emit a certificate for tanh(x/y) and e^(x/y).

    y must be >= 1.  x = 0 yields the NotApplicable verdict (e^0 = 1 is
    rational); a negative x is certified through |x|, since e^(-r) = 1/e^r
    preserves (ir)rationality.  The pair is gcd-reduced before expansion,
    and ``legendre_tail_index`` proves the hypothesis.
    """
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
    n = legendre_tail_index(tanh_integer_cf(rx, ry))
    return IrrationalityCertificate(
        x=x, y=y, reduced_x=rx, reduced_y=ry,
        tail_index=n, checked_prefix_depth=n + CHECKED_PREFIX_MARGIN, threshold_index=n + 1,
        verdict=VERDICT_IRRATIONAL,
    )


def _field_text(value: int | str) -> str:
    """repr() of a certificate field, with ints at any size (``_decimal``)."""
    return _decimal(value) if isinstance(value, int) else repr(value)


def verify_certificate(
    cert: IrrationalityCertificate,
    depth: int | None = None,
) -> VerificationOutcome:
    """Re-check a certificate from scratch.

    The certificate is re-derived from its (x, y) alone and must match
    field for field: emission is canonical, so any single-field tampering is
    detectable.  The re-derivation proves the hypothesis again, in closed
    form and on the explicit windows; a fault found there is reported with
    its index.  An explicit ``depth`` (not below the certificate's checked
    prefix depth, not above DEPTH_CAP) also regenerates the term stream
    independently to ``depth`` and re-checks every term for positivity,
    integrality, and a_i > b_i past the tail index.

    Failures are reported in the outcome, never raised: any ``DomainError``
    met while re-deriving, comparing or rescanning, such as a term that is
    not integral or positive, a wrong-side term or a zero scale from the term
    rule, becomes a failed outcome with its message, and with the index of
    the term when the error carries one (``InvalidTermError``).  A ``depth``
    out of range raises ValueError (too small) or DomainError (over budget)
    before any work.
    """
    if depth is not None:
        if depth < cert.checked_prefix_depth:
            raise ValueError("depth must be >= the certificate's checked prefix depth")
        if depth > DEPTH_CAP:
            raise DomainError(f"depth {depth} exceeds the rescan budget of {DEPTH_CAP} terms")

    try:
        expected = certify_irrational(cert.x, cert.y)
        for field in fields(IrrationalityCertificate):
            got = getattr(cert, field.name)
            want = getattr(expected, field.name)
            if got != want:
                got, want = _field_text(got), _field_text(want)
                return VerificationOutcome(
                    False,
                    reason=f"{field.name} does not recompute: stored {got}, derived {want}",
                )
        if depth is not None and cert.verdict != VERDICT_NOT_APPLICABLE:
            cf = tanh_integer_cf(cert.reduced_x, cert.reduced_y)
            _scan(cf.rule, range(1, depth + 1), cert.tail_index)
    except InvalidTermError as exc:
        return VerificationOutcome(False, reason=str(exc), failed_index=exc.index)
    except DomainError as exc:
        return VerificationOutcome(False, reason=str(exc))
    return VerificationOutcome(True)
