"""Independent oracles for the test suite.

Nothing here touches the integer engine or the evaluators under test:
continued fractions are folded bottom-up over their finite prefixes, and
exp/tanh values come from truncated factorial and odd/even power series in
exact rationals with explicit remainder bounds.  Enclosures are honest
intervals: the true value always lies inside [lo, hi].

The ``reference_*`` functions are the Fraction loops that the integer engine
replaced, kept verbatim as the reference its views must match field by
field.  They step ``ConvergentState``, the unscaled reference step.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd

from cfrac.cli import MAX_DIGITS, decimal_preview
from cfrac.core import DEPTH_CAP, ApproximationResult, ConvergentState
from cfrac.errors import (
    DepthCapError,
    DomainError,
    ExpansionExhaustedError,
    NonPositiveTermError,
)
from cfrac.expansions import tanh_integer_cf


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
