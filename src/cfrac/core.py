"""Generalized continued fractions over exact rationals, walked in integers.

A generalized continued fraction is

    a0 + b1/(a1 + b2/(a2 + b3/(a3 + ...)))

with partial numerators b_i and partial denominators a_i.  An expansion is a
leading term a0 plus a deterministic 1-based term source ("rule"); rules may
be closed-form (a_i affine in i, b constant past the first term), an explicit
finite list, or the pattern of the simple continued fraction of e.

Convergents c_n are computed by the fundamental recurrence

    h_n = a_n * h_{n-1} + b_n * h_{n-2}
    k_n = a_n * k_{n-1} + b_n * k_{n-2}

with h_{-1} = 1, h_0 = a0, k_{-1} = 0, k_0 = 1, and c_n = h_n / k_n.  The
cross term D_n = h_n * k_{n-1} - h_{n-1} * k_n obeys D_n = -b_n * D_{n-1}
with D_0 = -1, so for positive terms consecutive convergents alternate around
the limit, and the determinant gap |c_n - c_{n-1}| = |b_1...b_n|/(k_n k_{n-1})
is a certified two-sided error bound during evaluation.

Every evaluator is a view of one integer engine, ``_walk``, a generator of
the states (n, h_{n-1}, h_n, k_{n-1}, k_n, P_n) with P_n = |D_n|.  The
equivalence transform with scales c_0 = den(a0), c_i = den(a_i) den(b_i)
clears the terms to integers and multiplies h_n and k_n by c_0...c_n, so no
convergent changes.  It only adds, multiplies and compares, so the state may
be any exact integer type: the convergent tables of ``cli`` walk it in
``decimal.Decimal`` integers under an exact context, which print in linear
time.
Stopping tests cross-multiply: gap <= p/q is P_n q <= p k_n k_{n-1}.  A
bit-length test may reject a step before multiplying; bit lengths fix a
product only within a factor of two, so that test is a necessary condition
for passing, never a sufficient one.  A step it lets through is decided by
``_compare_products``, a filtered exact comparison: the leading 64 bits of
each factor bracket each product, and only brackets that overlap are
multiplied out.  Either way the answer is that of the exact comparison, so
no depth depends on the filter.  Fractions are built only for results;
``_decimal`` prints an int of any size, past the interpreter's int-str limit.

Expansions are immutable values, safe to share and evaluate concurrently; a
walk belongs to the one evaluation that made it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import prod
from typing import Callable, Union

from .errors import (
    DepthCapError,
    ExpansionExhaustedError,
    NonPositiveTermError,
    ZeroScaleError,
)

#: Default patience limit for tolerance-driven evaluation.
DEPTH_CAP = 10**6


@dataclass(frozen=True)
class Term:
    """One level of the fraction: partial denominator a, partial numerator b.

    b = 0 is excluded: a zero partial numerator truncates the fraction, which
    is represented by ending the term stream instead.  Both fields are
    Fractions; a value whose type is exactly Fraction is already normalised
    and is stored as it is, anything else goes through Fraction() once.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self):
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", Fraction(self.b))
        if not self.b:
            raise ValueError("partial numerator must be nonzero")


@dataclass(frozen=True)
class ClosedFormRule:
    """a_i = a_slope*i + a_intercept; b_1 = b_first, b_i = b_rest for i >= 2.

    Coefficients are stored as Fractions, converted as in ``Term``.  Each
    a_i is normalised once, from integers: with a_slope = s/t and
    a_intercept = c/d, a_i = (s i d + c t)/(t d).  b_i is the stored
    coefficient itself.
    """

    b_first: Fraction
    b_rest: Fraction
    a_slope: Fraction
    a_intercept: Fraction

    def __post_init__(self):
        for name in ("b_first", "b_rest", "a_slope", "a_intercept"):
            if type(getattr(self, name)) is not Fraction:
                object.__setattr__(self, name, Fraction(getattr(self, name)))

    def term(self, i: int) -> Term:
        slope, intercept = self.a_slope, self.a_intercept
        t, d = slope.denominator, intercept.denominator
        a = Fraction(slope.numerator * i * d + intercept.numerator * t, t * d)
        return Term(a, self.b_first if i == 1 else self.b_rest)


@dataclass(frozen=True)
class ExplicitListRule:
    """A finite stored term sequence; index past the end is an error."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def term(self, i: int) -> Term:
        if not 1 <= i <= len(self.terms):
            raise ExpansionExhaustedError(i, len(self.terms))
        return self.terms[i - 1]


@dataclass(frozen=True)
class EPatternRule:
    """Terms of the simple continued fraction of e past the leading 2.

    All partial numerators are 1; the partial denominators run
    1, 2, 1, 1, 4, 1, 1, 6, ...: a_i = 2(i+1)/3 at i = 2, 5, 8, ... and 1
    elsewhere (Euler's pattern).
    """

    @staticmethod
    def _a(i: int) -> int:
        return 2 * (i + 1) // 3 if i % 3 == 2 else 1

    def term(self, i: int) -> Term:
        return Term(Fraction(self._a(i)), Fraction(1))


@dataclass(frozen=True)
class ScaledRule:
    """Equivalence-transformed view of a base rule.

    a_i -> c_i * a_i and b_i -> c_i * c_{i-1} * b_i with c_0 = 1.  The scale
    function must be pure (the rule stays deterministic) and nonzero at every
    index; a zero scale is reported when the index is consumed.
    """

    base: "TermRule"
    scale: Callable[[int], Fraction]

    def _scale_at(self, i: int) -> Fraction:
        if i == 0:
            return Fraction(1)
        c = Fraction(self.scale(i))
        if c == 0:
            raise ZeroScaleError(i)
        return c

    def term(self, i: int) -> Term:
        base = self.base.term(i)
        c = self._scale_at(i)
        c_prev = self._scale_at(i - 1)
        return Term(c * base.a, c * c_prev * base.b)


TermRule = Union[ClosedFormRule, ExplicitListRule, EPatternRule, ScaledRule]


@dataclass(frozen=True)
class ContinuedFraction:
    """A leading term plus a term rule."""

    leading: Fraction
    rule: TermRule

    def __post_init__(self):
        object.__setattr__(self, "leading", Fraction(self.leading))

    def term(self, i: int) -> Term:
        return self.rule.term(i)


@dataclass(frozen=True)
class ApproximationResult:
    """A convergent with a proven two-sided error bound at the given depth."""

    value: Fraction
    error_bound: Fraction
    depth: int


def _integer_terms(cf: ContinuedFraction):
    """Yield the terms of ``cf`` scaled to integers a_i' = c_i a_i, b_i' = c_i c_{i-1} b_i.

    With c_0 = den(a0) and c_i = den(a_i) den(b_i) both are integers with the
    signs of a_i and b_i.  Integer rules need no scale past c_0 and skip
    building ``Term`` objects.
    """
    rule, c_prev = cf.rule, cf.leading.denominator
    if isinstance(rule, EPatternRule):
        yield 1, c_prev
        yield from ((rule._a(i), 1) for i in count(2))
    elif isinstance(rule, ClosedFormRule) and rule.b_first and rule.b_rest and all(
        q.denominator == 1 for q in (rule.a_slope, rule.a_intercept, rule.b_first, rule.b_rest)
    ):
        slope, intercept, b = int(rule.a_slope), int(rule.a_intercept), int(rule.b_rest)
        yield slope + intercept, int(rule.b_first) * c_prev
        yield from ((slope * i + intercept, b) for i in count(2))
    else:
        for i in count(1):
            term = rule.term(i)
            a, b = term.a, term.b
            yield a.numerator * b.denominator, b.numerator * a.denominator * c_prev
            c_prev = a.denominator * b.denominator


#: Leading bits kept of each factor by ``_compare_products``.
_LEAD_BITS = 64


def _bracket(factors) -> tuple[int, int, int]:
    """(lo, hi, e) with lo 2^e <= prod(factors) <= hi 2^e, from leading bits.

    A factor of l > _LEAD_BITS bits, shifted right by s = l - _LEAD_BITS,
    lies in [f 2^s, (f + 1) 2^s]; shorter factors are kept exactly.
    """
    lo = hi = 1
    e = 0
    for x in factors:
        s = x.bit_length() - _LEAD_BITS
        if s > 0:
            x >>= s
            lo, hi, e = lo * x, hi * (x + 1), e + s
        else:
            lo, hi = lo * x, hi * x
    return lo, hi, e


def _below(a: int, ea: int, b: int, eb: int) -> bool:
    """a 2^ea < b 2^eb for a, b >= 0, without shifting by more than their lengths differ."""
    if not a or not b:
        return a < b
    la, lb = a.bit_length() + ea, b.bit_length() + eb
    if la != lb:
        return la < lb
    e = min(ea, eb)
    return a << (ea - e) < b << (eb - e)


def _exact_compare(xs, ys) -> int:
    """-1, 0 or 1 as prod(xs) is below, equal to or above prod(ys), multiplied out."""
    x, y = prod(xs), prod(ys)
    return (x > y) - (x < y)


def _compare_products(xs, ys) -> int:
    """-1, 0 or 1 as prod(xs) is below, equal to or above prod(ys); factors >= 0.

    The leading bits of the factors bracket each product (``_bracket``); two
    disjoint brackets decide, and only overlapping ones, such as equal
    products, are multiplied out (``_exact_compare``).  The answer is always
    the exact one.  A filtered predicate in the sense of Shewchuk, "Adaptive
    Precision Floating-Point Arithmetic and Fast Robust Geometric
    Predicates", 1997.
    """
    x_lo, x_hi, ex = _bracket(xs)
    y_lo, y_hi, ey = _bracket(ys)
    if _below(x_hi, ex, y_lo, ey):
        return -1
    if _below(y_hi, ey, x_lo, ex):
        return 1
    return _exact_compare(xs, ys)


#: The smallest int-str limit CPython accepts: no str() or int() call on a
#: chunk of this many digits can hit the limit, whatever it is set to.
_CHUNK_DIGITS = sys.int_info.str_digits_check_threshold


def _zero_padded(n: int, width: int) -> str:
    """0 <= n < 10^width as exactly ``width`` decimal digits.

    Splits on powers of ten, so no str() call sees more than ``_CHUNK_DIGITS``
    digits and the interpreter's int-str limit never applies.
    """
    if width <= _CHUNK_DIGITS:
        return str(n).rjust(width, "0")
    high, low = divmod(n, 10 ** (width // 2))
    return _zero_padded(high, width - width // 2) + _zero_padded(low, width // 2)


def _decimal(n: int) -> str:
    """str(n) at any size, through ``_zero_padded``."""
    if n < 0:
        return "-" + _decimal(-n)
    # n < 2^bits <= 10^(bits // 3 + 1), as log10(2) < 1/3
    return _zero_padded(n, n.bit_length() // 3 + 1).lstrip("0") or "0"


def _walk(cf: ContinuedFraction, positive: bool = True, num=int):
    """The integer engine: the states of the recurrence over ``_integer_terms(cf)``, from depth 0.

    A state is (n, h_{n-1}, h_n, k_{n-1}, k_n, P_n) with P_n = c_0 b_1' ... b_n',
    which is |D_n| for positive terms.  With ``positive``, consuming a term
    that is not strictly positive raises NonPositiveTermError.  A finite
    expansion that runs out raises ExpansionExhaustedError after its last
    state.  The terms are ints; ``num`` converts the five integers of the
    state at depth 0, and may be any exact integer type that adds and
    multiplies with ints, such as Decimal under a context that traps Inexact.
    """
    c_0 = cf.leading.denominator
    n, h_prev, h, k_prev, k, p = 0, *map(num, (1, cf.leading.numerator, 0, c_0, c_0))
    yield n, h_prev, h, k_prev, k, p
    for a, b in _integer_terms(cf):
        if positive and (a <= 0 or b <= 0):
            raise NonPositiveTermError(n + 1, cf.term(n + 1))
        n += 1
        h_prev, h = h, a * h + b * h_prev
        k_prev, k = k, a * k + b * k_prev
        p *= b
        yield n, h_prev, h, k_prev, k, p


class _GapBound:
    """c_n = h_n/k_n within the determinant gap P_n/(k_n k_{n-1}), on a walk of ``cf``.

    ``refine`` is its interface: it resumes the walk to a tolerance and
    returns the enclosure (a, b, c, d, depth), the value a/b within the bound
    c/(b d), with b, d > 0 and c >= 0.  ``walk`` is the ``_walk`` generator
    and ``state`` the state it stopped at.  ``stop(tol)`` is the stop test
    ``refine`` applies to each state; it keeps in ``last`` the deepest state
    it has seen with a bound, and ``_enclosure(state)`` reads a state's
    enclosure.
    """

    last = None

    def __init__(self, cf: ContinuedFraction):
        self.walk = _walk(cf)
        self.state = next(self.walk)

    def stop(self, tol: Fraction) -> Callable[[tuple], bool]:
        # gap <= p/q is P q <= p k k'.  As bl(P q) >= bl(P) + bl(q) - 1 and
        # bl(p k k') <= bl(p) + bl(k) + bl(k'), a state past ``slack`` fails it.
        p_tol, q_tol = tol.numerator, tol.denominator
        slack = p_tol.bit_length() - q_tol.bit_length() + 1

        def stop(state):
            self.last = state
            _, _, _, k_prev, k, p = state
            return (
                p.bit_length() - k.bit_length() - k_prev.bit_length() <= slack
                and _compare_products((p, q_tol), (p_tol, k, k_prev)) <= 0
            )

        return stop

    def _enclosure(self, state: tuple) -> tuple[int, int, int, int, int]:
        n, _, h, k_prev, k, p = state
        return h, k, p, k_prev, n

    def refine(self, tol: Fraction, max_depth: int) -> tuple[int, int, int, int, int]:
        """Resume the walk until the bound meets ``tol`` and return the enclosure there.

        The walk resumes where it stopped and, past depth 0, re-tests that
        state first, so a smaller tolerance stops at the depth a fresh walk
        would.  ``state`` keeps the last state reached, also when a finite
        expansion runs out.  Past ``max_depth`` terms raises DepthCapError,
        whose ``best`` is the deepest state with a bound, or None if no state
        had one; its message writes ``tol`` as str() would, at any size.
        """
        stop, state = self.stop(tol), self.state
        try:
            if state[0] and stop(state):
                return self._enclosure(state)
            for state in islice(self.walk, max_depth - state[0]):
                if stop(state):
                    return self._enclosure(state)
        finally:
            self.state = state
        best = None if self.last is None else _approximation(*self._enclosure(self.last))
        p, q = _decimal(tol.numerator), tol.denominator
        shown = p if q == 1 else f"{p}/{_decimal(q)}"
        raise DepthCapError(f"tolerance {shown} not reached within {max_depth} terms", best=best)


def _approximation(a: int, b: int, c: int, d: int, depth: int) -> ApproximationResult:
    """The enclosure a/b within c/(b d) at ``depth`` as an ApproximationResult."""
    return ApproximationResult(Fraction(a, b), Fraction(c, b * d), depth)


def terms(cf: ContinuedFraction, count: int) -> list[Term]:
    """The first ``count`` terms of the expansion (errors if too short)."""
    return [cf.term(i) for i in range(1, count + 1)]


def convergents(cf: ContinuedFraction, depth: int) -> list[Fraction]:
    """Exact reduced convergents c_1 .. c_depth (leading term included).

    A finite expansion shorter than ``depth`` raises ExpansionExhaustedError.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return [Fraction(h, k) for _, _, h, _, k, _ in islice(_walk(cf, positive=False), 1, depth + 1)]


def evaluate(
    cf: ContinuedFraction,
    tol: Fraction,
    max_depth: int = DEPTH_CAP,
) -> ApproximationResult:
    """Evaluate until consecutive convergents agree to within ``tol``.

    Terms must be strictly positive as consumed (NonPositiveTermError
    otherwise): positivity makes consecutive convergents bracket the limit L,
    so |L - c_n| <= |c_n - c_{n-1}| and the returned ``error_bound`` is a true
    two-sided bound.

    A finite expansion that runs out before the tolerance is met equals its
    last convergent exactly and is returned with error_bound 0.  If the
    tolerance is still unmet after ``max_depth`` terms, DepthCapError is
    raised carrying the best result so far.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    bound = _GapBound(cf)
    try:
        return _approximation(*bound.refine(tol, max_depth))
    except ExpansionExhaustedError:
        n, _, h, _, k, _ = bound.state
        return _approximation(h, k, 0, 1, n)


Scales = Union[Fraction, int, Callable[[int], Fraction]]


def equivalence_transform(cf: ContinuedFraction, scales: Scales) -> ContinuedFraction:
    """Rescale terms without changing any convergent.

    With c_0 = 1 the new terms are a_i' = c_i * a_i and
    b_i' = c_i * c_{i-1} * b_i; every convergent of the result equals the
    corresponding convergent of the input as an exact rational.  ``scales``
    is either a single nonzero rational (constant c_i = c) or a pure function
    i -> c_i for i >= 1.

    A constant scale applied to a closed-form rule folds back into a
    closed-form rule (a_i stays affine in i, b stays constant past b_1), so
    integer-term families keep their closed form.  An explicit list is
    scaled eagerly, term by term through ``ScaledRule``, and stays a list.
    Zero scales are rejected: immediately for constants and explicit lists,
    at first use otherwise.
    """
    rule, scale_fn = cf.rule, scales
    if not callable(scales):
        constant = Fraction(scales)
        if constant == 0:
            raise ZeroScaleError(1)
        if isinstance(rule, ClosedFormRule):
            folded = ClosedFormRule(
                b_first=constant * rule.b_first,
                b_rest=constant * constant * rule.b_rest,
                a_slope=constant * rule.a_slope,
                a_intercept=constant * rule.a_intercept,
            )
            return ContinuedFraction(cf.leading, folded)
        scale_fn = lambda i: constant  # noqa: E731

    scaled = ScaledRule(rule, scale_fn)
    if isinstance(rule, ExplicitListRule):
        scaled = ExplicitListRule(tuple(map(scaled.term, range(1, len(rule) + 1))))
    return ContinuedFraction(cf.leading, scaled)
