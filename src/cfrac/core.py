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

Every evaluator is a view of one integer recurrence on the states
(n, h_{n-1}, h_n, k_{n-1}, k_n, P_n) with P_n = |D_n|.  The equivalence
transform with scales c_0 = den(a0), c_i = den(a_i) den(b_i) clears the terms
to integers (``_integer_terms``) and multiplies h_n and k_n by c_0...c_n, so
no convergent changes.  ``_walk`` is the generator of every state, for the
views that need every row: ``convergents`` and the convergent tables of
``cli``.  It only adds, multiplies and compares, so the state may be any
exact integer type: the tables walk it in ``decimal.Decimal`` integers under
an exact context, which print in linear time.  A term equal to 1 costs an
addition, not a product: the walk scales (h_{n-1}, k_{n-1}, P) by b only
when b != 1, and when a = 1 the new h and k are plain sums.  In the simple
continued fraction of e every b and two thirds of the a are 1.

Certified evaluation (``_GapBound.refine``) needs only the first state that
meets a tolerance, so it leaps: the terms ahead are folded into a 2x2
matrix, applied to the state once per chunk, whose bit lengths bound the
gaps ahead from below; that bound rules out the states that must fail, and
only the first state it cannot rule out is formed and tested.  Each skipped
state fails the exact test, and each other one is tested, so every depth is
that of a step-by-step walk.

A certified value is a Moebius image of the walk's interval: a bound holds
an integer matrix M = [[p, q], [r, s]], and its value at t = h_n/k_n is
M(t) = (p h_n + q k_n)/m with m = r h_n + s k_n.  Pushing [t - eps, t + eps],
eps = P_n/(k_n k_{n-1}), through M bounds it by
|det M| P_n k_n/(m (m k_{n-1} - |r| P_n)) (Gosper, HAKMEM item 101, 1972;
Vuillemin, "Exact real computer arithmetic with continued fractions", IEEE
Trans. Computers 39, 1990).  tanh is M = I, whose bound is the gap itself;
e^(x/y) is [[1, 1], [-1, 1]] (x > 0) or [[-1, 1], [1, 1]] (x < 0) over
tanh(|x|/(2y)).  A map with a pole (r != 0) bounds a state only when
t + eps < 1, the pole test.  A leap's room, the e such that every later
state that passes has a gap of at most tol 2^e, is 2 min(w, cap) + 1 -
bl(|det M|), read off M and the state.  It holds at every state, so
refinement always leaps.  On Gauss's fraction a state that passes the pole
test is followed by one that passes, so at the depth cap DepthCapError's
``best`` is the capped state's enclosure if it passes, else None, and no
state is walked again.  ``_GapBound`` derives all three.
Stopping tests cross-multiply: gap <= p/q is P_n q <= p k_n k_{n-1}, and
the bound of M is within p/q when
|det M| P_n k_n q <= p m (m k_{n-1} - |r| P_n).
In ``stop`` and in the leap a bit-length test may reject a state before
multiplying; bit lengths fix a product only within a factor of two, so that
test is a necessary condition for passing, never a sufficient one.  A state
it lets through, and every pole test, is decided by ``_compare_products``, a
filtered exact comparison: the leading 64 bits of each factor bracket each
product, and only brackets that overlap are multiplied out.  Either way the
answer is that of the exact comparison, so no depth depends on the filter.
Fractions are built only for results; ``_decimal`` prints an int of any
size, past the interpreter's int-str limit, and ``_integer`` parses one.

Expansions are immutable values, safe to share and evaluate concurrently; a
walk or a bound belongs to the one evaluation that made it.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice, repeat
from math import prod

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


TermRule = ClosedFormRule | ExplicitListRule | EPatternRule | ScaledRule


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
    """The terms of ``cf`` scaled to integers a_i' = c_i a_i, b_i' = c_i c_{i-1} b_i, as an iterator.

    With c_0 = den(a0) and c_i = den(a_i) den(b_i) both are integers with the
    signs of a_i and b_i.  Integer rules need no scale past c_0: their terms
    come from ``itertools`` without building ``Term`` objects.
    """
    rule, c_0 = cf.rule, cf.leading.denominator
    if isinstance(rule, EPatternRule):
        return chain([(1, c_0)], zip(map(rule._a, count(2)), repeat(1)))
    if isinstance(rule, ClosedFormRule) and rule.b_first and rule.b_rest and (
        rule.a_slope.denominator == rule.a_intercept.denominator
        == rule.b_first.denominator == rule.b_rest.denominator == 1
    ):
        slope, intercept, b = rule.a_slope.numerator, rule.a_intercept.numerator, rule.b_rest.numerator
        first = (slope + intercept, rule.b_first.numerator * c_0)
        return chain([first], zip(count(2 * slope + intercept, slope), repeat(b)))
    return _scaled_terms(rule, c_0)


def _scaled_terms(rule: TermRule, c_prev: int):
    """Yield the terms of ``rule`` scaled to integers, as ``_integer_terms`` describes."""
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


def _integer(digits: str) -> int:
    """int(digits) for a run of ASCII digits of any length, parsed in halves."""
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    low = len(digits) // 2
    return _integer(digits[:-low]) * 10**low + _integer(digits[-low:])


def _origin(cf: ContinuedFraction) -> tuple:
    """The state of ``_walk`` at depth 0: (0, h_{-1}, h_0, k_{-1}, k_0, P_0) = (0, 1, c_0 a0, 0, c_0, c_0)."""
    c_0 = cf.leading.denominator
    return 0, 1, cf.leading.numerator, 0, c_0, c_0


def _walk(cf: ContinuedFraction, num=int):
    """The integer engine: the states of the recurrence over ``_integer_terms(cf)``, from depth 0.

    A state is (n, h_{n-1}, h_n, k_{n-1}, k_n, P_n) with P_n = c_0 b_1' ... b_n',
    which is |D_n| for positive terms.  No term is checked: a view that needs
    positive terms checks them itself, as ``_GapBound._leap`` does.  A finite
    expansion that runs out raises ExpansionExhaustedError after its last
    state.  The terms are ints; ``num`` converts the five integers of the
    state at depth 0 (``_origin``), and may be any exact integer type that
    adds and multiplies with ints, such as Decimal under a context that traps
    Inexact.  A term equal to 1 costs an addition, not a product: the step
    scales (h_{n-1}, k_{n-1}, P) by b only when b != 1 and multiplies h and
    k by a only when a != 1, so it makes at most five products.
    """
    n, h_prev, h, k_prev, k, p = 0, *map(num, _origin(cf)[1:])
    yield n, h_prev, h, k_prev, k, p
    for a, b in _integer_terms(cf):
        n += 1
        if b != 1:
            h_prev, k_prev, p = b * h_prev, b * k_prev, b * p
        if a == 1:
            h_prev, h, k_prev, k = h, h + h_prev, k, k + k_prev
        else:
            h_prev, h, k_prev, k = h, a * h + h_prev, k, a * k + k_prev
        yield n, h_prev, h, k_prev, k, p


#: Terms ``_GapBound._leap`` folds into one 2x2 matrix before it applies the matrix to the state.
_CHUNK = 16


class _GapBound:
    """M(h_n/k_n) within the image of the determinant gap P_n/(k_n k_{n-1}), over the terms of ``cf``.

    ``refine`` is its interface: it resumes to a tolerance and returns the
    enclosure (a, b, c, d, depth), the value a/b within the bound c/(b d),
    with b, d > 0 and c >= 0.  ``terms`` is the ``_integer_terms`` iterator
    and ``state`` the state of ``_walk`` reached so far, from ``_origin``.
    ``stop(tol)`` is the stop test ``refine`` applies to the states it forms,
    ``_bounded(state)`` says whether a state has a bound, and
    ``_enclosure(state)`` reads a state's enclosure.

    The bound.  ``matrix`` M = [[p, q], [r, s]] is the Moebius map
    M(t) = (p t + q)/(r t + s), with r t + s > 0 at every state with a bound.
    With m = r h + s k and the gap eps = P/(k k') (k' = k_{n-1}),
    M(t) = (p h + q k)/m, and every T within eps of t has
    |M(T) - M(t)| = |det M| |T - t|/(|r T + s| |r t + s|)
                  <= |det M| eps/(|r t + s| (|r t + s| - |r| eps)),
    which is |det M| P k/(m (m k' - |r| P)).  ``cf`` is Gauss's fraction for tanh
    (``expansions``), so t >= 0, and three matrices are used:
    - M = I, tanh itself.  The common k cancels: the enclosure is
      (h, k, P, k'), the gap.  I is the one matrix with r = 0 taken.
    - [[1, 1], [-1, 1]], exp at x > 0: (1 + t)/(1 - t), with m = k - h.
    - [[-1, 1], [1, 1]], exp at x < 0: (1 - t)/(1 + t), with m = k + h.

    The pole test, ``_bounded``.  When r != 0, a state has a bound only if
    its interval lies below 1, the supremum of tanh: t + eps < 1, that is
    P < (k - h) k'.  That keeps the interval off the poles t = 1 and t = -1
    (t >= 0 and eps < 1 give t - eps > -1) and m k' - |r| P > 0.  For x < 0
    the Moebius test |r t + s| > |r| eps alone is weaker: it would give a
    bound, and so a DepthCapError ``best``, to states past t + eps = 1.
    When r = 0 every state past depth 0 has a bound, its gap.

    The leap bound.  The j terms past state n fold into
    N = [[a_{n+j}, b_{n+j}], [1, 0]] ... [[a_{n+1}, b_{n+1}], [1, 0]], which
    maps (k_n, k_{n-1}) to (k_{n+j}, k_{n+j-1}) and (h_n, h_{n-1}) likewise,
    and P_{n+j} = P_n B_j with B_j = b_{n+1} ... b_{n+j}.  So the gap of
    state n + j is P_n B_j/(k_{n+j} k_{n+j-1}) with both k's read off N in
    bit lengths, from N's entries and k_n, k_{n-1}, without forming them.
    ``_leap`` pulls terms while that gap is provably above tol 2^e, where
    ``_room(state)`` gives an e such that every later state that passes the
    stop test at tol has a gap of at most tol 2^e; such states fail, so they
    are skipped without being formed.  Only the first state the bound cannot
    rule out is formed and tested, exactly, and no term past it is pulled,
    so no depth moves.  A leap may start at any state, depth 0 included,
    since the room below holds at every state.

    The room.  As 0 < m k' - |r| P <= m k', a passing state has
    tol >= |det M| eps/(r t + s)^2, so eps <= tol (r t + s)^2/|det M|.  Past
    state n every convergent lies between c_{n-1} and c_n, within eps of t,
    so |r t_j + s| <= (|m| k' + |r| P)/(k k') < 2^w; and a passing state has
    t in [0, 1) when r != 0 (the pole test), where
    |r t + s| <= max(|s|, |r + s|) <= 2^cap, which holds for every t when
    r = 0.  So e = 2 min(w, cap) + 1 - bl(|det M|): 0 for I, 1 for x < 0
    and 2 min(w, 0) - 1 for x > 0.  At depth 0, k' = 0 and w is no bound,
    but P = k there makes w >= 3, above the cap of each matrix.  For x < 0,
    m = k + h >= k makes w >= 3 at every state, so ``_room`` forms w only
    for x > 0.

    ``best``.  At the depth cap, DepthCapError carries the enclosure of the
    capped state if ``_bounded`` accepts it, as it always does for I, else
    None (``_best``).  That is the deepest state reached with a bound, the
    one a step-by-step walk would keep, because on Gauss's fraction a state
    that passes the pole test is followed by one that passes.  A matrix with
    r != 0 is therefore for Gauss's fraction only (``expansions._exp_bound``):
    an explicit list may have a state with a bound followed by one without.

    The proof.  Take z = X/Y > 0, b_1 = X, b_i = X^2 and a_i = (2i - 1) Y
    (``expansions.tanh_integer_cf``), c_n = h_n/k_n with c_0 = 0 and
    eps_n = |c_n - c_{n-1}|.  The pole test is U_n = c_n + eps_n < 1.  The
    convergents alternate around tanh z, c_n above it at odd n, so
    U_n = 2 c_n - c_{n-1} at odd n and U_n = c_{n-1} at even n.
    - Odd n: U_{n+1} = c_n < U_n.
    - Even n >= 2: U_{n+1} = c_{n-1} - eps_n + 2 eps_{n+1}, and
      eps_{n+1}/eps_n = b_{n+1} k_{n-1}/(a_{n+1} k_n + b_{n+1} k_{n-1}) is
      below 1/2 when X^2 k_{n-1} < (2n + 1) Y k_n.  As
      k_n >= a_n k_{n-1} = (2n - 1) Y k_{n-1}, z^2 < (2n - 1)(2n + 1)
      suffices, and U_n = c_{n-1} < 1 gives it (below), so U_{n+1} < U_n.
    Write c_m = H_m/K_m over the unscaled terms 2i - 1, z, z^2 (h_m = Y^m H_m,
    k_m = Y^m K_m).  D_m = K_m - H_m has D_0 = 1, D_1 = 1 - z and
    D_m = (2m - 1) D_{m-1} + z^2 D_{m-2}, and so D_m = theta_m(-z) for the
    reverse Bessel polynomial theta_m(w) = sum_j (m + j)!/(2^j j! (m - j)!) w^(m-j):
    theta_0 = 1, theta_1 = w + 1, and
    theta_m = (2m - 1) theta_{m-1} + w^2 theta_{m-2}, as the coefficient of
    w^(m-j) needs 2j (2m - 1) + (m - j)(m - j - 1) = (m + j)(m + j - 1).
    Likewise K_m + H_m = theta_m(z), so (1 + c_m)/(1 - c_m) is
    theta_m(z)/theta_m(-z), the diagonal Pade approximant of e^(2z) (Perron,
    *Die Lehre von den Kettenbruechen*, 1913; Grosswald, *Bessel
    Polynomials*, LNM 698, 1978).
    As the integral of e^(-t) t^i over t >= 0 is i!,
    D_m 2^m m! = int_0^inf e^(-t) t^m (t - 2z)^m dt.  For odd m put
    t = 2z(1 + u) above 2z and t = 2z(1 - s) below it:
    D_m 2^m m! e^(2z)/(2z)^(2m+1)
        = int_0^inf e^(-2zu) u^m (1 + u)^m du - int_0^1 e^(2zs) s^m (1 - s)^m ds.
    As 1 + u <= e^u the first integral is at most m!/(2z - m)^(m+1), and the
    second exceeds m!^2/(2m + 1)!, so D_m < 0 once
    (2z - m)^(m+1) >= (m + 1)(m + 2)...(2m + 1), which the AM-GM inequality
    gives for 2z - m >= (3m + 2)/2.  So c_m < 1 at odd m = n - 1 gives
    z < (5n - 3)/4, and z^2 < (5n - 3)^2/16 < 4n^2 - 1.  Saff and Varga bound
    every zero of the Pade numerator by |2z| < 2m + 4/3 ("On the zeros and
    poles of Pade approximants to e^z. III", Numer. Math. 30, 1978); the
    cruder bound suffices here.
    """

    def __init__(self, cf: ContinuedFraction, matrix=((1, 0), (0, 1))):
        self.cf, self.terms, self.state = cf, _integer_terms(cf), _origin(cf)
        self.matrix = matrix
        (p, q), (r, s) = matrix
        assert r or matrix == ((1, 0), (0, 1)), "an affine M must be I"
        # |det M|, and |r t + s| <= 2^cap for t in [0, 1), and for every t if r = 0
        self.det, self.cap = abs(p * s - q * r), (max(abs(s), abs(r + s)) - 1).bit_length()

    def stop(self, tol: Fraction) -> Callable[[tuple], bool]:
        # For I, gap <= p/q is P q <= p k k'.  As bl(P q) >= bl(P) + bl(q) - 1 and
        # bl(p k k') <= bl(p) + bl(k) + bl(k'), a state past ``slack`` fails it.  Otherwise
        # bound <= p/q is |det| P k q <= p m (m k' - |r| P).  As 0 < m k' - |r| P <= m k',
        # the left-hand side has at least bl(|det|) + bl(P) + bl(k) + bl(q) - 3 bits and the
        # right at most bl(p) + 2 bl(m) + bl(k'), so a state past ``slack``, 2 - bl(|det|)
        # higher, fails it.  States that pass a bit-length test are decided by
        # ``_compare_products``.
        p_tol, q_tol = tol.numerator, tol.denominator
        det, (r, s), bounded = self.det, self.matrix[1], self._bounded
        slack = p_tol.bit_length() - q_tol.bit_length() + (3 - det.bit_length() if r else 1)

        def stop(state):
            _, _, h, k_prev, k, p = state
            if not r:
                return (
                    p.bit_length() - k.bit_length() - k_prev.bit_length() <= slack
                    and _compare_products((p, q_tol), (p_tol, k, k_prev)) <= 0
                )
            if not bounded(state):
                return False
            m = r * h + s * k
            return (
                p.bit_length() + k.bit_length() - 2 * m.bit_length() - k_prev.bit_length() <= slack
                and _compare_products((det, p, k, q_tol), (p_tol, m, m * k_prev - abs(r) * p)) <= 0
            )

        return stop

    def _bounded(self, state: tuple) -> bool:
        """Whether a state past depth 0 has a bound: always when r = 0, else P < (k - h) k'.

        No bit-length test comes first: ``_compare_products`` already decides
        by leading bits, and the test runs once per exp stop test and per cap.
        """
        if not self.matrix[1][0]:
            return True
        _, _, h, k_prev, k, p = state
        u = k - h
        return u > 0 and _compare_products((p,), (u, k_prev)) < 0

    def _best(self) -> ApproximationResult | None:
        """DepthCapError's ``best``: the capped state's enclosure if it has a bound, else None."""
        return _approximation(*self._enclosure(self.state)) if self._bounded(self.state) else None

    def _room(self, state: tuple) -> int:
        """e such that every state past ``state`` that passes ``stop(tol)`` has gap <= tol 2^e."""
        # 2^w > (|m| k' + |r| P)/(k k'): the numerator has at most
        # max(bl(m) + bl(k'), bl(|r| P)) + 1 bits and k k' at least bl(k) + bl(k') - 1.
        # For r = 0, |r t + s| <= 2^cap at every t, so w is not needed.  Nor is it for
        # r > 0 (x < 0): m = h + k >= k on Gauss's fraction, so w >= 3 > cap = 1.
        e, (r, s) = self.cap, self.matrix[1]
        if r < 0:
            _, _, h, k_prev, k, p = state
            w = max(abs(r * h + s * k).bit_length() + k_prev.bit_length(), (abs(r) * p).bit_length()) + 3
            e = min(w - k.bit_length() - k_prev.bit_length(), e)
        return 2 * e + 1 - self.det.bit_length()

    def _enclosure(self, state: tuple) -> tuple[int, int, int, int, int]:
        n, _, h, k_prev, k, p = state
        (top_h, top_k), (r, s) = self.matrix
        if not r:
            return h, k, p, k_prev, n
        m = r * h + s * k
        return top_h * h + top_k * k, m, self.det * p * k, m * k_prev - abs(r) * p, n

    def _leap(self, depth: int, p_tol: int, q_tol: int) -> tuple:
        """Pull terms while the leap bound rules out the state reached, up to ``depth``; form that state.

        The states are ruled out at tol = p_tol/q_tol.  The state reached is
        stored, also when a term is refused or a finite expansion runs out,
        and returned.  N is applied to the state every _CHUNK terms.  A term
        that is not strictly positive raises NonPositiveTermError.
        """
        pull, room, chunk = self.terms.__next__, self._room(self.state), True
        while chunk:
            n, h_prev, h, k_prev, k, p = self.state
            # State n + j is ruled out when P_n B_j q > p 2^e k_{n+j} k_{n+j-1}.  As
            # k_{n-1} < k_n/2^sh, k_{n+j} < k_n (m00 2^sh + m01)/2^sh < 2^(bl(k_n) - sh + E_0)
            # with E_0 = bl(m00 2^sh + m01), and likewise k_{n+j-1} < 2^(bl(k_n) - sh + E_1)
            # from the second row, which is the first row one term before (E_1 = sh
            # at j = 1).  So it is ruled out when bl(B_j) - E_0 - E_1 >= need.  These
            # bit lengths fix both sides within 12 bits in all, so 12 bits or more
            # short of that it cannot be; in between, leading bits decide, as in
            # ``_compare_products``.
            bk, sh = k.bit_length(), max(k.bit_length() - k_prev.bit_length() - 1, 0)
            need = p_tol.bit_length() - q_tol.bit_length() - p.bit_length() + room + 2 * (bk - sh) + 3
            m00, m01, m10, m11, u, j, e, zone, end, chunk = 1, 0, 0, 1, 1, 0, sh, None, depth - n, False
            last = min(end, _CHUNK)
            try:
                while j < last:
                    a, b = pull()
                    if a <= 0 or b <= 0:
                        raise NonPositiveTermError(n + j + 1, self.cf.term(n + j + 1))
                    j += 1
                    m00, m10 = a * m00 + b * m10, m00
                    m01, m11 = a * m01 + b * m11, m01
                    u, e_prev, e = u * b, e, ((m00 << sh) + m01).bit_length()
                    margin = u.bit_length() - e - e_prev - need
                    if margin < 0:
                        if zone is None and margin > -12:
                            # k_n <= kh 2^s and k_{n-1} <= kh_prev 2^s
                            (low, _, e_low), (_, high, e_high) = _bracket((p, q_tol)), _bracket((p_tol,))
                            _, kh, s = _bracket((k,))
                            kh_prev, zone = (k_prev >> s) + (s > 0), e_low - e_high - 2 * s - room
                        if margin <= -12 or not _below(
                                high * (m00 * kh + m01 * kh_prev) * (m10 * kh + m11 * kh_prev), 0, u * low, zone):
                            break
                else:
                    chunk = j < end
            finally:
                self.state = (n + j, m10 * h + m11 * h_prev, m00 * h + m01 * h_prev,
                              m10 * k + m11 * k_prev, m00 * k + m01 * k_prev, p * u)
        return self.state

    def refine(self, tol: Fraction, max_depth: int) -> tuple[int, int, int, int, int]:
        """Resume until the bound meets ``tol`` and return the enclosure there.

        Resumes where it stopped and, past depth 0, re-tests that state
        first, so a smaller tolerance stops at the depth a fresh evaluation
        would.  ``state`` keeps the last state reached, also when a finite
        expansion runs out.  Each leap aims at ``max_depth``.  Past
        ``max_depth`` terms raises DepthCapError, whose ``best`` (``_best``) is
        the enclosure of the state reached if it has a bound, else None, as
        no earlier state then had one; its message writes ``tol`` as str()
        would, at any size.
        """
        stop, state, p_tol, q_tol = self.stop(tol), self.state, tol.numerator, tol.denominator
        while not (state[0] and stop(state)):
            if state[0] >= max_depth:
                shown = _decimal(p_tol) + ("" if q_tol == 1 else f"/{_decimal(q_tol)}")
                raise DepthCapError(f"tolerance {shown} not reached within {max_depth} terms", best=self._best())
            state = self._leap(max_depth, p_tol, q_tol)
        return self._enclosure(state)


def _checked_tolerance(tol, max_depth: int) -> Fraction:
    """Fraction(tol), once it is checked > 0 and then max_depth >= 1 (ValueError)."""
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    return tol


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
    return [Fraction(h, k) for _, _, h, _, k, _ in islice(_walk(cf), 1, depth + 1)]


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
    tol = _checked_tolerance(tol, max_depth)
    bound = _GapBound(cf)
    try:
        return _approximation(*bound.refine(tol, max_depth))
    except ExpansionExhaustedError:
        n, _, h, _, k, _ = bound.state
        return _approximation(h, k, 0, 1, n)


Scales = Fraction | int | Callable[[int], Fraction]


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
