"""Named expansions and the certified evaluators built on them.

Gauss's continued fraction for the hyperbolic tangent,

    tanh z = z/(1 + z^2/(3 + z^2/(5 + ...))),

becomes an all-integer expansion at z = x/y after scaling every level by y:

    tanh(x/y) = x/(y + x^2/(3y + x^2/(5y + ...))).

Euler's pattern gives the simple continued fraction of e,

    e = 2 + 1/(1 + 1/(2 + 1/(1 + 1/(1 + 1/(4 + ...))))).

Exponentials of rationals are recovered through the identity
tanh r = (e^r - e^-r)/(e^r + e^-r), inverted to e^(2r) = (1 + tanh r)/(1 - tanh r)
and evaluated at the half argument r = x/(2y).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .core import (
    DEPTH_CAP,
    ApproximationResult,
    ClosedFormRule,
    ContinuedFraction,
    EPatternRule,
    _GapBound,
    _approximation,
    _compare_products,
    equivalence_transform,
    evaluate,
)
from .errors import DomainError


def gauss_tanh_cf(z: Fraction) -> ContinuedFraction:
    """Gauss's expansion of tanh z: b_1 = z, b_i = z^2, a_i = 2i - 1.

    z must be a nonzero rational (tanh 0 = 0 makes the expansion degenerate).
    """
    z = Fraction(z)
    if z == 0:
        raise DomainError("z must be nonzero")
    rule = ClosedFormRule(b_first=z, b_rest=z * z, a_slope=Fraction(2), a_intercept=Fraction(-1))
    return ContinuedFraction(Fraction(0), rule)


def tanh_integer_cf(x: int, y: int) -> ContinuedFraction:
    """The all-integer expansion of tanh(x/y): b_1 = x, b_i = x^2, a_i = (2i-1)y.

    Built by applying the equivalence transform with constant scale y to
    Gauss's expansion at z = x/y, which clears every rational term into a
    positive integer while preserving all convergents exactly.  Requires
    x >= 1 and y >= 1.
    """
    if x < 1 or y < 1:
        raise DomainError("x and y must be positive integers")
    return equivalence_transform(gauss_tanh_cf(Fraction(x, y)), Fraction(y))


def e_simple_cf() -> ContinuedFraction:
    """The simple continued fraction of e (leading 2, Euler's pattern)."""
    return ContinuedFraction(Fraction(2), EPatternRule())


def _reduced_tanh_cf(x: int, y: int) -> ContinuedFraction:
    if x < 1 or y < 1:
        raise DomainError("x and y must be positive integers")
    g = gcd(x, y)
    return tanh_integer_cf(x // g, y // g)


def tanh_rational(
    x: int,
    y: int,
    tol: Fraction,
    max_depth: int = DEPTH_CAP,
) -> ApproximationResult:
    """tanh(x/y) for positive integers x, y, certified to within ``tol``.

    x/y is reduced first: the smaller partial numerators (x^2 after
    reduction) converge no slower and leave the value unchanged.
    """
    return evaluate(_reduced_tanh_cf(x, y), tol, max_depth)


class _ExpBound(_GapBound):
    """e^(x/y) = (1 + t)/(1 - t), or (1 - t)/(1 + t) for x < 0, on the walk of t = h/k.

    The gap bound of t = tanh(|x|/(2y)), in lowest terms (x != 0), pushed
    through the exp map.  With the gap eps = P/(k k') and m = k - h (k + h
    for x < 0), the value is (2k - m)/m and the propagated bound
    2 eps/((1 -+ t)(1 -+ t - eps)) is 2 P k/(m (m k' - P)).  A state with
    t + eps >= 1, that is P >= (k - h) k', has no bound: its interval
    reaches the pole.
    """

    def __init__(self, x: int, y: int):
        super().__init__(_reduced_tanh_cf(abs(x), 2 * y))
        self.negative = x < 0

    def stop(self, tol: Fraction):
        # bound <= p/q is 2 P k q <= p m (m k' - P).  As 0 < m k' - P < m k',
        # bl(2 P k q) >= bl(P) + bl(k) + bl(q) - 1 and the right-hand side has
        # at most bl(p) + 2 bl(m) + bl(k') bits, a state past ``slack`` fails
        # it.  Likewise P >= u k' needs bl(P) >= bl(u) + bl(k') - 1.  States
        # that pass a bit-length test are decided by ``_compare_products``.
        p_tol, q_tol = tol.numerator, tol.denominator
        slack = p_tol.bit_length() - q_tol.bit_length() + 1
        negative = self.negative

        def stop(state):
            _, _, h, k_prev, k, p = state
            u = k - h
            if u <= 0 or (
                p.bit_length() >= u.bit_length() + k_prev.bit_length() - 1
                and _compare_products((p,), (u, k_prev)) >= 0
            ):
                return False
            self.last = state
            m = k + h if negative else u
            return (
                p.bit_length() + k.bit_length() - 2 * m.bit_length() - k_prev.bit_length()
                <= slack
                and _compare_products((2, p, k, q_tol), (p_tol, m, m * k_prev - p)) <= 0
            )

        return stop

    def _enclosure(self, state):
        n, _, h, k_prev, k, p = state
        m = k + h if self.negative else k - h
        return 2 * k - m, m, 2 * p * k, m * k_prev - p, n


def exp_rational(
    x: int,
    y: int,
    tol: Fraction,
    max_depth: int = DEPTH_CAP,
) -> ApproximationResult:
    """e^(x/y) with a certified error bound at most ``tol``.

    A one-tolerance read of ``certified_enclosures``, which checks the
    arguments.  It evaluates t = tanh(|x|/(2y)) from the integer-term
    expansion and forms (1 + t)/(1 - t); for x < 0 the reciprocal
    (1 - t)/(1 + t) is used, which is exact by e^-r = 1/e^r.  The doubled
    denominator keeps all terms integral and lands on e^(x/y) directly.

    The bound is exact interval propagation: with the true tanh inside
    [t - eps, t + eps] (bracketing of consecutive convergents), the image of
    that interval under (1 + u)/(1 - u) deviates from the returned value by
    at most 2*eps/((1 - t)(1 - t - eps)), and similarly on the reciprocal
    side.  The expansion is consumed until that propagated bound drops under
    ``tol``; the interval must also clear the u = 1 pole first, which it
    always does since tanh < 1.  Both tests run on the integer state of the
    walk, cross-multiplied (``_ExpBound``).

    y must be >= 1; any integer x is accepted (x = 0 gives exactly 1).
    """
    (enclosure,) = certified_enclosures("exp", x, y, [tol], max_depth)
    return _approximation(*enclosure)


def certified_enclosures(expr: str, x: int, y: int, tolerances, max_depth: int = DEPTH_CAP):
    """Enclosures of exp(x/y) or tanh(x/y), one per tolerance, from one walk.

    The resumable driver under exp_rational and ``cli.certified_digits``.
    ``tolerances`` must not increase and may be an endless iterator.  For
    each this yields (a, b, c, d, depth): the value a/b and the bound
    c/(b d), with b, d > 0 and c >= 0, that exp_rational or tanh_rational
    reports for that tolerance, and its depth.  The walk resumes from there
    for the next tolerance: every depth before it had a bound above the last
    tolerance.  DepthCapError comes after ``max_depth`` terms in all.

    Checks, in order: ``expr`` is "exp" or "tanh" (DomainError); for exp
    y >= 1 (DomainError), for tanh x, y >= 1 (DomainError); then, as each
    tolerance is reached, Fraction(tol) > 0 and max_depth >= 1 (ValueError),
    the order of ``evaluate``, before the exact enclosure (1, 1, 0, 1, 0) of
    e^0 is yielded for it.
    """
    if expr == "exp":
        if y < 1:
            raise DomainError("y must be a positive integer")
        bound = _ExpBound(x, y) if x else None
    elif expr == "tanh":
        bound = _GapBound(_reduced_tanh_cf(x, y))
    else:
        raise DomainError(f"expr must be 'exp' or 'tanh', not {expr!r}")
    for tol in tolerances:
        tol = Fraction(tol)
        if tol <= 0:
            raise ValueError("tol must be > 0")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        yield bound.refine(tol, max_depth) if bound else (1, 1, 0, 1, 0)
