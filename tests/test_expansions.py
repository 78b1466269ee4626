from fractions import Fraction

import pytest

from cfrac.core import ClosedFormRule, convergents, equivalence_transform, terms
from cfrac.errors import DomainError
from cfrac.expansions import (
    e_simple_cf,
    exp_rational,
    gauss_tanh_cf,
    tanh_integer_cf,
    tanh_rational,
)

from tests.oracles import bottom_up_value, exp_enclosure, tanh_enclosure

F = Fraction


def test_gauss_tanh_terms_at_one():
    got = terms(gauss_tanh_cf(F(1)), 4)
    assert [(t.b, t.a) for t in got] == [(F(1), F(1)), (F(1), F(3)), (F(1), F(5)), (F(1), F(7))]


def test_gauss_tanh_terms_at_one_half():
    got = terms(gauss_tanh_cf(F(1, 2)), 3)
    assert [(t.b, t.a) for t in got] == [(F(1, 2), F(1)), (F(1, 4), F(3)), (F(1, 4), F(5))]


def test_gauss_tanh_second_convergent_three_halves():
    # (3/2)/(1 + (9/4)/3) = 6/7
    assert convergents(gauss_tanh_cf(F(3, 2)), 2)[1] == F(6, 7)


def test_gauss_tanh_rejects_zero():
    with pytest.raises(DomainError):
        gauss_tanh_cf(F(0))


def test_tanh_integer_terms():
    assert [(t.b, t.a) for t in terms(tanh_integer_cf(1, 1), 3)] == [
        (F(1), F(1)),
        (F(1), F(3)),
        (F(1), F(5)),
    ]
    assert [(t.b, t.a) for t in terms(tanh_integer_cf(1, 2), 3)] == [
        (F(1), F(2)),
        (F(1), F(6)),
        (F(1), F(10)),
    ]
    assert [(t.b, t.a) for t in terms(tanh_integer_cf(3, 2), 3)] == [
        (F(3), F(2)),
        (F(9), F(6)),
        (F(9), F(10)),
    ]


def test_tanh_integer_third_convergent():
    assert convergents(tanh_integer_cf(1, 2), 3)[2] == F(61, 132)


def test_tanh_integer_keeps_closed_form():
    assert isinstance(tanh_integer_cf(4, 6).rule, ClosedFormRule)


def test_tanh_integer_is_gauss_scaled_by_y():
    # Built directly from x and y, it is the transform its docstring names.
    for x in range(1, 60):
        for y in range(1, 60):
            assert tanh_integer_cf(x, y) == equivalence_transform(gauss_tanh_cf(F(x, y)), F(y))


@pytest.mark.parametrize("x,y", [(0, 1), (-1, 2), (1, 0), (2, -3)])
def test_tanh_integer_rejects_nonpositive(x, y):
    with pytest.raises(DomainError):
        tanh_integer_cf(x, y)


def test_e_pattern_partial_denominators():
    got = [t.a for t in terms(e_simple_cf(), 9)]
    assert got == [1, 2, 1, 1, 4, 1, 1, 6, 1]
    assert all(t.b == 1 for t in terms(e_simple_cf(), 9))


def test_e_convergents_depth_five_and_eight():
    got = convergents(e_simple_cf(), 8)
    assert got[4] == F(87, 32)
    assert got[7] == F(1264, 465)
    assert got[7] == bottom_up_value(e_simple_cf(), 8)


def test_term_integrality_grid():
    samples = list(range(1, 101)) + [250, 500, 999, 1000]
    for x in range(1, 21):
        for y in range(1, 21):
            rule = tanh_integer_cf(x, y).rule
            for i in samples:
                term = rule.term(i)
                assert term.a.denominator == 1 and term.a >= 1
                assert term.b.denominator == 1 and term.b >= 1


def test_transform_fidelity_spot_pairs():
    for x, y in [(2, 3), (5, 7), (9, 4)]:
        assert convergents(gauss_tanh_cf(F(x, y)), 20) == convergents(
            tanh_integer_cf(x, y), 20
        )


def test_tanh_rational_against_series_oracle():
    tol = F(1, 10**6)
    for x, y in [(1, 1), (1, 2)]:
        got = tanh_rational(x, y, tol)
        lo, hi = tanh_enclosure(F(x, y))
        assert lo - tol <= got.value <= hi + tol
        # the certified bound really contains the true value
        assert got.value - got.error_bound <= lo and hi <= got.value + got.error_bound


def test_tanh_rational_small_argument():
    got = tanh_rational(1, 1000, F(1, 1000))
    lo, hi = tanh_enclosure(F(1, 1000))
    assert abs(got.value - lo) <= F(1, 1000)
    assert got.value - got.error_bound <= lo and hi <= got.value + got.error_bound


def test_tanh_rational_reduces_arguments():
    assert tanh_rational(2, 4, F(1, 10**9)) == tanh_rational(1, 2, F(1, 10**9))


def test_tanh_rational_rejects_bad_arguments():
    with pytest.raises(DomainError):
        tanh_rational(0, 1, F(1, 10))
    with pytest.raises(DomainError):
        tanh_rational(1, 0, F(1, 10))


def test_oracle_sandwich_between_consecutive_convergents():
    for x in range(1, 4):
        for y in range(1, 4):
            lo, hi = tanh_enclosure(F(x, y), terms=100)
            values = convergents(tanh_integer_cf(x, y), 16)
            for n in range(1, 16):
                low, high = sorted((values[n - 1], values[n]))
                assert low <= lo and hi <= high


def test_exp_zero_is_exact():
    got = exp_rational(0, 1, F(1, 10))
    assert got.value == 1 and got.error_bound == 0 and got.depth == 0


def test_exp_of_one_matches_series_oracle():
    tol = F(1, 10**12)
    got = exp_rational(1, 1, tol)
    lo, hi = exp_enclosure(F(1))
    assert lo - tol <= got.value <= hi + tol
    assert got.error_bound <= tol
    assert got.value - got.error_bound <= lo and hi <= got.value + got.error_bound


def test_exp_negative_half_matches_series_oracle():
    tol = F(1, 10**9)
    got = exp_rational(-1, 2, tol)
    lo, hi = exp_enclosure(F(-1, 2))
    assert lo - tol <= got.value <= hi + tol
    assert got.value - got.error_bound <= lo and hi <= got.value + got.error_bound


def test_exp_rejects_bad_arguments():
    with pytest.raises(DomainError):
        exp_rational(1, 0, F(1, 10))
    with pytest.raises(ValueError):
        exp_rational(1, 1, F(0))


def test_exp_bound_decays_with_tolerance():
    tols = [F(1, 10**3), F(1, 10**6), F(1, 10**9), F(1, 10**12)]
    for x, y in [(1, 1), (-1, 2), (3, 2), (5, 3), (2, 1)]:
        bounds = [exp_rational(x, y, tol).error_bound for tol in tols]
        assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(b <= tol for b, tol in zip(bounds, tols))


def test_exp_and_tanh_agree_through_the_identity():
    tol = F(1, 10**12)
    for x, y in [(1, 1), (1, 2), (2, 3), (3, 2)]:
        er = exp_rational(x, y, tol)
        tr = tanh_rational(x, y, tol)
        e_lo, e_hi = er.value - er.error_bound, er.value + er.error_bound
        assert e_lo > 0
        u_lo, u_hi = e_lo * e_lo, e_hi * e_hi
        t_lo, t_hi = (u_lo - 1) / (u_lo + 1), (u_hi - 1) / (u_hi + 1)
        assert max(t_lo, tr.value - tr.error_bound) <= min(t_hi, tr.value + tr.error_bound)
