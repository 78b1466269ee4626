import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrac.core import (
    ApproximationResult,
    ClosedFormRule,
    ContinuedFraction,
    ExplicitListRule,
    ScaledRule,
    Term,
    convergents,
    equivalence_transform,
    evaluate,
    terms,
)
from cfrac.errors import (
    DepthCapError,
    ExpansionExhaustedError,
    NonPositiveTermError,
    ZeroScaleError,
)
from cfrac.expansions import e_simple_cf, gauss_tanh_cf, tanh_integer_cf

from tests.oracles import ConvergentState, bottom_up_value, reference_closed_form_term

F = Fraction


def _random_positive_cf(rng, depth, leading=0, cap=100):
    items = tuple(
        Term(F(rng.randint(1, cap)), F(rng.randint(1, cap))) for _ in range(depth)
    )
    return ContinuedFraction(F(leading), ExplicitListRule(items))


def test_term_rejects_zero_partial_numerator():
    with pytest.raises(ValueError):
        Term(F(3), F(0))


def test_initial_state_determinant():
    state = ConvergentState.initial(F(2))
    assert state.determinant == -1
    assert state.value == 2


def test_step_examples_e_pattern():
    state = ConvergentState.initial(F(2))
    state = state.step(Term(F(1), F(1)))
    assert state.value == F(3)
    state = state.step(Term(F(2), F(1)))
    assert state.value == F(8, 3)


def test_step_example_tanh_first_term():
    state = ConvergentState.initial(F(0)).step(Term(F(1), F(1)))
    assert state.value == F(1)


def test_determinant_recurrence_random_expansions():
    rng = random.Random(101)
    for _ in range(20):
        cf = _random_positive_cf(rng, depth=30)
        state = ConvergentState.initial(cf.leading)
        for i in range(1, 31):
            term = cf.term(i)
            nxt = state.step(term)
            assert nxt.determinant == -term.b * state.determinant
            assert nxt.k_curr != 0
            state = nxt


def test_convergents_e_pattern_depth_six():
    got = convergents(e_simple_cf(), 6)
    assert got == [F(3), F(8, 3), F(11, 4), F(19, 7), F(87, 32), F(106, 39)]


def test_convergents_tanh_one_half():
    assert convergents(tanh_integer_cf(1, 2), 3) == [F(1, 2), F(6, 13), F(61, 132)]


def test_convergents_depth_one_is_first_level():
    cf = _random_positive_cf(random.Random(7), depth=3, leading=5)
    first = cf.term(1)
    assert convergents(cf, 1) == [cf.leading + first.b / first.a]


def test_convergents_rejects_bad_depth():
    with pytest.raises(ValueError):
        convergents(e_simple_cf(), 0)


def test_convergents_list_too_short():
    cf = ContinuedFraction(F(0), ExplicitListRule((Term(F(2), F(1)),)))
    with pytest.raises(ExpansionExhaustedError):
        convergents(cf, 2)


@pytest.mark.parametrize(
    "cf",
    [e_simple_cf(), tanh_integer_cf(1, 2), tanh_integer_cf(3, 2), gauss_tanh_cf(F(3, 2))],
    ids=["e", "tanh12", "tanh32", "gauss32"],
)
def test_convergents_match_bottom_up_oracle(cf):
    got = convergents(cf, 30)
    for depth in range(1, 31):
        assert got[depth - 1] == bottom_up_value(cf, depth)


def test_convergents_match_bottom_up_on_random_expansions():
    rng = random.Random(2024)
    for _ in range(10):
        cf = _random_positive_cf(rng, depth=30, leading=rng.randint(0, 5))
        got = convergents(cf, 30)
        for depth in (1, 2, 3, 7, 15, 30):
            assert got[depth - 1] == bottom_up_value(cf, depth)


def test_alternating_bracketing():
    for cf in (e_simple_cf(), tanh_integer_cf(2, 3), gauss_tanh_cf(F(5, 2))):
        values = [cf.leading] + convergents(cf, 25)
        signs = [
            1 if values[i] > values[i - 1] else -1 for i in range(1, len(values))
        ]
        assert all(signs[i] == -signs[i - 1] for i in range(1, len(signs)))


def test_evaluate_gauss_tanh_one():
    # c_3 = 16/21 still has gap 1/84 > 1/100; the first gap within tolerance
    # is |c_4 - c_3| = 1/3171.
    got = evaluate(gauss_tanh_cf(F(1)), F(1, 100))
    assert got == ApproximationResult(F(115, 151), F(1, 3171), 4)
    assert abs(F(16, 21) - F(3, 4)) == F(1, 84)


def test_evaluate_e_pattern():
    got = evaluate(e_simple_cf(), F(1, 1000))
    assert got == ApproximationResult(F(106, 39), F(1, 1248), 6)
    assert abs(F(87, 32) - F(19, 7)) == F(1, 224)  # too wide, must go deeper


def test_evaluate_single_term_list_stops_on_gap():
    cf = ContinuedFraction(F(0), ExplicitListRule((Term(F(2), F(1)),)))
    got = evaluate(cf, F(1))
    assert got == ApproximationResult(F(1, 2), F(1, 2), 1)


def test_evaluate_exhausted_finite_list_is_exact():
    cf = ContinuedFraction(F(0), ExplicitListRule((Term(F(2), F(1)),)))
    got = evaluate(cf, F(1, 10))
    assert got == ApproximationResult(F(1, 2), F(0), 1)


def test_evaluate_rejects_nonpositive_terms():
    cf = ContinuedFraction(
        F(0), ExplicitListRule((Term(F(1), F(1)), Term(F(-1), F(1))))
    )
    with pytest.raises(NonPositiveTermError) as info:
        evaluate(cf, F(1, 10**6))
    assert info.value.index == 2


def test_evaluate_depth_cap_carries_best():
    golden = ContinuedFraction(
        F(0), ClosedFormRule(b_first=F(1), b_rest=F(1), a_slope=F(0), a_intercept=F(1))
    )
    with pytest.raises(DepthCapError) as info:
        evaluate(golden, F(1, 10**40), max_depth=10)
    best = info.value.best
    assert best.depth == 10
    assert best.value == bottom_up_value(golden, 10)


def test_evaluate_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        evaluate(e_simple_cf(), F(0))


def test_evaluate_rejects_max_depth_below_one():
    with pytest.raises(ValueError, match="max_depth must be >= 1"):
        evaluate(e_simple_cf(), F(1, 10), max_depth=0)


def test_identity_transform_folds_to_same_closed_form():
    cf = gauss_tanh_cf(F(2, 3))
    same = equivalence_transform(cf, F(1))
    assert same.rule == cf.rule
    assert same.leading == cf.leading


def test_identity_transform_on_pattern_rule_keeps_terms():
    cf = e_simple_cf()
    scaled = equivalence_transform(cf, lambda i: F(1))
    assert isinstance(scaled.rule, ScaledRule)
    assert terms(scaled, 12) == terms(cf, 12)


def test_transform_gauss_half_by_two():
    # clears z = 1/2 into the integer stream b_1 = 1, b_i = 1, a_i = 2(2i - 1)
    got = terms(equivalence_transform(gauss_tanh_cf(F(1, 2)), F(2)), 4)
    assert [(t.b, t.a) for t in got] == [
        (F(1), F(2)),
        (F(1), F(6)),
        (F(1), F(10)),
        (F(1), F(14)),
    ]


def test_transform_gauss_three_halves_by_two():
    got = terms(equivalence_transform(gauss_tanh_cf(F(3, 2)), F(2)), 4)
    assert [(t.b, t.a) for t in got] == [
        (F(3), F(2)),
        (F(9), F(6)),
        (F(9), F(10)),
        (F(9), F(14)),
    ]


def test_transform_rejects_zero_constant():
    with pytest.raises(ZeroScaleError):
        equivalence_transform(gauss_tanh_cf(F(1)), F(0))


def test_transform_zero_scale_reported_when_consumed():
    scaled = equivalence_transform(
        gauss_tanh_cf(F(1)), lambda i: F(0) if i == 3 else F(1)
    )
    assert scaled.term(2) is not None
    with pytest.raises(ZeroScaleError) as info:
        scaled.term(3)
    assert info.value.index == 3


def test_transform_zero_scale_in_explicit_list_immediate():
    cf = ContinuedFraction(F(0), ExplicitListRule((Term(F(1), F(1)), Term(F(2), F(1)))))
    with pytest.raises(ZeroScaleError) as info:
        equivalence_transform(cf, lambda i: F(2 - i))
    assert info.value.index == 2


def test_transform_preserves_convergents_constant_scales():
    for x in range(1, 5):
        for y in range(1, 5):
            base = gauss_tanh_cf(F(x, y))
            scaled = equivalence_transform(base, F(y))
            assert convergents(base, 12) == convergents(scaled, 12)


def test_constant_transform_on_pattern_rule_keeps_convergents():
    # A constant scale on a rule that is not closed-form goes through ScaledRule.
    cf = e_simple_cf()
    scaled = equivalence_transform(cf, F(3, 2))
    assert isinstance(scaled.rule, ScaledRule)
    assert terms(scaled, 3) != terms(cf, 3)
    assert convergents(scaled, 30) == convergents(cf, 30)


def test_transform_preserves_convergents_per_index_scales():
    base = gauss_tanh_cf(F(2, 5))
    scaled = equivalence_transform(base, lambda i: F(i))
    assert convergents(base, 10) == convergents(scaled, 10)
    # the terms themselves do change
    assert terms(base, 3) != terms(scaled, 3)
    # an explicit list stays an eager list of the lazily scaled terms
    listed = _random_positive_cf(random.Random(7), 12, leading=F(3, 2))
    scaled = equivalence_transform(listed, lambda i: F(i, 3))
    lazy = ScaledRule(listed.rule, lambda i: F(i, 3))
    assert isinstance(scaled.rule, ExplicitListRule) and len(scaled.rule) == 12
    assert [scaled.term(i) for i in range(1, 13)] == [lazy.term(i) for i in range(1, 13)]
    assert convergents(listed, 12) == convergents(scaled, 12)


def test_closed_form_integer_coefficients_give_integer_terms():
    rule = tanh_integer_cf(3, 2).rule
    assert isinstance(rule, ClosedFormRule)
    for i in range(1, 1001):
        term = rule.term(i)
        assert term.a.denominator == 1 and term.b.denominator == 1


# ------------------------------------------ term arithmetic against the reference


class _Ratio(Fraction):
    """A Fraction subclass, which Term and ClosedFormRule convert like any other value."""


_COEFFICIENTS = st.fractions() | st.integers(-(10**30), 10**30)


@settings(max_examples=300, deadline=None)
@given(
    b_first=_COEFFICIENTS,
    b_rest=_COEFFICIENTS,
    a_slope=_COEFFICIENTS,
    a_intercept=_COEFFICIENTS | st.just(F(0)),
    i=st.integers(1, 10**6) | st.just(1),
)
def test_closed_form_terms_match_the_fraction_reference(b_first, b_rest, a_slope, a_intercept, i):
    rule = ClosedFormRule(b_first, b_rest, a_slope, a_intercept)
    try:
        want = reference_closed_form_term(b_first, b_rest, a_slope, a_intercept, i)
    except ValueError as refusal:
        with pytest.raises(ValueError) as caught:
            rule.term(i)
        assert str(caught.value) == str(refusal)
        return
    term = rule.term(i)
    assert type(term.a) is Fraction and type(term.b) is Fraction
    got = [(q.numerator, q.denominator) for q in (term.a, term.b)]
    assert got == [(q.numerator, q.denominator) for q in want]


_KINDS = (3, -2.25, _Ratio(7, -3), F(5, 4))


@pytest.mark.parametrize("a", _KINDS)
@pytest.mark.parametrize("b", _KINDS)
def test_terms_and_rules_store_plain_fractions_whatever_they_are_given(a, b):
    term = Term(a, b)
    want = Term(Fraction(a), Fraction(b))
    assert (term.a, term.b) == (want.a, want.b)
    assert type(term.a) is Fraction and type(term.b) is Fraction
    rule = ClosedFormRule(b, b, a, a)
    for value in (rule.b_first, rule.b_rest, rule.a_slope, rule.a_intercept):
        assert type(value) is Fraction
    assert (rule.b_first, rule.a_slope) == (Fraction(b), Fraction(a))


@pytest.mark.parametrize("zero", [0, F(0), 0.0, -0.0, _Ratio(0)])
def test_a_zero_partial_numerator_is_refused_whatever_its_type(zero):
    for build in (lambda: Term(F(3), zero), lambda: ClosedFormRule(zero, 1, 2, -1).term(1),
                  lambda: ClosedFormRule(1, zero, 2, -1).term(2)):
        with pytest.raises(ValueError) as refusal:
            build()
        assert str(refusal.value) == "partial numerator must be nonzero"
