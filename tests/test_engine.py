"""The integer engine against the Fraction loops it replaced.

Every view of the engine (evaluate, convergents, tanh_rational,
exp_rational, certified_digits and the convergent table rows) must agree
field by field with the reference loops in tests/oracles.py: values, error
bounds, depths, the best result carried by DepthCapError, exhaustion of
finite lists and the index of a non-positive term.
"""

import time
from decimal import Decimal
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfrac import cli, core
from cfrac.core import (
    DEPTH_CAP,
    ClosedFormRule,
    ContinuedFraction,
    EPatternRule,
    ExplicitListRule,
    ScaledRule,
    Term,
    convergents,
    equivalence_transform,
    evaluate,
)
from cfrac.errors import (
    DepthCapError,
    DomainError,
    ExpansionExhaustedError,
    NonPositiveTermError,
)
from cfrac.expansions import (
    certified_enclosures,
    e_simple_cf,
    exp_rational,
    tanh_integer_cf,
    tanh_rational,
)

from tests.oracles import (
    ConvergentState,
    decimal_preview as oracle_preview,
    reference_certified_digits,
    reference_convergent_rows,
    reference_evaluate,
    reference_exp_rational,
    reference_tanh_rational,
)

F = Fraction

PROPERTY = settings(max_examples=150, deadline=None)


def _fields(result):
    return None if result is None else (result.value, result.error_bound, result.depth)


def outcome(fn, *args):
    """What a call returned or raised, as plain comparable fields.

    ApproximationResult is compared by fields, not by dataclass equality, so
    the comparison holds whichever copy of the module built the result.
    """
    try:
        result = fn(*args)
    except DepthCapError as exc:
        return ("depth cap", str(exc), _fields(exc.best))
    except NonPositiveTermError as exc:
        return ("non-positive", exc.index, exc.term.a, exc.term.b)
    except ExpansionExhaustedError as exc:
        return ("exhausted", exc.index, exc.length)
    except (DomainError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    except ZeroDivisionError:  # k_n = 0; the message quotes the scaled h_n
        return ("zero division",)
    return ("ok", result if isinstance(result, (tuple, list)) else _fields(result))


def rendered_digits(expr, x, y, digits):
    integer_part, fractional_part, depth = cli.certified_digits(expr, x, y, digits)
    return f"{integer_part}.{fractional_part}", depth


rationals = st.builds(F, st.integers(-30, 60), st.integers(1, 12))
positive_rationals = st.builds(F, st.integers(1, 60), st.integers(1, 12))
nonzero_rationals = rationals.filter(bool)


def _scale(i):
    return F(i % 4 + 1, i % 3 + 2)


@st.composite
def rational_expansions(draw, positive=True):
    """Rational leading term and rational terms, in every rule shape.

    Explicit lists (also behind ScaledRule, so exhaustion passes through the
    scale), closed forms with rational or integer coefficients, and the e
    pattern: the integer fast paths and the integerising scale both run.
    """
    leading = draw(rationals)
    a_values = positive_rationals if positive else rationals
    b_values = positive_rationals if positive else nonzero_rationals
    shape = draw(st.sampled_from(["list", "scaled list", "closed", "integer closed", "e"]))
    if shape in ("list", "scaled list"):
        rule = ExplicitListRule(tuple(draw(st.lists(st.builds(Term, a_values, b_values), max_size=25))))
        if shape == "scaled list":
            rule = ScaledRule(rule, _scale)
    elif shape == "e":
        rule = EPatternRule()
    else:
        whole = st.builds(F, st.integers(1, 40)) if shape == "integer closed" else positive_rationals
        rule = ClosedFormRule(
            b_first=draw(whole), b_rest=draw(whole), a_slope=draw(whole), a_intercept=draw(whole)
        )
        if shape == "closed" and draw(st.booleans()):
            return equivalence_transform(ContinuedFraction(leading, rule), _scale)
    return ContinuedFraction(leading, rule)


tolerances = st.one_of(
    st.builds(lambda k: F(1, 10**k), st.integers(0, 80)),
    st.builds(F, st.integers(1, 1000), st.integers(1, 10**30)),
)
max_depths = st.one_of(st.integers(1, 120), st.just(DEPTH_CAP))


@PROPERTY
@given(rational_expansions(), tolerances, st.integers(1, 120))
def test_evaluate_matches_reference_on_rational_expansions(cf, tol, max_depth):
    assert outcome(evaluate, cf, tol, max_depth) == outcome(reference_evaluate, cf, tol, max_depth)


@PROPERTY
@given(rational_expansions(positive=False), tolerances, st.integers(1, 40))
def test_evaluate_reports_the_same_non_positive_term(cf, tol, max_depth):
    assert outcome(evaluate, cf, tol, max_depth) == outcome(reference_evaluate, cf, tol, max_depth)


@PROPERTY
@given(rational_expansions(positive=False), st.integers(1, 40))
def test_convergents_match_the_reference_step(cf, depth):
    def reference(cf, depth):
        state, out = ConvergentState.initial(cf.leading), []
        for i in range(1, depth + 1):
            state = state.step(cf.term(i))
            out.append(state.value)
        return out

    assert outcome(convergents, cf, depth) == outcome(reference, cf, depth)


@PROPERTY
@given(st.integers(-300, 300), st.integers(-2, 60), tolerances, max_depths)
def test_exp_rational_matches_reference(x, y, tol, max_depth):
    got = outcome(exp_rational, x, y, tol, max_depth)
    assert got == outcome(reference_exp_rational, x, y, tol, max_depth)


@PROPERTY
@given(st.integers(-5, 300), st.integers(-2, 60), tolerances, max_depths)
def test_tanh_rational_matches_reference(x, y, tol, max_depth):
    got = outcome(tanh_rational, x, y, tol, max_depth)
    assert got == outcome(reference_tanh_rational, x, y, tol, max_depth)


@PROPERTY
@given(
    st.sampled_from(["exp", "tanh"]),
    st.integers(-60, 80),
    st.integers(1, 30),
    st.lists(st.integers(0, 60), min_size=1, max_size=6),
)
def test_enclosures_resume_where_a_fresh_evaluation_stops(expr, x, y, exponents):
    # Repeated tolerances make the walk re-test the state it stopped at.
    x = x if expr == "exp" else abs(x) + 1
    reference = reference_exp_rational if expr == "exp" else reference_tanh_rational
    tolerances = [F(1, 10**k) for k in sorted(exponents)]
    enclosures = certified_enclosures(expr, x, y, tolerances)
    for tol, (a, b, c, d, depth) in zip(tolerances, enclosures, strict=True):
        want = reference(x, y, tol)
        assert depth == want.depth
        assert b > 0 and c >= 0 and d > 0
        assert (F(a, b) - F(c, b * d), F(a, b) + F(c, b * d)) == (
            want.value - want.error_bound,
            want.value + want.error_bound,
        )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["exp", "tanh"]), st.integers(-40, 80), st.integers(-1, 30), st.integers(0, 120))
def test_certified_digits_resume_stops_where_restarts_stop(expr, x, y, digits):
    got = outcome(rendered_digits, expr, x, y, digits)
    assert got == outcome(reference_certified_digits, expr, x, y, digits)


@st.composite
def tables(draw):
    """(x, y, depth): tanh(x/y) with x, y <= 60, often sharing a factor, so
    that P_n > 1 and rows need reducing; x = 0 stands for e, to depth 600."""
    g = draw(st.sampled_from([1, 1, 2, 3, 6, 12]))
    x, y = (g * draw(st.integers(1, 60 // g)) for _ in range(2))
    if draw(st.booleans()):
        return 0, 1, draw(st.integers(1, 600))
    return x, y, draw(st.integers(1, 300))


@settings(max_examples=60, deadline=None)
@given(tables())
@example((0, 1, 600))
@example((60, 1, 300))
@example((2, 1, 3))  # gap 2/1 prints as "2"
@example((2, 4, 80))
@example((6, 35, 120))
@example((12, 18, 120))
@example((7, 3, 300))
def test_convergent_rows_match_reference(table):
    x, y, depth = table
    cf = tanh_integer_cf(x, y) if x else e_simple_cf()
    assert cli._convergent_rows(cf, depth) == reference_convergent_rows(cf, depth)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-(10**40), 10**40),
    st.integers(1, 10**40) | st.sampled_from([1, 3, 10, 10**7, 10**20]),
    st.integers(1, 25),
)
def test_decimal_preview_matches_the_fraction_preview(h, k, sig):
    assert cli.decimal_preview(h, k, sig) == oracle_preview(F(h, k), sig)
    assert cli.decimal_preview(Decimal(h), Decimal(k), sig) == oracle_preview(F(h, k), sig)


def test_exhausted_list_behind_a_scale_is_exact():
    cf = ContinuedFraction(F(1, 3), ScaledRule(ExplicitListRule((Term(F(2, 5), F(3, 7)),)), _scale))
    got = evaluate(cf, F(1, 10**6))
    assert _fields(got) == _fields(reference_evaluate(cf, F(1, 10**6)))
    assert got.error_bound == 0 and got.depth == 1


# ------------------------------------------------- regressions, fixed depths


def test_digits_tanh_of_one_thousand_pins_ten_digits(capsys):
    # tanh(1000) lies about 1e-868 below the truncation boundary 1.
    code = cli.run(["digits", "--expr", "tanh", "--x", "1000", "--y", "1", "--digits", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "0.9999999999"
    assert out.splitlines()[2] == "expansion depth: 1510"


def test_digits_tanh_of_one_thousand_rarely_multiplies_out(monkeypatch):
    # Its 215 refinement rounds make about a thousand product comparisons;
    # the leading bits should decide nearly all of them.
    fallbacks = []
    exact = core._exact_compare

    def counted(xs, ys):
        fallbacks.append((xs, ys))
        return exact(xs, ys)

    monkeypatch.setattr(core, "_exact_compare", counted)
    assert cli.certified_digits("tanh", 1000, 1, 10) == ("0", "9999999999", 1510)
    assert len(fallbacks) <= 5


def test_certified_digits_of_e_keep_their_depth():
    integer_part, fractional_part, depth = cli.certified_digits("exp", 1, 1, 1000)
    assert depth == 204
    assert integer_part == "2" and len(fractional_part) == 1000
    assert fractional_part.startswith("71828182845904523536")


def test_exp_at_ten_thousand_digit_tolerance_keeps_its_depth():
    start = time.perf_counter()
    got = exp_rational(1, 1, F(1, 10**10002))
    elapsed = time.perf_counter() - start
    assert got.depth == 1497
    assert got.error_bound <= F(1, 10**10002)
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
