"""The integer engine against the Fraction loops it replaced.

Every view of the engine (evaluate, convergents, tanh_rational,
exp_rational, certified_digits and the convergent table rows) must agree
field by field with the reference loops in tests/oracles.py: values, error
bounds, depths, the best result carried by DepthCapError, exhaustion of
finite lists and the index of a non-positive term.
"""

import time
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice
from math import factorial, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfrac import cli, core, expansions
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

from bench.workloads import GRIDS
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
@example(0, 0, F(0), DEPTH_CAP)  # y is checked before tol
@example(0, 1, F(0), DEPTH_CAP)  # tol is checked before the x = 0 arm
@example(3, 1, F(-1, 10), DEPTH_CAP)
@example(1, 1, F(1, 10**9), 1)  # depth 1 sits on the pole: best is None
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


@pytest.mark.parametrize("expr", ["exp", "tanh"])
@pytest.mark.parametrize("bad", [0, F(-1, 10), -5])
@pytest.mark.parametrize("good", [[], [F(1, 10)]])
def test_enclosures_refuse_non_positive_tolerances_before_walking(monkeypatch, expr, bad, good):
    refine = core._GapBound.refine
    runs = []

    def run(self, tol, max_depth):
        # Only the good tolerances may walk; a walk to a bad one would not end soon.
        assert len(runs) < len(good), "walked toward a tolerance that should be refused"
        runs.append(max_depth)
        return refine(self, tol, max_depth)

    monkeypatch.setattr(core._GapBound, "refine", run)
    enclosures = certified_enclosures(expr, 1, 2, [*good, bad])
    for _ in good:
        assert next(enclosures)[4] >= 1
    with pytest.raises(ValueError, match=r"^tol must be > 0$"):
        next(enclosures)


_BOUNDED_CALLS = [
    pytest.param(lambda tol, m: exp_rational(1, 1, tol, m), id="exp x=1"),
    pytest.param(lambda tol, m: exp_rational(0, 1, tol, m), id="exp x=0"),
    pytest.param(lambda tol, m: tanh_rational(1, 1, tol, m), id="tanh"),
    pytest.param(lambda tol, m: next(certified_enclosures("exp", 1, 1, [tol], m)), id="enclosures exp"),
    pytest.param(lambda tol, m: next(certified_enclosures("tanh", 1, 1, [tol], m)), id="enclosures tanh"),
    pytest.param(lambda tol, m: evaluate(e_simple_cf(), tol, m), id="evaluate"),
]


@pytest.mark.parametrize("call", _BOUNDED_CALLS)
@pytest.mark.parametrize("max_depth", [0, -3])
def test_a_max_depth_below_one_is_refused_before_walking(monkeypatch, call, max_depth):
    def refine(self, tol, max_depth):
        raise AssertionError("walked with a max_depth that should be refused")

    monkeypatch.setattr(core._GapBound, "refine", refine)
    with pytest.raises(ValueError, match=r"^max_depth must be >= 1$"):
        call(F(1, 100), max_depth)
    with pytest.raises(ValueError, match=r"^tol must be > 0$"):
        call(F(0), max_depth)


@pytest.mark.parametrize(
    "evaluator,args,max_depth",
    [(exp_rational, (1, 2), 5), (tanh_rational, (1, 2), 3), (evaluate, (e_simple_cf(),), 3)],
)
def test_a_depth_cap_past_the_int_str_limit_keeps_its_type_and_best(evaluator, args, max_depth):
    # str() of a Fraction with a 5001-digit denominator raises ValueError.
    with pytest.raises(DepthCapError) as tiny:
        evaluator(*args, F(1, 10**5000), max_depth)
    with pytest.raises(DepthCapError) as small:
        evaluator(*args, F(1, 10**100), max_depth)
    assert str(tiny.value) == f"tolerance 1/1{'0' * 5000} not reached within {max_depth} terms"
    assert tiny.value.best is not None
    assert _fields(tiny.value.best) == _fields(small.value.best)


def test_a_depth_cap_writes_a_whole_tolerance_as_str_does():
    # e^1000 stays at the pole of the exp map for its first terms: no bound, no best.
    with pytest.raises(DepthCapError, match=r"^tolerance 1 not reached within 3 terms$") as info:
        exp_rational(1000, 1, F(1), 3)
    assert info.value.best is None


@pytest.mark.parametrize("expr", ["exp", "tanh"])
def test_enclosures_read_a_float_tolerance_as_its_exact_fraction(expr):
    assert list(certified_enclosures(expr, 1, 2, [0.1])) == list(
        certified_enclosures(expr, 1, 2, [F(0.1)])
    )


def test_enclosures_of_exp_at_zero_check_each_tolerance_first():
    enclosures = certified_enclosures("exp", 0, 1, [F(1), F(0)])
    assert next(enclosures) == (1, 1, 0, 1, 0)
    with pytest.raises(ValueError, match=r"^tol must be > 0$"):
        next(enclosures)


@pytest.mark.parametrize("expr", ["sin", "EXP", ""])
def test_an_unknown_expression_is_refused(expr):
    message = f"^expr must be 'exp' or 'tanh', not '{expr}'$"
    with pytest.raises(DomainError, match=message):
        next(certified_enclosures(expr, 1, 2, [F(1, 10)]))
    with pytest.raises(DomainError, match=message):
        cli.certified_digits(expr, 1, 2, 5)


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
    rows = list(map(cli._cells, cli._convergent_rows(cf, depth)))
    assert rows == reference_convergent_rows(cf, depth)


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


# ------------------------------------------------- terms equal to 1


def plain_walk(cf, depth):
    """The states of ``core._walk`` to ``depth``, by the recurrence as written: a product per multiplier."""
    n, h_prev, h, k_prev, k, p = core._origin(cf)
    states = [(n, h_prev, h, k_prev, k, p)]
    for a, b in islice(core._integer_terms(cf), depth):
        n += 1
        h_prev, h = h, a * h + b * h_prev
        k_prev, k = k, a * k + b * k_prev
        p *= b
        states.append((n, h_prev, h, k_prev, k, p))
    return states


@st.composite
def unit_term_lists(draw):
    """A rational leading term and an explicit list of integer terms, most of them 1."""
    mostly_one = st.sampled_from([1, 1, 1, 2, 3])
    terms = draw(st.lists(st.builds(Term, mostly_one, mostly_one), min_size=1, max_size=40))
    return ContinuedFraction(draw(rationals), ExplicitListRule(terms))


# b != 1 at rows 3 and 5 reaches S_n and Q_n two rows later; c_0 = 2 makes b_1' = 4
_MIXED_UNITS = [(1, 2), (2, 1), (1, 3), (1, 1), (3, 2), (1, 1), (2, 1)]


@PROPERTY
@given(unit_term_lists())
@example(ContinuedFraction(F(1, 2), ExplicitListRule(Term(a, b) for a, b in _MIXED_UNITS)))
def test_unit_terms_walk_and_tabulate_as_the_plain_recurrence(cf):
    depth = len(cf.rule)
    expected = plain_walk(cf, depth)
    assert list(islice(core._walk(cf), depth + 1)) == expected
    with localcontext(cli._EXACT):
        decimals = list(islice(core._walk(cf, num=Decimal), depth + 1))
    assert decimals == expected
    assert {type(x) for state in decimals for x in state[1:]} == {Decimal}
    rows = list(map(cli._cells, cli._convergent_rows(cf, depth)))
    assert rows == reference_convergent_rows(cf, depth)


class Counting:
    """An int wrapper that counts its multiplications in ``Counting.products``."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __int__(self):
        return self.value

    def __add__(self, other):
        return Counting(self.value + int(other))

    def __mul__(self, other):
        Counting.products += 1
        return Counting(self.value * int(other))

    __radd__, __rmul__ = __add__, __mul__


@pytest.mark.parametrize(
    "cf, depth, products",
    [
        (e_simple_cf(), 300, 200),  # two per term with a != 1, none for b = 1
        (tanh_integer_cf(7, 3), 50, 250),  # no term is 1: five per term
    ],
)
def test_a_term_equal_to_one_costs_no_product(monkeypatch, cf, depth, products):
    monkeypatch.setattr(Counting, "products", 0)
    states = list(islice(core._walk(cf, num=Counting), depth + 1))
    assert Counting.products == products
    assert [(n, *map(int, rest)) for n, *rest in states] == plain_walk(cf, depth)


# ------------------------------------------------- the edges of a leap


def _stop_tests(monkeypatch):
    """Wrap the stop test of the bound; return the list of depths it tests."""
    tested = []

    def counting(self, tol, stop=core._GapBound.stop):
        test = stop(self, tol)

        def counted(state):
            tested.append(state[0])
            return test(state)

        return counted

    monkeypatch.setattr(core._GapBound, "stop", counting)
    return tested


@PROPERTY
@given(
    st.sampled_from(["exp", "tanh"]),
    st.integers(-80, 300),
    st.integers(1, 60),
    st.lists(tolerances, min_size=1, max_size=5).map(lambda ts: sorted(ts, reverse=True)),
    st.integers(1, 60),
)
@example("exp", 60, 1, [F(1, 10**100)], 60)  # the capped state has a bound
@example("exp", 80, 1, [F(1, 10**100)], 60)  # leaps past states with no bound
@example("exp", -80, 1, [F(1, 10**100)], 60)
@example("exp", 80, 1, [F(1, 10**100)], 3)  # caps at states with no bound: best is a walk's
@example("exp", -80, 1, [F(1, 10**100)], 3)
@example("exp", 80, 1, [F(1, 10**100)], 20)
@example("exp", -80, 1, [F(1, 10**100)], 20)
@example("tanh", 1000, 1, [F(1, 10**12), F(1, 10**16), F(1, 10**16)], 60)
def test_leaps_stop_and_cap_where_the_reference_does(expr, x, y, tolerances, max_depth):
    # Each tolerance against a fresh reference evaluation: value, bound and
    # depth, or the DepthCapError with its message and best.
    reference = reference_exp_rational if expr == "exp" else reference_tanh_rational
    evaluator = exp_rational if expr == "exp" else tanh_rational
    enclosures = certified_enclosures(expr, x, y, tolerances, max_depth)
    for tol in tolerances:
        want = outcome(reference, x, y, tol, max_depth)
        assert outcome(lambda: _fields(core._approximation(*next(enclosures)))) == want
        assert outcome(evaluator, x, y, tol, max_depth) == want
        if want[0] != "ok":
            break


@PROPERTY
@given(
    st.sampled_from(["exp", "tanh"]),
    st.integers(-3000, 3000).filter(bool),
    st.integers(1, 60),
    st.integers(1, 300),
    st.integers(1, 300),
    st.sampled_from([F(1), F(2**64 - 1, 2**64)]),
)
@example("tanh", 3000, 1, 300, 250, F(1))
@example("exp", -3000, 7, 120, 100, F(2**64 - 1, 2**64))
def test_a_tolerance_on_a_states_own_bound_stops_where_a_walk_does(expr, x, y, m, n, below):
    # The edge of the leap bound: tol is the bound of the state at depth
    # m itself, which then just passes the stop test, or a hair below
    # it, which just fails.  Fresh, and resumed from the bound of an earlier
    # state, refine stops where testing each state of ``_walk`` in turn does.
    x = abs(x) if expr == "tanh" else x

    def make():
        return expansions._exp_bound(x, y) if expr == "exp" else core._GapBound(expansions._reduced_tanh_cf(x, y))

    def bound_of(state):
        _, b, c, d, _ = make()._enclosure(state)
        return F(c, b * d) if d > 0 else None

    def walked(tol):
        stop = make().stop(tol)
        return next((state[0] for state in states if stop(state)), None)

    states = list(islice(core._walk(make().cf), 1, m + 400))
    assume(bound_of(states[m - 1]) is not None)
    tol = bound_of(states[m - 1]) * below
    coarse = max(bound_of(states[min(n, m) - 1]) or tol, tol)
    assume(walked(tol) is not None)
    depths = [enclosure[4] for enclosure in certified_enclosures(expr, x, y, [coarse, tol])]
    assert depths == [walked(coarse), walked(tol)]
    assert make().refine(tol, DEPTH_CAP)[4] == walked(tol)


@PROPERTY
@given(
    st.sampled_from(["exp", "tanh"]),
    st.integers(-300, 300).filter(bool),
    st.integers(1, 60),
    st.integers(0, 120),
)
@example("exp", 1, 1, 0)
@example("tanh", 1, 1, 0)
@example("exp", 5, 2, 1)  # the room of a state with t >= 1
@example("exp", 300, 7, 31)  # t >= 1 at depth 31, and a bound from depth 33 on
@example("exp", -300, 7, 31)
@example("tanh", 300, 1, 100)  # convergents above 1 in the window
def test_every_later_exp_state_with_a_bound_is_within_the_room(expr, x, y, n):
    # The room e of a state claims eps <= bound 2^e at every later state that
    # has a bound, so a state whose gap is above tol 2^e fails the stop test.
    # For exp the claim is strict: the pole term makes the bound exceed
    # 2 eps/(r t + s)^2.  tanh's bound is its gap, and its room is 0.
    if expr == "exp":
        bound = expansions._exp_bound(x, y)
    else:
        bound = core._GapBound(expansions._reduced_tanh_cf(abs(x), y))
    states = list(islice(core._walk(bound.cf), n, n + 25))
    room = F(2) ** bound._room(states[0])
    for state in states[1:]:
        _, _, h, k_prev, k, p = state
        if expr == "tanh" or p < (k - h) * k_prev:
            a, b, c, d, _ = bound._enclosure(state)
            eps, within = F(p, k * k_prev), F(c, b * d) * room
            assert eps < within if expr == "exp" else eps <= within


@pytest.mark.parametrize("x, y", [(1, 1), (5, 2), (80, 1), (300, 7), (1000, 3)])
def test_the_room_of_a_map_with_a_pole_at_x_below_zero_is_one(x, y):
    # For x < 0, m = k + h >= k, so w >= 3 exceeds the cap and the room is 2
    # + 1 - bl(2) = 1 at every state; for x > 0 it is 2 min(w, 0) - 1 <= -1,
    # and tanh's is 0.  States 0-80, depth 0 and states with h >= k included.
    below, above = expansions._exp_bound(-x, y), expansions._exp_bound(x, y)
    tanh = core._GapBound(above.cf)
    states = list(islice(core._walk(above.cf), 81))
    assert any(h >= k for _, _, h, _, k, _ in states) == (x >= 2 * y)  # c_1 = x/(2y)
    for state in states:
        assert (below._room(state), tanh._room(state)) == (1, 0)
        assert above._room(state) <= -1


@st.composite
def pole_test_states(draw):
    """States (n, h', h, k', k, P) with bl(P) - bl(k - h) - bl(k') in -3..1, or P near (k - h) k'.

    Those are the states at and around the edge of a bit-length test
    bl(P) < bl(u) + bl(k') - 1 on P < u k', u = k - h; a few have h >= k.
    """
    def sized(low):
        bits = draw(st.integers(low, 200))
        return draw(st.integers(2 ** (bits - 1), 2**bits - 1)) if bits else 0

    k_prev, h, u = sized(1), sized(0), sized(0) * draw(st.sampled_from([1, 1, 1, -1]))
    if draw(st.booleans()):
        p = u * k_prev + draw(st.integers(-2, 2))
    else:
        bits = u.bit_length() + k_prev.bit_length() + draw(st.integers(-3, 1))
        p = draw(st.integers(2 ** (bits - 1), 2**bits - 1)) if bits > 1 else 1
    return 1, 0, max(h, -u), k_prev, max(h, -u) + u, max(p, 1)


@settings(max_examples=400, deadline=None)
@given(pole_test_states())
@example((1, 0, 0, 1, 1, 1))  # P = u k'
@example((1, 0, 5, 7, 5, 1))  # h = k
@example((1, 0, 2**70, 2**80 + 1, 2**71 + 1, 2**150 - 1))  # bl(P) = bl(u) + bl(k') - 2
def test_the_pole_test_is_the_exact_comparison(state):
    _, _, h, k_prev, k, p = state
    want = k - h > 0 and p < (k - h) * k_prev
    for x in (1, -1):
        assert expansions._exp_bound(x, 1)._bounded(state) == want
    assert core._GapBound(tanh_integer_cf(1, 1))._bounded(state)


@pytest.mark.parametrize("length", [40, 32])  # runs out inside a chunk, and right after one
def test_a_list_that_runs_out_in_a_leap_ends_exactly_on_its_last_term(monkeypatch, length):
    # Far below the gap of every state, the leap bound rules all of them out,
    # so the list runs out while terms are being folded, before any stop test.
    rule = ExplicitListRule(tuple(Term(F(i % 5 + 1), F(i % 3 + 1)) for i in range(length)))
    cf = ContinuedFraction(F(1), rule)
    tol = F(1, 10**400)
    tested = _stop_tests(monkeypatch)
    got = evaluate(cf, tol)
    assert _fields(got) == _fields(reference_evaluate(cf, tol))
    assert got.error_bound == 0 and got.depth == length
    bound = core._GapBound(cf)
    with pytest.raises(ExpansionExhaustedError):
        bound.refine(tol, DEPTH_CAP)
    states = []
    with pytest.raises(ExpansionExhaustedError):
        states.extend(core._walk(cf))
    assert bound.state == states[-1] and states[-1][0] == length
    assert F(bound.state[2], bound.state[4]) == got.value
    assert tested == []


@pytest.mark.parametrize(
    "rule",
    [
        ClosedFormRule(b_first=1, b_rest=1, a_slope=-1, a_intercept=41),  # a_41 = 0
        ExplicitListRule((*(Term(F(2 * i + 1), F(3)) for i in range(40)), Term(F(1), F(-2)))),
    ],
    ids=["closed form", "list"],
)
def test_a_term_refused_in_a_leap_is_reported_at_its_index(monkeypatch, rule):
    cf = ContinuedFraction(F(0), rule)
    tol = F(1, 10**400)
    tested = _stop_tests(monkeypatch)
    want = outcome(reference_evaluate, cf, tol)
    assert want[:2] == ("non-positive", 41)
    assert outcome(evaluate, cf, tol) == want
    assert tested == []


def test_digits_stop_test_a_handful_of_states(monkeypatch):
    # A step-by-step walk would stop-test all 566 and all 699 states.
    tested = _stop_tests(monkeypatch)
    for expr, x, y, digits, depth in (("exp", 1, 1, 3300, 566), ("tanh", 1, 2, 4200, 699)):
        tested.clear()
        assert cli.certified_digits(expr, x, y, digits)[2] == depth
        assert len(tested) <= 20


def test_the_digits_grid_stays_within_its_stop_test_budget(monkeypatch):
    # Every class of the benchmark's digits grid that should answer, in one
    # process: a step-by-step walk would stop-test 15220 states.
    tested = _stop_tests(monkeypatch)
    for cls in GRIDS["digits"]:
        if cls.expect_exit == 0:
            cli.certified_digits(*cls.params)
    assert len(tested) <= 484


@pytest.mark.parametrize("sign", [1, -1], ids=["x > 0", "x < 0"])
@pytest.mark.parametrize(
    "expansion, cap, depth",
    [
        (80, 60, None),  # Gauss's fraction at 80/2: the first state with a bound is 61
        (80, 61, 61),
        (80, 62, 62),
        (400, 302, None),  # at 400/2, 303
        (400, 303, 303),
        (400, 304, 304),
        # [-3; (1, 2), (2, 1)]: the bit-length pole test would pass depth 0
        (ContinuedFraction(F(-3), ExplicitListRule((Term(F(1), F(2)), Term(F(2), F(1))))), 1, None),
    ],
)
def test_a_cap_past_states_with_a_bound_carries_the_deepest_as_best(sign, expansion, cap, depth):
    # Caps before, at and past the first state with a bound, under either
    # exp map; ``best`` is the deepest state that a step-by-step walk with
    # the exact pole test keeps.
    if isinstance(expansion, int):
        bound = expansions._exp_bound(sign * expansion, 1)
    else:
        bound = core._GapBound(expansion, ((sign, 1), (-sign, 1)))
    with pytest.raises(DepthCapError) as info:
        bound.refine(F(1, 10**300), cap)
    walked = None
    for n, _, h, k_prev, k, p in islice(core._walk(bound.cf), 1, cap + 1):
        t, eps = F(h, k), F(p, k * k_prev)
        if t + eps < 1:
            m = 1 - sign * t
            walked = ((1 + sign * t) / m, 2 * eps / (m * (m - eps)), n)
    assert (walked and walked[2]) == depth
    assert _fields(info.value.best) == walked


@pytest.mark.parametrize(
    "call",
    [
        lambda: tanh_rational(1, 2, F(1, 10**100), 5),
        lambda: exp_rational(60, 1, F(1, 10**100), 60),  # the capped state has a bound
        lambda: exp_rational(80, 1, F(1, 10**100), 20),
    ],
    ids=["tanh", "exp, bound at the cap", "exp, no bound at the cap"],
)
def test_only_a_cap_at_a_state_with_no_bound_walks_again(monkeypatch, call):
    # No cap walks the states again, whether or not its state has a bound:
    # on Gauss's fraction no earlier state has one when the capped state has
    # none (``core._GapBound``).
    walked = []
    walk = core._walk

    def counted(cf, *args):
        walked.append(cf)
        return walk(cf, *args)

    monkeypatch.setattr(core, "_walk", counted)
    with pytest.raises(DepthCapError):
        call()
    assert walked == []


def _unscaled_gauss(z, m):
    """(H_m, K_m) of tanh z over the unscaled terms a_i = 2i - 1, b_1 = z, b_i = z^2."""
    h_prev, h, k_prev, k = 1, F(0), 0, F(1)
    for i in range(1, m + 1):
        a, b = 2 * i - 1, z if i == 1 else z * z
        h_prev, h, k_prev, k = h, a * h + b * h_prev, k, a * k + b * k_prev
    return h, k


def _pade(m, w):
    """A_m(w), the numerator of the [m/m] Pade approximant A_m(w)/A_m(-w) of e^w."""
    f = factorial
    return sum(F(f(2 * m - j) * f(m), f(2 * m) * f(j) * f(m - j)) * w**j for j in range(m + 1))


def _reverse_bessel(m, w):
    """theta_m(w) = sum_j (m + j)!/(2^j j! (m - j)!) w^(m-j)."""
    f = factorial
    return sum(F(f(m + j), 2**j * f(j) * f(m - j)) * w ** (m - j) for j in range(m + 1))


@pytest.mark.parametrize("z", [F(1, 3), F(1), F(5, 2), F(40), F(355, 113)])
def test_gauss_convergents_are_pade_approximants_of_exp(z):
    # The steps of the proof in ``core._GapBound``, in exact arithmetic:
    # (1 + c_m)/(1 - c_m) = A_m(2z)/A_m(-2z), cross-multiplied so that
    # c_m = 1 is allowed; K_m -+ H_m = theta_m(-+z); and c_m > 1 at odd m
    # once z >= (5m + 2)/4.
    for m in range(13):
        h, k = _unscaled_gauss(z, m)
        c = h / k
        assert (1 + c) * _pade(m, -2 * z) == (1 - c) * _pade(m, 2 * z)
        assert (k - h, k + h) == (_reverse_bessel(m, -z), _reverse_bessel(m, z))
        if m % 2 and z >= F(5 * m + 2, 4):
            assert c > 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10**4), st.integers(1, 50))
@example(10**4, 1)
@example(80, 2)
def test_on_gauss_fraction_a_state_with_a_bound_is_followed_by_one(x, y):
    # Over states 1 to 2z + 40 of tanh(X/Y), X/Y reduced: the pole test fails
    # and then passes for good (the first state with a bound is near 1.5 z),
    # and at every even n with c_{n-1} < 1, X^2 k_{n-1} <= (2n + 1) Y k_n.
    g = gcd(x, y)
    x, y = x // g, y // g
    bound, bounded = core._GapBound(tanh_integer_cf(x, y), ((1, 1), (-1, 1))), False
    for state in islice(core._walk(bound.cf), 1, 2 * x // y + 41):
        n, h_prev, _, k_prev, k, _ = state
        was, bounded = bounded, bound._bounded(state)
        assert bounded or not was
        if n % 2 == 0 and h_prev < k_prev:
            assert x * x * k_prev <= (2 * n + 1) * y * k
    assert bounded


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


def test_a_resumed_walk_pulls_each_term_once(monkeypatch):
    # A walk rebuilt every refinement round would print the same digits at
    # quadratic cost; only the number of terms pulled tells them apart.
    pulled = []
    integer_terms = core._integer_terms

    def counted(cf):
        for term in integer_terms(cf):
            pulled.append(term)
            yield term

    monkeypatch.setattr(core, "_integer_terms", counted)
    monkeypatch.setattr(cli, "_integer_terms", counted)
    for expr, x, y, digits, depth in (
        ("tanh", 1000, 1, 10, 1510),
        ("exp", 1, 1, 1000, 204),
        ("exp", -40, 1, 1000, 417),
    ):
        pulled.clear()
        assert cli.certified_digits(expr, x, y, digits)[2] == depth
        assert len(pulled) == depth
    pulled.clear()
    assert len(convergents(e_simple_cf(), 300)) == 300
    assert len(pulled) == 300
    pulled.clear()
    assert len(cli._convergent_rows(tanh_integer_cf(7, 3), 300)) == 300
    assert len(pulled) == 600  # the walk's terms and the rows' own
