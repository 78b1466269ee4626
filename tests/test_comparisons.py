"""The leading-bit comparisons against the exact arithmetic they stand for.

``core._compare_products`` must order two products exactly as multiplying
them out does, and ``cli._pinned`` must pin the same digits as the endpoint
rule in tests/oracles.py, including on every boundary its proof separates.
"""

from math import prod

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfrac.cli import _pinned
from cfrac.core import _compare_products

from tests.oracles import reference_pinned

PROPERTY = settings(max_examples=400, deadline=None)

#: Non-negative factors: small and exact, up to 10^4 bits, and powers of two
#: give or take a little, whose leading bits sit at a truncation edge.
factors = st.one_of(
    st.just(0),
    st.integers(0, 2**66),
    st.integers(0, 2**10_000),
    st.builds(lambda k, j: max((1 << k) + j, 0), st.integers(0, 10_000), st.integers(-2, 2)),
)


@st.composite
def product_pairs(draw):
    """(xs, ys) of 0-4 factors each: free, equal products, or products 1 apart."""
    xs = draw(st.lists(factors, max_size=4))
    kind = draw(st.sampled_from(["free", "tie", "near"]))
    if kind == "free":
        ys = draw(st.lists(factors, max_size=4))
    elif kind == "tie":
        # The same factors, regrouped: equal products of different shapes.
        shuffled = draw(st.permutations(xs))
        cut = draw(st.integers(0, len(xs)))
        ys = [prod(shuffled[:cut]), *shuffled[cut:]]
    else:
        ys = [prod(xs) + draw(st.sampled_from([-1, 1]))]
        ys = ys if ys[0] >= 0 else [1]
    if draw(st.booleans()):
        xs, ys = ys, xs
    return xs, ys


@PROPERTY
@given(product_pairs())
@example(([], []))
@example(([0], [0, 2**5000]))
@example(([2**64 - 1, 2**64 + 1], [2**128 - 1]))
@example(([2**5000 + 1], [2**4999, 2]))
@example(([3**4000, 3**4000], [3**8000 + 1]))
def test_product_comparison_matches_the_multiplied_out_one(pair):
    xs, ys = pair
    x, y = prod(xs), prod(ys)
    assert _compare_products(xs, ys) == (x > y) - (x < y)


@st.composite
def enclosure_parts(draw):
    """(a, b, c, d, scale): a value a/b with bound c/(b d), often on a boundary.

    With q, r = divmod(a scale, b) the boundaries of the pin rule are
    r d = c scale, (b - r) d = c scale and a d = c; d = scale t makes each
    reachable with an integer c, which is then moved by -1, 0 or 1.
    """
    big = st.integers(0, 2**200) | st.integers(0, 10**6)
    scale = 10 ** draw(st.integers(0, 30))
    a, b = draw(big), draw(big) + 1
    kind = draw(st.sampled_from(["free", "lower", "upper", "positive"]))
    if kind == "free":
        return a, b, draw(big), draw(big) + 1, scale
    t = draw(big) + 1
    d, r = scale * t, a * scale % b
    c = {"lower": r * t, "upper": (b - r) * t, "positive": a * d}[kind]
    return a, b, max(c + draw(st.integers(-1, 1)), 0), d, scale


@PROPERTY
@given(enclosure_parts())
@example((0, 1, 0, 1, 10))
@example((1, 1, 0, 1, 10))
@example((7, 3, 3, 3, 1))  # r d == c s: the lower end is exactly 7/3 - 1/3 = 2
@example((5, 3, 3, 3, 1))  # (b - r) d == c s: the upper end is exactly 2
@example((2, 3, 2, 1, 10))  # a d == c: the lower end is 0
def test_pin_rule_matches_the_endpoint_rule(parts):
    assert _pinned(*parts) == reference_pinned(*parts)
