import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cfrac.core import ClosedFormRule, ContinuedFraction
from cfrac.errors import DomainError, InvalidTermError, TailUnreachableError
from cfrac.expansions import e_simple_cf, gauss_tanh_cf, tanh_integer_cf
from cfrac.irrationality import (
    VERDICT_IRRATIONAL,
    VERDICT_NOT_APPLICABLE,
    IrrationalityCertificate,
    certify_irrational,
    legendre_tail_index,
    verify_certificate,
)

from tests.oracles import brute_force_tail_index

F = Fraction


@pytest.mark.parametrize("x,y,expected", [(1, 1, 1), (3, 2, 2), (2, 1, 2)])
def test_tail_index_spot_values(x, y, expected):
    assert legendre_tail_index(tanh_integer_cf(x, y)) == expected


def test_tail_index_matches_brute_force_scan():
    for x in range(1, 21):
        for y in range(1, 21):
            cf = tanh_integer_cf(x, y)
            assert legendre_tail_index(cf) == brute_force_tail_index(cf)


def test_tail_index_monotonicity():
    grid = {
        (x, y): legendre_tail_index(tanh_integer_cf(x, y))
        for x in range(1, 21)
        for y in range(1, 21)
    }
    for y in range(1, 21):
        for x in range(1, 20):
            assert grid[(x, y)] <= grid[(x + 1, y)]
    for x in range(1, 21):
        for y in range(1, 20):
            assert grid[(x, y)] >= grid[(x, y + 1)]


def test_tail_index_rejects_noninteger_rule():
    with pytest.raises(InvalidTermError):
        legendre_tail_index(gauss_tanh_cf(F(1, 2)))


def test_tail_index_rejects_flat_denominators():
    flat = ContinuedFraction(
        F(0), ClosedFormRule(b_first=F(1), b_rest=F(2), a_slope=F(0), a_intercept=F(1))
    )
    with pytest.raises(TailUnreachableError):
        legendre_tail_index(flat)


def test_tail_index_rejects_a_nonpositive_first_term():
    # a_1 = 1 - 1 = 0
    rule = ClosedFormRule(b_first=F(1), b_rest=F(1), a_slope=F(1), a_intercept=F(-1))
    with pytest.raises(InvalidTermError, match="^expansion has a nonpositive term$"):
        legendre_tail_index(ContinuedFraction(F(0), rule))


def test_tail_index_rejects_pattern_rule():
    with pytest.raises(DomainError):
        legendre_tail_index(e_simple_cf())


def test_certify_one_over_one():
    cert = certify_irrational(1, 1)
    assert cert.verdict == VERDICT_IRRATIONAL
    assert cert.tail_index == 1
    assert cert.threshold_index == 2
    assert cert.checked_prefix_depth == 51
    assert "e is irrational" in cert.statement()
    assert "tanh(1/1)" in cert.statement()


def test_certify_zero_is_not_applicable():
    cert = certify_irrational(0, 5)
    assert cert.verdict == VERDICT_NOT_APPLICABLE
    assert cert.tail_index == 0 and cert.threshold_index == 0
    assert verify_certificate(cert)


def test_certify_reduces_pair():
    cert = certify_irrational(4, 2)
    assert (cert.reduced_x, cert.reduced_y) == (2, 1)
    assert cert.tail_index == 2


def test_certify_negative_exponent_via_reciprocal():
    cert = certify_irrational(-2, 4)
    assert (cert.reduced_x, cert.reduced_y) == (1, 2)
    assert cert.verdict == VERDICT_IRRATIONAL
    assert verify_certificate(cert)


def test_certify_rejects_bad_y():
    with pytest.raises(DomainError):
        certify_irrational(1, 0)
    with pytest.raises(DomainError):
        certify_irrational(1, -3)


def test_certificates_verify_at_double_depth():
    for x in range(1, 8):
        for y in range(1, 8):
            cert = certify_irrational(x, y)
            assert verify_certificate(cert, 2 * cert.checked_prefix_depth)


def test_verify_at_exactly_checked_depth():
    cert = certify_irrational(1, 1)
    assert verify_certificate(cert, cert.checked_prefix_depth)


def test_verify_rejects_smaller_depth():
    cert = certify_irrational(1, 1)
    with pytest.raises(ValueError):
        verify_certificate(cert, cert.checked_prefix_depth - 1)


def test_forged_tail_index_fails():
    cert = certify_irrational(3, 2)
    forged = replace(cert, tail_index=1)
    outcome = verify_certificate(forged, 10 + forged.checked_prefix_depth)
    assert not outcome
    assert outcome.reason is not None


def test_inconsistent_verdict_fails():
    cert = certify_irrational(2, 3)
    assert not verify_certificate(replace(cert, verdict=VERDICT_NOT_APPLICABLE))


def test_unknown_verdict_fails():
    cert = certify_irrational(2, 3)
    assert not verify_certificate(replace(cert, verdict="CertifiedRational"))


_INT_FIELDS = (
    "x",
    "y",
    "reduced_x",
    "reduced_y",
    "tail_index",
    "checked_prefix_depth",
    "threshold_index",
)


def test_random_single_field_mutations_fail():
    rng = random.Random(0x5EED)
    pairs = [(x, y) for x in range(1, 11) for y in range(1, 11)]
    for _ in range(50):
        x, y = rng.choice(pairs)
        cert = certify_irrational(x, y)
        field = rng.choice(_INT_FIELDS)
        delta = rng.choice([-1, 1])
        mutated = replace(cert, **{field: getattr(cert, field) + delta})
        assert mutated != cert
        assert not verify_certificate(mutated, depth=max(mutated.checked_prefix_depth, 1))


def test_verify_reports_violated_index_on_bad_stream():
    # a hand-built "certificate" whose canonical fields are consistent for
    # (3, 2) except that the claimed tail starts too early never reaches the
    # stream scan: the canonical recomputation flags the field first.
    cert = certify_irrational(3, 2)
    forged = IrrationalityCertificate(
        x=3,
        y=2,
        reduced_x=3,
        reduced_y=2,
        tail_index=1,
        checked_prefix_depth=cert.checked_prefix_depth,
        threshold_index=2,
        verdict=VERDICT_IRRATIONAL,
    )
    outcome = verify_certificate(forged)
    assert not outcome
    assert "tail_index" in outcome.reason
