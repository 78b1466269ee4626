"""Closed-form certificates against the scanning reference and the integer oracle."""

import json
import math
import time
from dataclasses import asdict, replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrac import cli, irrationality
from cfrac.cli import certificate_to_json, run
from cfrac.core import DEPTH_CAP, ClosedFormRule, Term
from cfrac.errors import DomainError, InvalidTermError, NonPositiveTermError, ZeroScaleError
from cfrac.expansions import tanh_integer_cf
from cfrac.irrationality import (
    CHECKED_PREFIX_MARGIN,
    SCAN_MARGIN,
    certify_irrational,
    legendre_tail_index,
    VerificationOutcome,
    verify_certificate,
)

from tests.oracles import (
    closed_form_tail_index,
    reference_certify_irrational,
    reference_legendre_tail_index,
    reference_verify_certificate,
)

_INT_FIELDS = (
    "x",
    "y",
    "reduced_x",
    "reduced_y",
    "tail_index",
    "checked_prefix_depth",
    "threshold_index",
)


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(-60, 60),
    y=st.integers(1, 20),
    field=st.sampled_from(_INT_FIELDS),
    delta=st.sampled_from((-1, 1)),
)
def test_closed_form_agrees_with_the_scanning_reference(x, y, field, delta):
    cert = certify_irrational(x, y)
    assert asdict(cert) == asdict(reference_certify_irrational(x, y))
    if x != 0:
        cf = tanh_integer_cf(cert.reduced_x, cert.reduced_y)
        assert legendre_tail_index(cf) == reference_legendre_tail_index(cf)

    depth = cert.checked_prefix_depth
    assert verify_certificate(cert) == reference_verify_certificate(cert)
    assert verify_certificate(cert, 2 * depth) == reference_verify_certificate(cert, 2 * depth)

    tampered = replace(cert, **{field: getattr(cert, field) + delta})
    assert verify_certificate(tampered) == reference_verify_certificate(tampered)


@settings(max_examples=200, deadline=None)
@given(x=st.integers(-(10**7), 10**7).filter(bool), y=st.integers(1, 10**3))
def test_tail_index_matches_the_integer_oracle_for_large_x(x, y):
    g = gcd(abs(x), y)
    rx, ry = abs(x) // g, y // g
    n = closed_form_tail_index(rx, ry)
    assert legendre_tail_index(tanh_integer_cf(rx, ry)) == n
    cert = certify_irrational(x, y)
    assert (cert.reduced_x, cert.reduced_y, cert.tail_index) == (rx, ry, n)
    assert cert.threshold_index == n + 1
    assert cert.checked_prefix_depth == n + CHECKED_PREFIX_MARGIN
    assert verify_certificate(cert)


def test_certify_and_verify_far_tail_in_milliseconds(capsys, tmp_path):
    path = tmp_path / "cert.json"
    start = time.perf_counter()
    assert run(["certify", "--x", "1000001", "--y", "3", "--format", "json",
                "--out", str(path)]) == 0
    assert run(["verify", str(path)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["tailIndex"] == "166667000000"
    assert payload["thresholdIndex"] == "166667000001"
    assert payload["checkedPrefixDepth"] == "166667000050"
    assert capsys.readouterr().out.startswith("certificate verified to depth 166667000050: ")


def test_verify_depth_over_budget_is_refused_before_scanning(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(certificate_to_json(certify_irrational(3, 2)), encoding="utf-8")
    start = time.perf_counter()
    assert run(["verify", str(path), "--depth", str(DEPTH_CAP + 1)]) == 1
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(DEPTH_CAP) in err
    with pytest.raises(DomainError):
        verify_certificate(certify_irrational(3, 2), DEPTH_CAP + 1)
    # a depth below the checked prefix stays a usage error
    assert run(["verify", str(path), "--depth", "1"]) == 2


# tanh(100/1): tail index 5000, threshold window 4990..5010, checked prefix 5050.
X, Y = 100, 1
N = closed_form_tail_index(X, Y)
CHECKED = N + CHECKED_PREFIX_MARGIN
IN_WINDOWS = (1, SCAN_MARGIN // 2, SCAN_MARGIN, N - SCAN_MARGIN, N, N + 1, N + SCAN_MARGIN)


def _corrupt(monkeypatch, index, how):
    honest = ClosedFormRule.term

    def term(self, i):
        t = honest(self, i)
        if i != index:
            return t
        if how == "fraction":
            return Term(t.a + Fraction(1, 2), t.b)
        if how == "zero":
            return Term(0, t.b)
        # swap which side of b_i the term falls on
        return Term(t.b + 1 if t.a <= t.b else t.b, t.b)

    monkeypatch.setattr(ClosedFormRule, "term", term)


# Below the tail index a term may fall on either side of b_i, so a swap is
# only a fault from n on.
CORRUPTIONS = [
    (index, how)
    for index in IN_WINDOWS
    for how in ("fraction", "zero", "swap")
    if how != "swap" or index >= N
]


@pytest.mark.parametrize("index,how", CORRUPTIONS)
def test_corrupted_term_in_a_window_is_caught(monkeypatch, capsys, tmp_path, index, how):
    cert = certify_irrational(X, Y)
    path = tmp_path / "cert.json"
    path.write_text(certificate_to_json(cert), encoding="utf-8")
    _corrupt(monkeypatch, index, how)

    with pytest.raises(InvalidTermError) as caught:
        certify_irrational(X, Y)
    assert caught.value.index == index
    outcome = verify_certificate(cert)
    assert not outcome and outcome.failed_index == index
    assert run(["verify", str(path)]) == 1
    assert f"violated index: {index}\n" in capsys.readouterr().err


def test_corrupted_term_past_the_checked_prefix_needs_an_explicit_depth(monkeypatch, capsys,
                                                                       tmp_path):
    cert = certify_irrational(X, Y)
    path = tmp_path / "cert.json"
    path.write_text(certificate_to_json(cert), encoding="utf-8")
    index = CHECKED + 7
    _corrupt(monkeypatch, index, "swap")

    assert certify_irrational(X, Y) == cert
    assert verify_certificate(cert)
    assert run(["verify", str(path)]) == 0
    outcome = verify_certificate(cert, 2 * CHECKED)
    assert not outcome and outcome.failed_index == index
    assert run(["verify", str(path), "--depth", str(2 * CHECKED)]) == 1
    assert f"violated index: {index}\n" in capsys.readouterr().err


# A term rule may refuse a term itself (a zero scale, a non-positive term).
# Each index is in the head window, the threshold window, or past the checked
# prefix, where only an explicit depth reaches it.
RULE_REFUSALS = [
    (index, depth, error)
    for index, depth in ((SCAN_MARGIN, None), (N, None), (CHECKED + 7, 2 * CHECKED))
    for error in (ZeroScaleError(index), NonPositiveTermError(index, Term(-1, X * X)))
]


@pytest.mark.parametrize("index,depth,error", RULE_REFUSALS)
def test_a_refusal_from_the_term_rule_is_a_failed_outcome(monkeypatch, capsys, tmp_path,
                                                          index, depth, error):
    cert = certify_irrational(X, Y)
    path = tmp_path / "cert.json"
    path.write_text(certificate_to_json(cert), encoding="utf-8")
    honest = ClosedFormRule.term

    def term(self, i):
        if i == index:
            raise error
        return honest(self, i)

    monkeypatch.setattr(ClosedFormRule, "term", term)

    assert verify_certificate(cert, depth) == VerificationOutcome(False, reason=str(error))
    argv = ["verify", str(path)] + ([] if depth is None else ["--depth", str(depth)])
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"verification failed: {error}\n")


def test_certify_and_verify_do_a_fixed_amount_of_work(monkeypatch):
    # Each window term is normalised once, from integers: a certify or a
    # verify of tanh(100/1) makes 45 Fraction normalisations (math.gcd
    # calls), against 107 when every term paid for Fraction arithmetic.  The
    # terms built are the head and threshold windows, each index once.
    cert = certify_irrational(X, Y)
    honest_gcd, honest_term = math.gcd, ClosedFormRule.term
    gcds, indices = [], []

    def counting_gcd(*args):
        gcds.append(args)
        return honest_gcd(*args)

    def term(self, i):
        indices.append(i)
        return honest_term(self, i)

    monkeypatch.setattr(math, "gcd", counting_gcd)
    monkeypatch.setattr(ClosedFormRule, "term", term)
    windows = [*range(1, SCAN_MARGIN + 1), *range(N - SCAN_MARGIN, N + SCAN_MARGIN + 1)]
    for work in (lambda: certify_irrational(X, Y), lambda: verify_certificate(cert)):
        gcds.clear()
        indices.clear()
        assert work()
        assert len(gcds) <= 60
        assert sorted(indices) == windows


# A certifier that emits a wrong field must be refused by the checker: the
# checker derives every field on its own, so it cannot reproduce the fault.
@pytest.mark.parametrize("field", ("threshold_index", "reduced_y"))
def test_a_certifier_that_emits_a_wrong_field_is_refused(monkeypatch, capsys, tmp_path, field):
    honest = certify_irrational

    def mutant(x, y):
        cert = honest(x, y)
        return replace(cert, **{field: getattr(cert, field) + 1})

    monkeypatch.setattr(irrationality, "certify_irrational", mutant)
    monkeypatch.setattr(cli, "certify_irrational", mutant)
    cert = irrationality.certify_irrational(X, Y)
    derived = getattr(honest(X, Y), field)
    outcome = verify_certificate(cert)
    assert outcome == VerificationOutcome(
        False, reason=f"{field} does not recompute: stored {derived + 1}, derived {derived}"
    )
    path = tmp_path / "cert.json"
    assert run(["certify", "--x", str(X), "--y", str(Y), "--format", "json",
                "--out", str(path)]) == 0
    assert run(["verify", str(path)]) == 1
    assert capsys.readouterr().err == f"verification failed: {outcome.reason}\n"


@pytest.mark.parametrize("field", _INT_FIELDS + ("verdict",))
@pytest.mark.parametrize("x,y", ((X, Y), (0, 5), (-14, 3)))
def test_a_tampered_certificate_is_refused_before_any_term_is_built(monkeypatch, x, y, field):
    cert = certify_irrational(x, y)
    if field == "verdict":
        tampered = replace(cert, verdict="NotApplicable" if x else "CertifiedIrrational")
    else:
        tampered = replace(cert, **{field: getattr(cert, field) + 1})
    built = []
    honest = ClosedFormRule.term

    def term(self, i):
        built.append(i)
        return honest(self, i)

    monkeypatch.setattr(ClosedFormRule, "term", term)
    assert not verify_certificate(tampered)
    assert not verify_certificate(tampered, max(tampered.checked_prefix_depth, 1) + 10)
    assert built == []


# The integer inequalities check the checker's own derivation: a derived
# tail index one too high, met by a certificate that carries the same
# fault, is refused there, before any term is built.
def test_a_tail_index_that_is_not_minimal_is_refused_in_integers(monkeypatch):
    honest = irrationality._expected

    def shifted(x, y):
        cert = honest(x, y)
        return replace(cert, tail_index=cert.tail_index + 1,
                       checked_prefix_depth=cert.checked_prefix_depth + 1,
                       threshold_index=cert.threshold_index + 1)

    def no_term(self, i):
        raise AssertionError(f"term {i} built")

    monkeypatch.setattr(irrationality, "_expected", shifted)
    monkeypatch.setattr(ClosedFormRule, "term", no_term)
    n = N + 1
    outcome = verify_certificate(shifted(X, Y))
    assert outcome == VerificationOutcome(
        False, reason=f"tail index {n} is not minimal: a_{n} = {(2 * n - 1) * Y} > b_{n} = {X * X}",
        failed_index=n,
    )
