import argparse
import io
import json
import os
import re
import stat
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, prod
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfrac import cli
from cfrac.cli import (
    certificate_from_json,
    certificate_to_json,
    certified_digits,
    decimal_preview,
)
from cfrac.core import ClosedFormRule, ContinuedFraction, ExplicitListRule, Term
from cfrac.errors import (
    CertificateFormatError,
    DepthCapError,
    DomainError,
    InvalidTermError,
    NonPositiveTermError,
    TailUnreachableError,
    ZeroScaleError,
)
from cfrac.expansions import e_simple_cf, tanh_integer_cf
from cfrac.irrationality import certify_irrational

from tests.oracles import (
    enclosure_digits,
    exp_enclosure,
    reference_convergent_rows,
    reference_table_text,
    tanh_enclosure,
)

F = Fraction


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextmanager
def int_str_limit(digits):
    """CPython's int-str limit set to ``digits`` (0: none), restored on exit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


# ---------------------------------------------------------------- convergents


def test_convergents_e_table(capsys):
    code, out, err = run_cli(capsys, "convergents", "--expansion", "e", "--depth", "5")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + 5 rows
    last = lines[-1].split()
    assert last[0] == "5" and last[1] == "87" and last[2] == "32"


def test_convergents_e_json_depth_eight(capsys):
    code, out, _ = run_cli(
        capsys, "convergents", "--expansion", "e", "--depth", "8", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    got = [F(int(r["h"]), int(r["k"])) for r in payload["convergents"]]
    assert got == [F(3), F(8, 3), F(11, 4), F(19, 7), F(87, 32), F(106, 39), F(193, 71), F(1264, 465)]


def test_convergents_tanh_rows(capsys):
    code, out, _ = run_cli(
        capsys, "convergents", "--expansion", "tanh", "--x", "1", "--y", "2",
        "--depth", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    got = [F(int(r["h"]), int(r["k"])) for r in payload["convergents"]]
    assert got == [F(1, 2), F(6, 13), F(61, 132)]
    assert payload["x"] == "1" and payload["y"] == "2"


def test_convergents_tanh_depth_two(capsys):
    code, out, _ = run_cli(
        capsys, "convergents", "--expansion", "tanh", "--x", "1", "--y", "1",
        "--depth", "2", "--format", "json",
    )
    payload = json.loads(out)
    got = [F(int(r["h"]), int(r["k"])) for r in payload["convergents"]]
    assert code == 0 and got == [F(1), F(3, 4)]


def _first_row_past(rows, digits):
    """Index of the first row that prints an integer of more than ``digits`` digits."""
    for row in rows:
        if max(map(len, (row["h"], row["k"], *row["gap"].split("/")))) > digits:
            return row["index"]


def test_convergent_tables_keep_the_int_str_limit(capsys):
    # A table fails at the first row that prints an integer past the limit,
    # with the interpreter's own message, as str() of an int would.
    with int_str_limit(640), pytest.raises(ValueError) as refusal:
        str(10**640)
    for x, y, fmt in ((0, 0, "text"), (7, 3, "json"), (12, 18, "text")):
        cf = tanh_integer_cf(x, y) if x else e_simple_cf()
        expansion = ("tanh", "--x", str(x), "--y", str(y)) if x else ("e",)
        with int_str_limit(0):
            row = _first_row_past(reference_convergent_rows(cf, 800), 640)
        argv = ("convergents", "--expansion", *expansion, "--format", fmt, "--depth")
        with int_str_limit(640):
            passing = run_cli(capsys, *argv, str(row - 1))
            failing = run_cli(capsys, *argv, str(row))
        assert passing[0] == 0 and passing[2] == ""
        assert failing == (2, "", f"error: {refusal.value}\n")


#: CPython's default int-str limit.
DEFAULT_INT_STR_LIMIT = 4300


@pytest.mark.parametrize("expansion, depth, fmt", (
    (("e",), 2200, "text"),
    (("tanh", "--x", "1", "--y", "2"), 1000, "json"),
))
def test_a_table_refused_at_the_int_str_limit_formats_no_cell(capsys, monkeypatch, expansion,
                                                              depth, fmt):
    # The limit is checked on each row's digit counts as the row is built,
    # so a refused table makes no string of a table integer.
    formatted = []

    def counting(row, cells=cli._cells):
        formatted.append(row[0])
        return cells(row)

    monkeypatch.setattr(cli, "_cells", counting)
    with int_str_limit(DEFAULT_INT_STR_LIMIT):
        with pytest.raises(ValueError) as refusal:
            str(10**DEFAULT_INT_STR_LIMIT)
        argv = ("convergents", "--expansion", *expansion, "--format", fmt, "--depth")
        assert run_cli(capsys, *argv, str(depth)) == (2, "", f"error: {refusal.value}\n")
        assert formatted == []
        assert run_cli(capsys, *argv, "5")[0] == 0
    assert formatted == [1, 2, 3, 4, 5]


def test_convergent_rows_past_the_default_int_str_limit_match_reference():
    cf = e_simple_cf()
    with int_str_limit(0):
        rows = list(map(cli._cells, cli._convergent_rows(cf, 2200)))
        assert rows == reference_convergent_rows(cf, 2200)


#: Expansions whose table rows exercise the gap recurrence: a leading term
#: with c_0 = 3 and rational terms; a negative leading term and a rational
#: closed form; gcd(P_n, k_n k_{n-1}) of up to 467 digits in tanh(12/18),
#: which is not reduced to tanh(2/3); the two bench expansions; and the
#: smooth parts behind the reduction: a large power of two, x with six
#: small primes and with two, whose smooth parts make the exponent of
#: ``cli._smooth_part`` double, and a prime x over y = 7.
ROW_EXPANSIONS = {
    "list 5/3": ContinuedFraction(
        F(5, 3),
        ExplicitListRule(tuple(Term(F(i % 7 + 1, 3), F(2, i % 5 + 1)) for i in range(300))),
    ),
    "closed -2/9": ContinuedFraction(
        F(-2, 9), ClosedFormRule(b_first=F(3, 2), b_rest=F(5, 4), a_slope=F(2, 3), a_intercept=F(1, 5))
    ),
    "tanh 12/18": tanh_integer_cf(12, 18),
    "tanh 7/3": tanh_integer_cf(7, 3),
    "e": e_simple_cf(),
    "tanh 2^40/1": tanh_integer_cf(2**40, 1),
    "tanh 30030/1": tanh_integer_cf(30030, 1),
    "tanh 1000003/7": tanh_integer_cf(1000003, 7),
    "tanh 36/1": tanh_integer_cf(36, 1),
}

#: The characters of every row value; json writes them unescaped.
ROW_VALUE = re.compile(r"[-0-9./]+")


@pytest.mark.parametrize("depth", (1, 2, 40, 300))
@pytest.mark.parametrize("name", ROW_EXPANSIONS)
def test_convergent_rows_match_reference(name, depth):
    # tanh(2^40/1) prints gaps of over 7000 digits at depth 300, past the default limit
    cf = ROW_EXPANSIONS[name]
    with int_str_limit(0):
        rows = list(map(cli._cells, cli._convergent_rows(cf, depth)))
        assert rows == reference_convergent_rows(cf, depth)


small_positive_rationals = st.builds(F, st.integers(1, 40), st.integers(1, 40))


@st.composite
def smooth_numbers(draw):
    """(beta, n): beta a product of small prime powers, n a cofactor times powers of its primes."""
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 1000003]), min_size=1, unique=True))
    beta = prod(p ** draw(st.integers(1, 4)) for p in primes)
    n = draw(st.integers(1, 10**20))
    for p in primes:
        n *= p ** draw(st.integers(0, 100))
    return beta, n


@settings(max_examples=200, deadline=None)
@given(smooth_numbers(), st.integers(1, 64))
def test_smooth_part_is_the_gcd_with_a_power_past_every_exponent(beta_n, e):
    # n < 2^bit_length, so no prime of beta divides n more than bit_length times
    beta, n = beta_n
    whole = gcd(n, beta ** n.bit_length())
    w, found = cli._smooth_part(n, beta, e)
    assert w == whole and found >= e
    with localcontext(cli._EXACT):
        assert cli._smooth_part(Decimal(n), beta, e) == (w, found)


def _preview_calls(monkeypatch):
    """Wrap ``cli.decimal_preview``; return the list of (h, k) it is called with."""
    calls = []

    def counting(h, k, *rest, preview=cli.decimal_preview):
        calls.append((h, k))
        return preview(h, k, *rest)

    monkeypatch.setattr(cli, "decimal_preview", counting)
    return calls


@pytest.mark.parametrize("cf, depth, budget", [
    (e_simple_cf(), 2000, 24),
    (tanh_integer_cf(7, 3), 300, 15),
])
def test_convergent_tables_stay_within_their_preview_budget(monkeypatch, cf, depth, budget):
    # Once two rows print the same preview, no later row divides: a table
    # that previews every row divides ``depth`` times.
    calls = _preview_calls(monkeypatch)
    assert len(cli._convergent_rows(cf, depth)) == depth
    assert len(calls) <= budget


@settings(max_examples=60, deadline=None)
@given(
    st.builds(F, st.integers(-40, 40), st.integers(1, 40)),
    st.lists(
        st.builds(Term, st.builds(lambda m, d: F(10 * d + m, d), st.integers(0, 400), st.integers(1, 4)),
                  small_positive_rationals),
        min_size=20, max_size=80,
    ),
)
def test_settled_previews_match_reference(leading, terms):
    # Row n reuses the preview of rows n-1 and n-2 when they agree, and
    # divides otherwise; the rows are the reference's all the same.
    cf = ContinuedFraction(leading, ExplicitListRule(tuple(terms)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _preview_calls(monkeypatch)
        rows = list(map(cli._cells, cli._convergent_rows(cf, len(terms))))
    assert rows == reference_convergent_rows(cf, len(terms))
    values = [row["value"] for row in rows]
    settled = next((n for n in range(2, len(values)) if values[n - 1] == values[n - 2]), len(values))
    assert len(calls) == settled


@settings(max_examples=100, deadline=None)
@given(
    st.builds(F, st.integers(-40, 40), st.integers(1, 40)),
    st.lists(st.builds(Term, small_positive_rationals, small_positive_rationals), min_size=1, max_size=12),
)
def test_convergent_rows_match_reference_on_short_rational_lists(leading, terms):
    cf = ContinuedFraction(leading, ExplicitListRule(tuple(terms)))
    rows = list(map(cli._cells, cli._convergent_rows(cf, len(terms))))
    assert rows == reference_convergent_rows(cf, len(terms))
    assert all(ROW_VALUE.fullmatch(row[key]) for row in rows for key in ("h", "k", "value", "gap"))


@pytest.mark.parametrize("expansion,depth", (
    (("e",), 1),
    (("e",), 300),
    (("tanh", "--x", "7", "--y", "3"), 300),
    (("tanh", "--x", "12", "--y", "18"), 300),
))
def test_convergent_json_is_what_json_dumps_writes(capsys, expansion, depth):
    code, out, err = run_cli(
        capsys, "convergents", "--expansion", *expansion, "--depth", str(depth), "--format", "json"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    tail = ["x", "y"] if expansion[0] == "tanh" else []
    assert list(payload) == ["expansion", "depth", "convergents", *tail]
    assert len(payload["convergents"]) == depth
    for row in payload["convergents"]:
        assert all(ROW_VALUE.fullmatch(row[key]) for key in ("h", "k", "value", "gap"))


def _text_table(*argv):
    """The stdout of ``cfrac convergents`` with ``argv``, which must exit 0 with no stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(["convergents", *argv])
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 120))
@example(3, 46, 23)  # h and k are widest in row 22, not in the last row
@example(12, 2, 50)  # not reduced to tanh(6/1); h and k are widest in row 49
def test_text_tables_are_padded_to_their_widest_cells(x, y, depth):
    cf = tanh_integer_cf(x, y)
    argv = ("--expansion", "tanh", "--x", str(x), "--y", str(y), "--depth", str(depth))
    assert _text_table(*argv) == reference_table_text(reference_convergent_rows(cf, depth))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 400))
def test_e_text_tables_are_padded_to_their_widest_cells(depth):
    table = _text_table("--expansion", "e", "--depth", str(depth))
    assert table == reference_table_text(reference_convergent_rows(e_simple_cf(), depth))


def test_convergents_depth_zero_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "convergents", "--expansion", "e", "--depth", "0")
    assert (code, out, err) == (1, "", "error: depth must be >= 1\n")


def test_convergents_tanh_missing_xy_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "convergents", "--expansion", "tanh", "--depth", "3")
    assert code == 2
    assert "requires --x and --y" in err


@pytest.mark.parametrize("given", (("--x", "5"), ("--y", "2"), ("--x", "5", "--y", "2")))
def test_convergents_e_with_x_or_y_is_usage_error(capsys, given):
    code, out, err = run_cli(capsys, "convergents", "--expansion", "e", *given, "--depth", "3")
    assert (code, out) == (2, "")
    assert err.endswith("error: --expansion e takes no --x or --y\n")


def test_convergents_bad_y_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "convergents", "--expansion", "tanh", "--x", "1", "--y", "0"
    )
    assert code == 1 and "error" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "convergents", "--expansion", "e", "--frobnicate")
    assert code == 2 and err != ""


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


# --------------------------------------------------------------------- digits


def test_digits_exp_zero(capsys):
    code, out, _ = run_cli(
        capsys, "digits", "--expr", "exp", "--x", "0", "--y", "1", "--digits", "10"
    )
    assert code == 0
    assert out.splitlines()[0] == "1.0000000000"
    assert "guaranteed digits: 10" in out


def test_digits_exp_e_fifteen(capsys):
    code, out, _ = run_cli(
        capsys, "digits", "--expr", "exp", "--x", "1", "--y", "1", "--digits", "15"
    )
    assert code == 0
    assert out.splitlines()[0] == "2.718281828459045"


def test_digits_exp_sqrt_e_fifteen(capsys):
    code, out, _ = run_cli(
        capsys, "digits", "--expr", "exp", "--x", "1", "--y", "2", "--digits", "15"
    )
    assert code == 0
    assert out.splitlines()[0] == "1.648721270700128"


def test_digits_tanh_twelve(capsys):
    code, out, _ = run_cli(
        capsys, "digits", "--expr", "tanh", "--x", "1", "--y", "1", "--digits", "12"
    )
    assert code == 0
    assert out.splitlines()[0] == "0.761594155955"


def test_digits_json_structure(capsys):
    code, out, _ = run_cli(
        capsys, "digits", "--expr", "exp", "--x", "-1", "--y", "2", "--digits", "20",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "0.60653065971263342360"
    assert payload["guaranteedDigits"] == 20
    assert payload["integerPart"] == "0"


def test_digits_cap_exceeded(capsys):
    code, _, err = run_cli(
        capsys, "digits", "--expr", "exp", "--x", "1", "--y", "1", "--digits", "10001"
    )
    assert code == 1 and "digits" in err


def test_digits_bad_y(capsys):
    code, _, _ = run_cli(
        capsys, "digits", "--expr", "exp", "--x", "1", "--y", "0", "--digits", "5"
    )
    assert code == 1


def test_digit_correctness_against_oracle_grid():
    for x in range(1, 6):
        for y in range(1, 6):
            integer_part, fractional_part, _ = certified_digits("exp", x, y, 25)
            expected = enclosure_digits(*exp_enclosure(F(x, y), 120), 25)
            assert f"{integer_part}.{fractional_part}" == expected
            integer_part, fractional_part, _ = certified_digits("tanh", x, y, 25)
            expected = enclosure_digits(*tanh_enclosure(F(x, y), 120), 25)
            assert f"{integer_part}.{fractional_part}" == expected


def test_digits_past_the_int_str_limit_match_mpmath(capsys):
    # CPython's str() refuses ints past 4300 digits; the digits must not.
    for x, y, n in ((1, 2, 4400), (1, 1, 10000)):
        code, out, err = run_cli(capsys, "digits", "--expr", "exp", "--x", str(x), "--y", str(y),
                                 "--digits", str(n))
        assert code == 0, err
        with mpmath.workdps(n + 40):
            scaled = int(mpmath.floor(mpmath.exp(mpmath.mpf(x) / y) * mpmath.mpf(10) ** n))
        expected = mpmath.libmp.numeral(scaled, 10, n + 1)
        assert out.splitlines()[0] == f"{expected[:-n]}.{expected[-n:]}"
        assert out.splitlines()[1] == f"guaranteed digits: {n}"


def test_digits_with_an_integer_part_past_the_int_str_limit_match_mpmath(capsys):
    # e^1500 has 652 integer digits.
    with mpmath.workdps(700):
        expected = mpmath.libmp.numeral(int(mpmath.floor(mpmath.exp(1500) * 10**5)), 10, 660)
    with int_str_limit(640):
        code, out, err = run_cli(capsys, "digits", "--expr", "exp", "--x", "1500", "--y", "1",
                                 "--digits", "5")
    assert code == 0, err
    assert out.splitlines()[0] == f"{expected[:-5]}.{expected[-5:]}"


@settings(max_examples=100, deadline=None)
@given(
    expr_x=st.one_of(
        st.tuples(st.just("exp"), st.integers(-60, 60)),
        st.tuples(st.just("tanh"), st.integers(1, 60)),
    ),
    y=st.integers(1, 30),
    n=st.integers(1, 300),
)
def test_digits_match_mpmath_on_random_requests(expr_x, y, n):
    # An mpmath check apart from the exact-series oracles of tests/oracles.py.
    # e^60 < 10^27, so n + 67 significant digits put the error of v below
    # 10^-(n+40); a v within 10^-(n+30) of a truncation boundary is skipped.
    expr, x = expr_x
    with mpmath.workdps(n + 67):
        v = (mpmath.exp if expr == "exp" else mpmath.tanh)(mpmath.mpf(x) / y)
        eps, scale = mpmath.mpf(10) ** -(n + 30), mpmath.mpf(10) ** n
        low, high = (int(mpmath.floor((v + d) * scale)) for d in (-eps, eps))
    assume(low == high)
    integer_part, fractional_part, _ = certified_digits(expr, x, y, n)
    assert int(integer_part + fractional_part) == low


def test_decimal_preview():
    assert decimal_preview(0, 1) == "0"
    assert decimal_preview(3, 1, sig=5) == "3.0000"
    assert decimal_preview(1, 1248, sig=6) == "0.000801282"
    assert decimal_preview(-22, 7, sig=4) == "-3.142"
    assert decimal_preview(12345, 1, sig=3) == "12345"


# ------------------------------------------------------------ certify/verify


def test_certify_text_statement(capsys):
    code, out, _ = run_cli(capsys, "certify", "--x", "1", "--y", "1")
    assert code == 0
    assert "verdict: CertifiedIrrational" in out
    assert "tail index: 1" in out
    assert "tanh(1/1)" in out and "e is irrational" in out


def test_certify_json_fields(capsys):
    code, out, _ = run_cli(capsys, "certify", "--x", "3", "--y", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tailIndex"] == "2"
    assert payload["thresholdIndex"] == "3"
    assert payload["verdict"] == "CertifiedIrrational"
    assert list(payload) == list(cli.CERTIFICATE_KEYS)


def test_certify_not_applicable_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "certify", "--x", "0", "--y", "3")
    assert code == 0 and "NotApplicable" in out


def test_certify_bad_y_exits_one(capsys):
    code, _, _ = run_cli(capsys, "certify", "--x", "1", "--y", "0")
    assert code == 1


def test_certify_verify_round_trip(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys, "certify", "--x", "1", "--y", "1", "--format", "json", "--out", str(path)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(path), "--depth", "200")
    assert code == 0
    assert "verified" in out


def test_json_round_trip_is_byte_identical(tmp_path):
    for x, y in ((3, 2), (0, 5), (-14, 1), (1000001, 3), (-(10**700) - 1, 7)):
        cert = certify_irrational(x, y)
        blob = certificate_to_json(cert)
        assert certificate_from_json(blob) == cert
        assert certificate_to_json(certificate_from_json(blob)) == blob


def test_certificate_json_is_what_json_dumps_writes():
    # The certificate template writes the bytes of json.dumps(indent=2), keys
    # in schema order, at any size: the last tail index has 4400 digits.
    assert json.dumps(cli.__version__) == f'"{cli.__version__}"'
    pairs = [(0, 5), (-14, 1), (1000001, 3), (100, 1), (10**2200 + 1, 1)]
    with int_str_limit(4000):
        for x, y in pairs:
            cert = certify_irrational(x, y)
            out = certificate_to_json(cert)
            payload = json.loads(out)
            assert out == json.dumps(payload, indent=2) + "\n"
            assert tuple(payload) == cli.CERTIFICATE_KEYS
            assert certificate_from_json(out) == cert
    assert len(payload["tailIndex"]) == 4400


def test_certificates_past_the_int_str_limit_round_trip(capsys, tmp_path):
    # The tail index of tanh(x/1) is about x^2/2: 660 digits here.
    x = 10**330 + 1
    path = tmp_path / "cert.json"
    with int_str_limit(640):
        code, _, err = run_cli(capsys, "certify", "--x", str(x), "--y", "1", "--format", "json",
                               "--out", str(path))
        assert code == 0, err
        blob = path.read_text()
        for cert in (certificate_from_json(blob), certify_irrational(-x, 1)):
            assert certificate_to_json(certificate_from_json(certificate_to_json(cert))) == (
                certificate_to_json(cert)
            )
        code, text, err = run_cli(capsys, "certify", "--x", str(x), "--y", "1")
        assert code == 0, err
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 0, err
    cert = certify_irrational(x, 1)
    assert certificate_from_json(blob) == cert
    assert json.loads(blob)["tailIndex"] == str(cert.tail_index)
    assert f"tail index: {cert.tail_index}\n" in text
    assert out.startswith(f"certificate verified to depth {cert.checked_prefix_depth}: ")


def test_long_malformed_integer_is_a_format_error(tmp_path):
    payload = json.loads(certificate_to_json(certify_irrational(3, 2)))
    for bad in ("1" * 700 + "x", "--" + "1" * 700, "-" + "1" * 5000 + " -1"):
        payload["tailIndex"] = bad
        with pytest.raises(CertificateFormatError, match="tailIndex is not an integer"):
            certificate_from_json(json.dumps(payload))


def test_verify_tampered_file_exits_one(capsys, tmp_path):
    cert = certify_irrational(3, 2)
    payload = json.loads(certificate_to_json(cert))
    payload["tailIndex"] = "1"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "verification failed" in err


def test_verify_tampered_file_past_the_int_str_limit_exits_one(capsys, tmp_path):
    # The tail index of tanh(x/1) is about x^2/2: 700 digits here.  The
    # failure reason prints it, so it must not go through repr().
    x = 10**350 + 1
    path = tmp_path / "cert.json"
    with int_str_limit(640):
        code, _, err = run_cli(capsys, "certify", "--x", str(x), "--y", "1", "--format", "json",
                               "--out", str(path))
        assert code == 0, err
        payload = json.loads(path.read_text())
        stored = payload["tailIndex"]
        assert len(stored) > 640
        payload["tailIndex"] = "9" + stored[1:]
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1, err
    reason = f"tail_index does not recompute: stored 9{stored[1:]}, derived {stored}"
    assert err.startswith(f"verification failed: {reason}\n")


def test_verify_malformed_json_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2 and "error" in err


def test_verify_off_schema_exits_two(capsys, tmp_path):
    cert = certify_irrational(1, 1)
    payload = json.loads(certificate_to_json(cert))
    payload["extra"] = "1"
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(payload))
    code, _, _ = run_cli(capsys, "verify", str(path))
    assert code == 2


def verify_payload(capsys, tmp_path, payload):
    """``verify`` of a file holding ``payload`` as JSON: (code, stdout, stderr)."""
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    return run_cli(capsys, "verify", str(path))


def _with(key, value):
    return lambda payload: {**payload, key: value}


#: Only what certificate_to_json writes is read: 0, or an optional "-" and
#: ASCII digits without a leading zero, even where int() reads the same x.
NON_CANONICAL = (" 3", "3 ", "+3", "03", "-0", "-03", "\u0663", "3_0", "", "-")

MALFORMED = {
    "not-an-object": (list, "certificate must be a JSON object"),
    "missing-field": (lambda payload: {k: v for k, v in payload.items() if k != "y"},
                      "missing fields: ['y']"),
    "integer-not-a-string": (_with("tailIndex", 2), "tailIndex must be a decimal string"),
    "unknown-verdict": (_with("verdict", "CertifiedRational"),
                        "unknown verdict: 'CertifiedRational'"),
    "version-not-a-string": (_with("engineVersion", 1), "engineVersion must be a string"),
    **{f"x={text!r}": (_with("x", text), f"x is not an integer: {text!r}") for text in NON_CANONICAL},
}


@pytest.mark.parametrize("edit,message", MALFORMED.values(), ids=MALFORMED)
def test_verify_malformed_certificate_exits_two(capsys, tmp_path, edit, message):
    payload = edit(json.loads(certificate_to_json(certify_irrational(3, 2))))
    assert verify_payload(capsys, tmp_path, payload) == (2, "", f"error: {message}\n")


def test_verify_stored_y_zero_exits_one(capsys, tmp_path):
    payload = json.loads(certificate_to_json(certify_irrational(3, 2)))
    payload["y"] = "0"
    expected = (1, "", "verification failed: y must be a positive integer\n")
    assert verify_payload(capsys, tmp_path, payload) == expected


def test_verify_missing_file_exits_two(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "table.txt"
    code, out, _ = run_cli(
        capsys, "convergents", "--expansion", "e", "--depth", "3", "--out", str(path)
    )
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.splitlines()[-1].split()[:3] == ["3", "11", "4"]


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and "convergents" in out


@pytest.mark.parametrize("command", (
    ("convergents", "--expansion", "e", "--depth", "3"),
    ("digits", "--expr", "exp", "--x", "1", "--y", "2", "--digits", "5"),
    ("certify", "--x", "1", "--y", "2"),
))
@pytest.mark.parametrize("target", ("directory", "missing/table.txt"))
def test_unwritable_out_exits_one(capsys, tmp_path, command, target):
    (tmp_path / "directory").mkdir()
    path = tmp_path / target
    with pytest.raises(OSError) as unwritable:
        open(path, "w")
    # stderr carries the message open(path, "w") raises: [Errno 21] or [Errno 2]
    code, out, err = run_cli(capsys, *command, "--out", str(path))
    assert (code, out) == (1, "") and err.startswith("error: [Errno")
    assert err == f"error: {unwritable.value}\n"


#: One request of each command that writes ``--out``.
OUT_COMMANDS = (
    ("convergents", "--expansion", "e", "--depth", "3"),
    ("digits", "--expr", "exp", "--x", "1", "--y", "2", "--digits", "5"),
    ("certify", "--x", "1000001", "--y", "3", "--format", "json"),
)


@pytest.mark.parametrize("command", OUT_COMMANDS)
@pytest.mark.parametrize("old", ("longer", "shorter"))
def test_out_over_an_existing_file_holds_exactly_the_printed_bytes(capsys, tmp_path, command, old):
    code, printed, _ = run_cli(capsys, *command)
    assert code == 0
    path = tmp_path / "out"
    path.write_bytes(b"9" * (len(printed) + 100 if old == "longer" else len(printed) // 2))
    assert run_cli(capsys, *command, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == printed.encode()


def test_out_keeps_the_permission_bits_of_an_existing_file(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text("old\n")
    path.chmod(0o640)
    assert run_cli(capsys, *OUT_COMMANDS[2], "--out", str(path))[0] == 0
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    # a new file gets the mode open(path, "w") would give it
    (tmp_path / "reference").write_text("")
    assert run_cli(capsys, *OUT_COMMANDS[2], "--out", str(tmp_path / "new.json"))[0] == 0
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("reference", "new.json")}
    assert len(modes) == 1


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_dev_null_exits_zero_and_prints_nothing(capsys, command):
    assert run_cli(capsys, *command, "--out", "/dev/null") == (0, "", "")


def test_an_unwritable_out_fails_before_the_work(capsys, monkeypatch, tmp_path):
    def no_rows(cf, depth):
        raise AssertionError("rows built for an --out that cannot be written")

    monkeypatch.setattr(cli, "_convergent_rows", no_rows)
    path = tmp_path / "missing" / "table.txt"
    with pytest.raises(OSError) as unwritable:
        open(path, "w")
    argv = ("convergents", "--expansion", "e", "--depth", "2000", "--out", str(path))
    assert run_cli(capsys, *argv) == (1, "", f"error: {unwritable.value}\n")


#: Requests refused with exit 1, by the library before or after ``--out`` is opened.
REFUSED_OUT_COMMANDS = (
    ("digits", "--expr", "exp", "--x", "1", "--y", "2", "--digits", "0"),
    ("digits", "--expr", "tanh", "--x", "0", "--y", "2", "--digits", "5"),
    ("convergents", "--expansion", "tanh", "--x", "1", "--y", "0"),
    ("certify", "--x", "1", "--y", "0"),
)


@pytest.mark.parametrize("command", REFUSED_OUT_COMMANDS)
@pytest.mark.parametrize("old", (None, b"old bytes\n"))
def test_a_refused_request_leaves_its_out_path_as_it_found_it(capsys, tmp_path, command, old):
    path = tmp_path / "out.txt"
    if old is not None:
        path.write_bytes(old)
        path.chmod(0o640)
    refused = run_cli(capsys, *command, "--out", str(path))
    assert refused[:2] == (1, "") and refused[2].startswith("error: ")
    assert refused == run_cli(capsys, *command)
    if old is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == old and stat.S_IMODE(path.stat().st_mode) == 0o640


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("old", (None, b"old bytes\n"))
def test_a_table_refused_at_the_int_str_limit_leaves_its_out_path_as_it_found_it(
    capsys, tmp_path, fmt, old
):
    # e's row 414 is the first with more than 640 digits
    path = tmp_path / "table.txt"
    if old is not None:
        path.write_bytes(old)
        path.chmod(0o640)
    argv = ("convergents", "--expansion", "e", "--depth", "500", "--format", fmt)
    with int_str_limit(640):
        with pytest.raises(ValueError) as refusal:
            str(10**640)
        refused = run_cli(capsys, *argv, "--out", str(path))
        assert refused == run_cli(capsys, *argv) == (2, "", f"error: {refusal.value}\n")
    if old is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == old and stat.S_IMODE(path.stat().st_mode) == 0o640


def test_a_request_that_dies_in_the_work_removes_the_out_file_it_created(capsys, monkeypatch,
                                                                        tmp_path):
    def interrupted(cf, depth):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_convergent_rows", interrupted)
    path = tmp_path / "table.txt"
    with pytest.raises(KeyboardInterrupt):
        cli.run(["convergents", "--expansion", "e", "--depth", "3", "--out", str(path)])
    assert not path.exists()


# ------------------------------------------------------------ one process


#: Requests that differ in exactly what a shared parser could carry over:
#: a ``--format`` left out after one given, ``--x``/``--y`` left out after
#: both given, the subparser's own usage error, a refusal and both helps.
SEQUENCE = (
    ("digits", "--expr", "exp", "--x", "1", "--y", "2", "--digits", "20", "--format", "json"),
    ("digits", "--expr", "exp", "--x", "1", "--y", "2", "--digits", "20"),
    ("convergents", "--expansion", "tanh", "--x", "1", "--y", "2", "--depth", "3",
     "--format", "json"),
    ("convergents", "--expansion", "e", "--depth", "3", "--format", "json"),
    ("convergents", "--expansion", "tanh", "--depth", "3"),
    ("digits", "--expr", "tanh", "--x", "1", "--y", "0", "--digits", "5"),
    ("--help",),
    ("digits", "--help"),
)


def test_no_state_leaks_between_requests_in_one_process(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    in_process = [run_cli(capsys, *argv) for argv in SEQUENCE]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    alone = []
    for argv in SEQUENCE:
        done = subprocess.run(
            [sys.executable, "-m", "cfrac", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        alone.append((done.returncode, done.stdout, done.stderr))
    assert in_process == alone
    codes = [code for code, _, _ in in_process]
    assert codes == [0, 0, 0, 0, 2, 1, 0, 0]
    assert not in_process[1][1].startswith("{")
    assert not {"x", "y"} & json.loads(in_process[3][1]).keys()


def test_the_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    digits = ("digits", "--expr", "exp", "--x", "1", "--y", "2", "--digits")
    codes = [run_cli(capsys, *digits, str(n))[0] for n in range(1, 9)]
    codes.append(run_cli(capsys, "digits", "--frobnicate")[0])
    codes.append(run_cli(capsys, *digits, "0")[0])
    assert codes == [0] * 8 + [2, 1]
    assert len(built) <= 5  # the parser and its four subparsers


#: Tokens of a command line for the dispatch property: the command names and
#: -h, full and abbreviated option names, an option with its value attached,
#: "--" and an unknown flag, and values: ints, negative ints, non-ints and
#: every ``choices`` value.
COMMAND_NAMES = ("convergents", "digits", "certify", "verify", "-h")
OPTION_NAMES = ("--expansion", "--x", "--y", "--depth", "--format", "--out", "--expr", "--digits",
                "--help", "--dig", "--dep", "--exp", "--h", "--x=5", "--y=-3", "--", "--bogus")
INTS = st.integers(-(10**6), 10**6).map(str)
VALUES = st.one_of(
    INTS, st.sampled_from(("e", "tanh", "exp", "text", "json", "1.5", "x", "", "cert.json"))
)
TOKENS = st.one_of(st.sampled_from(COMMAND_NAMES), st.sampled_from(OPTION_NAMES), VALUES)

#: Each command's options, and the values of those that take no int.
COMMAND_OPTIONS = {
    "convergents": ("--expansion", "--x", "--y", "--depth", "--format", "--out"),
    "digits": ("--expr", "--x", "--y", "--digits", "--format", "--out"),
    "certify": ("--x", "--y", "--format", "--out"),
    "verify": ("--depth",),
}
OPTION_VALUES = {"--expansion": ("e", "tanh"), "--expr": ("exp", "tanh"),
                 "--format": ("text", "json"), "--out": ("cert.json",)}


@st.composite
def command_lines(draw):
    """A command with most of its options, each mostly with a value it accepts,
    and, in half the lines, one or two tokens of noise anywhere."""
    name = draw(st.sampled_from(tuple(COMMAND_OPTIONS)))
    argv = [name, "cert.json"] if name == "verify" else [name]
    for option in draw(st.permutations(COMMAND_OPTIONS[name])):
        if draw(st.integers(0, 9)):
            accepted = OPTION_VALUES.get(option)
            value = st.sampled_from(accepted) if accepted else INTS
            argv += [option, draw(value if draw(st.integers(0, 9)) else VALUES)]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = draw(st.lists(TOKENS, min_size=1, max_size=2))
    return argv


ARGVS = st.one_of(st.lists(TOKENS, max_size=6), command_lines())


def _captured(call):
    """What ``call()`` returned or its SystemExit code, and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = int(exc.code or 0)
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=ARGVS)
def test_run_parses_a_command_line_as_the_top_level_parser_does(argv):
    seen = []

    def handler(args):
        seen.append(args)
        return 0

    handlers = {f"cmd_{name}": handler for name in COMMAND_NAMES if name != "-h"}
    with mock.patch.multiple(cli, **handlers):
        code, out, err = _captured(lambda: cli.run(argv))
    expected = _captured(lambda: cli.build_parser().parse_args(argv))
    if isinstance(expected[0], argparse.Namespace):
        assert (code, out, err) == (0, *expected[1:])
        assert seen == [expected[0]]
    else:
        assert (code, out, err) == expected
        assert seen == []


# ----------------------------------------------------------------- exit codes


#: One failure of each class ``cli.run`` tells apart, with its exit code.
EXIT_CODES = (
    (DomainError("x is out of range"), 1),
    (NonPositiveTermError(3, Term(0, 1)), 1),
    (ZeroScaleError(4), 1),
    (InvalidTermError("term 5 is not integral", index=5), 1),
    (TailUnreachableError("the tail never starts"), 1),
    (DepthCapError("no convergence within the cap", best=None), 1),
    (OSError("disk full"), 1),
    (ZeroDivisionError("division by zero"), 1),
    (CertificateFormatError("not valid JSON"), 2),
    (ValueError("a usage error"), 2),
)


@pytest.mark.parametrize("exc,code", EXIT_CODES, ids=[type(e).__name__ for e, _ in EXIT_CODES])
def test_each_failure_class_has_its_exit_code(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_digits", fail)
    argv = ("digits", "--expr", "exp", "--x", "1", "--y", "2", "--digits", "5")
    assert run_cli(capsys, *argv) == (code, "", f"error: {exc}\n")


@pytest.mark.parametrize(
    "kind", (NonPositiveTermError, ZeroScaleError, InvalidTermError, TailUnreachableError)
)
def test_every_refusal_is_a_domain_error(kind):
    assert issubclass(kind, DomainError) and issubclass(kind, ValueError)


def test_unreadable_certificate_exits_two_with_the_os_message(capsys, tmp_path):
    path = tmp_path / "nope.json"
    with pytest.raises(OSError) as unreadable:
        path.read_text(encoding="utf-8")
    expected = (2, "", f"error: cannot read certificate: {unreadable.value}\n")
    assert run_cli(capsys, "verify", str(path)) == expected
