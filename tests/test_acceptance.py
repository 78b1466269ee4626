"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen.  Expected values marked as derived were computed with the
independent oracles in tests/oracles.py (bottom-up folding and exact series
with remainder bounds) and frozen here.
"""

import json
import random
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import pytest

from cfrac import cli
from cfrac.core import ContinuedFraction, ExplicitListRule, Term, convergents
from cfrac.expansions import (
    e_simple_cf,
    exp_rational,
    gauss_tanh_cf,
    tanh_integer_cf,
    tanh_rational,
)
from cfrac.irrationality import certify_irrational, verify_certificate

from tests.oracles import (
    ConvergentState,
    bottom_up_value,
    brute_force_tail_index,
    enclosure_digits,
    exp_enclosure,
    tanh_enclosure,
)

F = Fraction

# 40 truncated digits of e and 30 of e^(1/2), frozen from the factorial-series
# oracle (exp_enclosure + enclosure_digits); the oracle is re-run below.
E_DIGITS_40 = "2.7182818284590452353602874713526624977572"
SQRT_E_DIGITS_30 = "1.648721270700128146848650787814"


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_criterion_1_e_convergent_table(capsys):
    with criterion("1: e convergents match the bottom-up oracle, under 0.1 s"):
        expected = [
            F(3), F(8, 3), F(11, 4), F(19, 7),
            F(87, 32), F(106, 39), F(193, 71), F(1264, 465),
        ]
        e_cf = e_simple_cf()
        assert [bottom_up_value(e_cf, d) for d in range(1, 9)] == expected

        start = time.perf_counter()
        code = cli.run(["convergents", "--expansion", "e", "--depth", "8", "--format", "json"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        rows = json.loads(out)["convergents"]
        got = [Fraction(int(r["h"]), int(r["k"])) for r in rows]
        assert got == expected
        assert elapsed < 0.1, f"took {elapsed:.3f} s"


def test_criterion_2_exp_accuracy():
    with criterion("2: exp_rational(1,1) within 1e-20 of the 60-term series, under 1 s"):
        tol = F(1, 10**20)
        start = time.perf_counter()
        got = exp_rational(1, 1, tol)
        elapsed = time.perf_counter() - start

        partial = F(0)
        term = F(1)
        for k in range(60):
            partial += term
            term /= k + 1
        remainder = term * F(61, 60)  # geometric tail bound, ratio 1/61

        assert abs(got.value - partial) <= tol
        # the reported bound covers the whole oracle enclosure
        assert abs(got.value - partial) <= got.error_bound
        assert abs(got.value - (partial + remainder)) <= got.error_bound
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_criterion_3_tanh_fidelity():
    with criterion("3: tanh_rational within 1e-12 of the series oracle, oracle sandwiched"):
        tol = F(1, 10**12)
        for x in range(1, 6):
            for y in range(1, 6):
                lo, hi = tanh_enclosure(F(x, y), terms=150)
                got = tanh_rational(x, y, tol)
                assert lo - tol <= got.value <= hi + tol
                values = convergents(tanh_integer_cf(x, y), 31)
                for n in range(1, 31):
                    low, high = sorted((values[n - 1], values[n]))
                    assert low <= lo and hi <= high


def test_criterion_4_determinant_identity():
    with criterion("4: D_n = -b_n * D_{n-1} exactly on 100 random expansions to depth 50"):
        rng = random.Random(0xD1CE)
        for _ in range(100):
            items = tuple(
                Term(F(rng.randint(1, 100)), F(rng.randint(1, 100))) for _ in range(50)
            )
            cf = ContinuedFraction(F(0), ExplicitListRule(items))
            state = ConvergentState.initial(cf.leading)
            assert state.determinant == -1
            for i in range(1, 51):
                term = cf.term(i)
                nxt = state.step(term)
                assert nxt.determinant == -term.b * state.determinant
                state = nxt


def test_criterion_5_equivalence_transform_invariance():
    with criterion("5: gauss_tanh_cf(x/y) and tanh_integer_cf(x,y) share all convergents"):
        for x in range(1, 11):
            for y in range(1, 11):
                assert convergents(gauss_tanh_cf(F(x, y)), 20) == convergents(
                    tanh_integer_cf(x, y), 20
                )


def test_criterion_6_tail_index_correctness():
    with criterion("6: closed-form tail index equals brute-force scan on the 20x20 grid"):
        from cfrac.irrationality import legendre_tail_index

        assert legendre_tail_index(tanh_integer_cf(1, 1)) == 1
        assert legendre_tail_index(tanh_integer_cf(3, 2)) == 2
        assert legendre_tail_index(tanh_integer_cf(2, 1)) == 2
        for x in range(1, 21):
            for y in range(1, 21):
                cf = tanh_integer_cf(x, y)
                assert legendre_tail_index(cf) == brute_force_tail_index(cf)


def test_criterion_7_certificate_soundness():
    with criterion("7: certificates verify at double depth; 50 single-field mutations fail"):
        pairs = [(x, y) for x in range(1, 11) for y in range(1, 11)]
        for x, y in pairs:
            cert = certify_irrational(x, y)
            assert verify_certificate(cert, 2 * cert.checked_prefix_depth)

        fields = (
            "x", "y", "reduced_x", "reduced_y",
            "tail_index", "checked_prefix_depth", "threshold_index",
        )
        rng = random.Random(0xACCE97)
        for _ in range(50):
            cert = certify_irrational(*rng.choice(pairs))
            field = rng.choice(fields)
            mutated = replace(cert, **{field: getattr(cert, field) + rng.choice([-1, 1])})
            assert not verify_certificate(mutated, depth=max(mutated.checked_prefix_depth, 1))


def test_criterion_8_digit_guarantee(capsys):
    with criterion("8: 30 digits of e^(1/2) and 40 digits of e match oracle truncation, under 2 s each"):
        assert enclosure_digits(*exp_enclosure(F(1, 2), 120), 30) == SQRT_E_DIGITS_30
        assert enclosure_digits(*exp_enclosure(F(1), 120), 40) == E_DIGITS_40

        start = time.perf_counter()
        code = cli.run(["digits", "--expr", "exp", "--x", "1", "--y", "2", "--digits", "30"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == SQRT_E_DIGITS_30
        assert elapsed < 2.0, f"took {elapsed:.3f} s"

        start = time.perf_counter()
        code = cli.run(["digits", "--expr", "exp", "--x", "1", "--y", "1", "--digits", "40"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == E_DIGITS_40
        assert elapsed < 2.0, f"took {elapsed:.3f} s"


def test_criterion_9_degenerate_handling(capsys):
    with criterion("9: x = 0 certifies NotApplicable, y = 0 is a domain error, 1/0 rejected"):
        code = cli.run(["certify", "--x", "0", "--y", "3"])
        out = capsys.readouterr().out
        assert code == 0 and "NotApplicable" in out

        for argv in (
            ["certify", "--x", "1", "--y", "0"],
            ["digits", "--expr", "exp", "--x", "1", "--y", "0", "--digits", "5"],
            ["digits", "--expr", "tanh", "--x", "1", "--y", "0", "--digits", "5"],
            ["convergents", "--expansion", "tanh", "--x", "1", "--y", "0"],
        ):
            assert cli.run(argv) == 1
            capsys.readouterr()

        with pytest.raises(ZeroDivisionError):
            Fraction(1, 0)
