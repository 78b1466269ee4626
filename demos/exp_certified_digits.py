"""Certified digits of e^(x/y) through the tanh identity.

tanh r = (e^r - e^-r)/(e^r + e^-r) inverts to e^(2r) = (1 + tanh r)/(1 - tanh r),
so e^(x/y) = (1 + t)/(1 - t) with t = tanh(x/(2y)) taken from the integer-term
expansion.  The tanh error interval is pushed through that map exactly, which
keeps the final bound certified; digits are then truncated only once the
interval pins them.
"""

from fractions import Fraction

from cfrac import exp_rational
from cfrac.cli import certified_digits


def main():
    print("e^(1/2) at tightening tolerances (bound never exceeds tol):")
    for exponent in (3, 6, 9, 12):
        tol = Fraction(1, 10**exponent)
        result = exp_rational(1, 2, tol)
        print(
            f"  tol 1e-{exponent:<3} depth {result.depth:>2}  "
            f"value ~ {float(result.value):.15f}  bound ~ {float(result.error_bound):.2e}"
        )
    print()

    for expr, x, y, digits in (("exp", 1, 1, 40), ("exp", -1, 2, 25), ("tanh", 1, 1, 25)):
        integer_part, fractional_part, depth = certified_digits(expr, x, y, digits)
        name = f"{expr}({x}/{y})"
        print(f"{name:>10} to {digits} digits (depth {depth}): {integer_part}.{fractional_part}")
    print()
    print("every printed digit is a correct truncated digit of the true value")


if __name__ == "__main__":
    main()
