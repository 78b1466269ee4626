"""Emitting and attacking irrationality certificates.

For the integer expansion of tanh(x/y) the partial denominators (2i-1)y grow
while the partial numerators stay at x^2, so past a computable tail index
every a_i exceeds b_i.  With all terms positive integers, the classical tail
criterion then makes the value irrational; tanh(x/y) irrational forces
e^(x/y) irrational through the tanh identity.

A certificate records the reduced pair, the tail index, and the threshold of
the closed-form inequality.  Verification re-derives everything, so a
certificate cannot be quietly doctored.  The hypothesis is proved in closed
form, with explicit checks of the first terms and of a window around the
tail index, so the cost does not grow with x/y: e^(1000001/3), whose tail
starts past term 1.6e11, certifies as fast as e.  An explicit depth adds a
full rescan of the term stream up to it.
"""

from dataclasses import replace

from cfrac import certify_irrational, verify_certificate
from cfrac.cli import certificate_to_json


def main():
    print("certificates for a few exponents:")
    for x, y in ((1, 1), (3, 2), (10, 3), (0, 7)):
        cert = certify_irrational(x, y)
        print(f"  ({x:>2}, {y}): {cert.verdict:<19} {cert.statement()}")
    print()

    cert = certify_irrational(3, 2)
    print("the (3, 2) certificate as shipped over the wire:")
    print(certificate_to_json(cert))

    print("honest verification, in closed form:")
    print(" ", verify_certificate(cert))
    print("and with an explicit rescan of the first 500 terms:")
    print(" ", verify_certificate(cert, 500))
    print()

    far = certify_irrational(1000001, 3)
    print(f"e^(1000001/3): tail index {far.tail_index}, verified: {verify_certificate(far).ok}")
    print()

    print("tampering with any single field is caught:")
    for field, delta in (("tail_index", -1), ("threshold_index", 1), ("x", 1)):
        forged = replace(cert, **{field: getattr(cert, field) + delta})
        outcome = verify_certificate(forged, forged.checked_prefix_depth)
        print(f"  {field} {delta:+d}: ok={outcome.ok}  ({outcome.reason})")


if __name__ == "__main__":
    main()
