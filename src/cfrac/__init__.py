"""cfrac: generalized continued fractions over exact rationals.

Convergents via the fundamental recurrence, tolerance-driven evaluation with
certified two-sided error bounds, value-preserving equivalence transforms,
the classical expansions for tanh and e, exponentials of rationals through
the tanh identity, and machine-checkable irrationality certificates based on
the positive-integer tail criterion.
"""

__version__ = "0.1.0"

from .core import (
    DEPTH_CAP,
    ApproximationResult,
    ClosedFormRule,
    ContinuedFraction,
    EPatternRule,
    ExplicitListRule,
    ScaledRule,
    Term,
    convergents,
    equivalence_transform,
    evaluate,
    terms,
)
from .errors import (
    CertificateFormatError,
    DepthCapError,
    DomainError,
    ExpansionExhaustedError,
    InvalidTermError,
    NonPositiveTermError,
    TailUnreachableError,
    ZeroScaleError,
)
from .expansions import (
    e_simple_cf,
    exp_rational,
    gauss_tanh_cf,
    tanh_integer_cf,
    tanh_rational,
)
from .irrationality import (
    VERDICT_IRRATIONAL,
    VERDICT_NOT_APPLICABLE,
    IrrationalityCertificate,
    VerificationOutcome,
    certify_irrational,
    legendre_tail_index,
    verify_certificate,
)

__all__ = [
    "DEPTH_CAP",
    "ApproximationResult",
    "CertificateFormatError",
    "ClosedFormRule",
    "ContinuedFraction",
    "DepthCapError",
    "DomainError",
    "EPatternRule",
    "ExpansionExhaustedError",
    "ExplicitListRule",
    "InvalidTermError",
    "IrrationalityCertificate",
    "NonPositiveTermError",
    "ScaledRule",
    "TailUnreachableError",
    "Term",
    "VERDICT_IRRATIONAL",
    "VERDICT_NOT_APPLICABLE",
    "VerificationOutcome",
    "ZeroScaleError",
    "certify_irrational",
    "convergents",
    "e_simple_cf",
    "equivalence_transform",
    "evaluate",
    "exp_rational",
    "gauss_tanh_cf",
    "legendre_tail_index",
    "tanh_integer_cf",
    "tanh_rational",
    "terms",
    "verify_certificate",
]
