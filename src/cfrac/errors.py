"""Exception types shared across the library.

Every refusal is a ``DomainError``: an argument outside the domain of the
operation (x/y, a digit count, a depth), a zero scale factor, a term that is
not positive where the error bound needs it, or a term stream that breaks
the hypothesis of Legendre's tail criterion (a non-integral or wrong-side
term, a tail that never starts).  The CLI exits 1 on every one of them.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation.

    The base class of every refusal: ``cfrac.cli.run`` exits 1 on any
    ``DomainError``, so a new refusal subclasses it and needs no entry there.
    """


class NonPositiveTermError(DomainError):
    """Evaluation consumed a term whose partial numerator or denominator is
    not strictly positive, so the bracketing error bound does not apply."""

    def __init__(self, index, term):
        super().__init__(
            f"term {index} is not positive: a={term.a}, b={term.b}"
        )
        self.index = index
        self.term = term


class DepthCapError(RuntimeError):
    """The tolerance was not reached within the depth cap.

    ``best`` holds the deepest approximation with an error bound computed
    before giving up, or None when no state had one: an exp evaluation
    capped before its tanh interval lies below 1.
    """

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


class ExpansionExhaustedError(LookupError):
    """A finite expansion has fewer terms than requested."""

    def __init__(self, index, length):
        super().__init__(
            f"term {index} requested but the expansion has only {length} terms"
        )
        self.index = index
        self.length = length


class ZeroScaleError(DomainError):
    """Equivalence scale factors must be nonzero."""

    def __init__(self, index):
        super().__init__(f"scale factor c_{index} is zero")
        self.index = index


class InvalidTermError(DomainError):
    """A term (or term-rule coefficient) violates the positive-integer
    requirement of the tail criterion."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class TailUnreachableError(DomainError):
    """The partial denominators never eventually dominate the partial
    numerators, so the tail criterion can never be satisfied."""


class CertificateFormatError(ValueError):
    """A serialized certificate is structurally malformed."""
