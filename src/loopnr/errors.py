"""Exception types shared across the library.

Validation errors carry a ``witness`` attribute: the smallest (in
lexicographic index order) tuple of elements exhibiting the violated
axiom, so failures are reproducible by hand.
"""


class LoopNrError(Exception):
    """Base class for all library errors."""


class ValidationError(LoopNrError):
    """A structure table violates one of its defining axioms."""

    axiom = "structure"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class EntriesOutOfRange(ValidationError):
    axiom = "entries-in-range"


class NotLatinSquare(ValidationError):
    axiom = "latin-square"


class NoTwoSidedZero(ValidationError):
    axiom = "two-sided-zero"


class MulNotAssociative(ValidationError):
    axiom = "mul-associative"


class NotIdentity(ValidationError):
    axiom = "mul-identity"


class RightDistributivityFails(ValidationError):
    axiom = "right-distributivity"


class ZeroNotLeftAbsorbing(ValidationError):
    axiom = "zero-left-absorbing"


class AdditionNotAbelianGroup(ValidationError):
    axiom = "abelian-addition"


class LeftDistributivityFails(ValidationError):
    axiom = "left-distributivity"


class NotAHomomorphism(ValidationError):
    axiom = "homomorphism"


class NotASubloop(LoopNrError):
    """The given subset is not closed under the loop operations."""


class NotAnIdeal(LoopNrError):
    """The given subset is not a two-sided ideal."""


class NotIdempotent(LoopNrError):
    """An argument required to satisfy e*e == e does not."""


class ZeroIdempotent(LoopNrError):
    """The zero idempotent was passed where a nonzero one is required."""


class NotApproximatelyIdempotent(LoopNrError):
    """x*x - x does not lie in the given ideal, so x cannot be lifted."""


class BoundExceeded(LoopNrError):
    """A size cap from :class:`loopnr.config.Bounds` was exceeded."""


class PreconditionFailed(LoopNrError):
    """A stated hypothesis of the requested check does not hold.

    The message names the violated hypothesis.
    """


class HypothesisFailed(LoopNrError):
    """A theorem's hypothesis fails on this input; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class LimitReached(LoopNrError):
    """Family enumeration exceeded the configured cap.

    ``partial`` holds the families found before the cap was hit.
    """

    def __init__(self, message, partial=()):
        super().__init__(message)
        self.partial = tuple(partial)


class ParseError(LoopNrError):
    """A structure file or generator spec string could not be parsed."""


class TheoremViolation(AssertionError):
    """A certified theorem failed on a concrete finite structure.

    This is a fatal internal assertion, not a recoverable error: if it
    ever fires, either the implementation is wrong or the theorem is.
    """
