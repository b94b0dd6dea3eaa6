"""Exception hierarchy shared by all nokequal modules."""


class NoKEqualError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NoKEqualError):
    """Invalid user-supplied data (bad preorder, bad configuration, ...)."""


class MalformedSyntax(InputError):
    """Preorder text does not conform to the bracket grammar."""


class NotAPartition(InputError):
    """Level sets do not partition {1..n} (repeated or missing element)."""


class NotString(InputError):
    """A relation matrix has no string form (classes not totally ordered)."""


class AmbientMismatch(InputError):
    """Operands live on different ambient sizes (or parameters disagree)."""


class NotAdmissible(InputError):
    """Operation requires an admissible preorder for the given k."""


class NotElementary(InputError):
    """Operation requires an elementary preorder for the given k."""


class IndexOutOfRange(InputError):
    """Generator index outside the range allowed by (k, n)."""


class ParameterOutOfRange(InputError):
    """Numeric parameters outside the allowed range."""


class RangeViolation(InputError):
    """Closed-form formula evaluated outside its validity range."""


class NotInSpace(InputError):
    """Configuration violates the collision constraint."""


class DimensionMismatch(InputError):
    """Configuration length does not match the constraint's vertex count."""


class CertificateFailure(NoKEqualError):
    """A certified bound's own check failed: its witness vanished or two
    independent derivations of the bound disagree."""


class TooLarge(NoKEqualError):
    """Requested computation exceeds the configured feasibility bounds."""
