"""Domain errors raised by the quadratic tree calculus.

Every error message states the violated precondition in mathematical terms;
the CLI prints the error class name followed by that message and exits with
status 1.
"""


class QTreeError(Exception):
    """Base class for all domain errors of the calculus."""


class RootHasNoParent(QTreeError):
    """The root has level 0 and dominates no smaller point."""


class NotAntichain(QTreeError):
    """The given points are not pairwise incomparable."""


class RootNotAllowed(QTreeError):
    """The root cannot be a member of this point set."""


class EmptyInput(QTreeError):
    """A nonempty collection is required."""


class UnitIdeal(QTreeError):
    """The unit ideal is admitted only as a multiplication identity."""


class NotSaturated(QTreeError):
    """The ideal's factor support is not closed under taking parents."""


class InvalidBasePoints(QTreeError):
    """A base-point set must contain the root and be closed under parents."""


class InvalidDescriptor(QTreeError):
    """The subset is not carried by the closed points of the model."""


class NotMPrimary(QTreeError):
    """A proper monomial ideal is m-primary only if it meets both axes."""


class NotComplete(QTreeError):
    """The monomial ideal is not integrally closed."""


class NotCoprime(QTreeError):
    """Monomial valuation weights must be coprime positive integers."""


class NonToricPoint(QTreeError):
    """The point's path leaves the two coordinate directions."""


class OracleMismatch(QTreeError):
    """A brute-force cross-check disagreed with the symbolic result."""


class OutputTooLarge(QTreeError):
    """The answer would exceed a documented size cap; refused before it is built."""
