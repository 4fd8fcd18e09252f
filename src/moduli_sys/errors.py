"""Exception hierarchy shared by all modules.

Every domain error derives from :class:`ModuliError`, so callers (in
particular the CLI) can distinguish computational failures from plain
usage errors such as ``ValueError``.  A failure that the arithmetic
rules out gets no class: Ho-Kalman at a certified Hankel order always
reproduces its window, so :mod:`moduli_sys.realization` raises no
"inconsistent data" error.
"""


class ModuliError(Exception):
    """Base class for domain errors raised by this package."""


class NonSquareSelection(ModuliError):
    """Minor selection with row/column index lists of different lengths."""


class IndexOutOfRange(ModuliError):
    """Row or column index outside the matrix."""


class SingularMatrix(ModuliError):
    """A matrix that was required to be invertible is not."""


class SingularBaseChange(ModuliError):
    """Base-change matrix is not invertible."""


class OracleTooLarge(ModuliError):
    """Subspace enumeration would exceed the oracle's subspace bound."""


class NonzeroThetaAlpha(ModuliError):
    """Stability weight does not pair to zero with the dimension vector."""


class NotControllable(ModuliError):
    """Operation requires a completely controllable system."""


class InvalidMultiIndex(ModuliError):
    """Multi-index does not describe a valid box code."""


class RankDeficient(ModuliError):
    """Matrix does not have the full rank required here."""


class DimensionMismatch(ModuliError):
    """Grassmannian point has the wrong subspace dimension for (m, p)."""


class NotInLocus(ModuliError):
    """Point is outside the controllable locus."""


class CensusTooLarge(ModuliError):
    """Exhaustive census would exceed the configured state bound."""


class NotStabilizedError(ModuliError):
    """Hankel ranks were not certified stable inside the data window."""


class InsufficientData(ModuliError):
    """Not enough sequence blocks to build the requested Hankel matrix."""


class ShapeMismatch(ModuliError):
    """System and sequence block shapes disagree."""
