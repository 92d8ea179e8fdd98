"""Exception hierarchy shared by all cychom modules."""


class CychomError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CychomError):
    """Matrix or complex shapes do not line up."""


class CompositionNonzero(CychomError):
    """A pair of maps that must compose to zero does not."""


class TruncationTooTight(CychomError):
    """A homology degree was requested beyond the built range of a complex."""


class InvalidModulus(CychomError):
    """A modulus parameter was < 2."""


class InvalidParams(CychomError):
    """Numeric parameters out of their allowed domain (non-prime p, n < 1, ...)."""


class NotAChainMap(CychomError):
    """A map of complexes fails to commute with the differentials."""


class MatchingFailed(CychomError):
    """A Morse matching fails a check along a flow: a pair that is not an
    involution, a matched coefficient other than +-1, a cycle of flows, or a
    flow past its step cap."""


class NotDivisible(CychomError):
    """A reduction map was requested between non-divisible moduli."""


class BoundTooSmall(CychomError):
    """A degree bound is too small for the requested computation."""


class OutOfRange(CychomError):
    """A degree above the verified window, requested without allowing it,
    or a K-table whose orders have more digits than Python prints."""


class RangeEmpty(CychomError):
    """The K-table range 1 <= i <= p-3 is empty (p <= 3)."""


class ParseError(CychomError):
    """A structured input file could not be parsed."""
