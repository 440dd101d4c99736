"""Exception types shared across the package.

Plain division by zero raises the builtin ZeroDivisionError; out-of-range
indices raise the builtin IndexError.  Everything else gets a named type so
callers (and the CLI) can map failures to stable diagnostic codes.
"""


class DihedralCodesError(Exception):
    """Base class for all library-specific errors."""


class NotPrimeError(DihedralCodesError, ValueError):
    """Field characteristic is not a prime number."""


class NotMonicError(DihedralCodesError, ValueError):
    """Modulus polynomial is not monic (or is constant)."""


class ReducibleError(DihedralCodesError, ValueError):
    """Modulus polynomial factors over GF(p).

    Carries a witness when one is cheaply available: either a root in GF(p)
    or a proper factor (little-endian coefficient list).
    """

    def __init__(self, message, root=None, factor=None):
        super().__init__(message)
        self.root = root
        self.factor = factor


class MixedContextsError(DihedralCodesError, ValueError):
    """Operands belong to different field or algebra contexts."""


class ZeroElementError(DihedralCodesError, ValueError):
    """Operation requires a nonzero field element."""


class LengthMismatchError(DihedralCodesError, ValueError):
    """Coordinate vector has the wrong length."""


class RootUnavailableError(DihedralCodesError, ValueError):
    """A primitive n-th root of unity is required but n does not divide q-1."""


NoSuchRootError = RootUnavailableError  # no element of order n exists in GF(q)


class CharDividesOrderError(DihedralCodesError, ValueError):
    """The field characteristic divides the group order 2n."""


class EvenNError(DihedralCodesError, ValueError):
    """Operation is only defined for odd n."""


class InvalidRowSpecError(DihedralCodesError, ValueError):
    """Ideal summand specification is malformed (e.g. row generator (0,0))."""


class BadOrderError(DihedralCodesError, ValueError):
    """Twist scalar has multiplicative order <= 2n where > 2n is required."""


class BetaIsNthRootError(DihedralCodesError, ValueError):
    """Twist scalar is an n-th root of unity where beta^n != 1 is required."""


class NotCoprimeError(DihedralCodesError, ValueError):
    """Twist index s is out of range or not coprime to n."""


class CapExceededError(DihedralCodesError, ValueError):
    """A distance engine would pass its cap: exhaustive enumeration's q^k - 1
    words, or the dual engine's column subsets on either side."""


class UnsupportedStyleError(DihedralCodesError, ValueError):
    """Requested generator-matrix style is unavailable for this code."""
