"""Exception types and the immutable record base shared across the package.

Plain division by zero raises the builtin ZeroDivisionError; out-of-range
indices raise the builtin IndexError.  Everything else gets a named type so
callers (and the CLI) can map failures to stable diagnostic codes.

_Record, the base of CodeFamily, Provenance, WedderburnTuple, Summand,
IdealSpec and IdempotentFamily, stands in for a frozen dataclass: importing
dataclasses pulls in inspect, about 10 ms of every CLI command's start-up.
"""


class _Record:
    """A frozen dataclass's behaviour for the fields a subclass annotates, in
    order, with the defaults it assigns: positional or keyword construction,
    == and hash by value within one type, Name(field=value, ...) as repr, and
    AttributeError on assignment or deletion."""

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        if "__init__" in cls.__dict__:
            return
        # compiled once per class, as dataclasses does: a generic *args __init__
        # took 3x as long, and construct_code builds a record per summand
        defaults = {f"_{f}": cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        params = ", ".join(f"{f}=_{f}" if f"_{f}" in defaults else f for f in cls._fields)
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in cls._fields)
        namespace = {"_set": object.__setattr__, **defaults}
        exec(f"def __init__(self, {params}):{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")


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
