"""Exception types shared by every module in the package, and the base of
its result records."""


class Record:
    """A record whose fields are its ``__slots__``: equal to a record of the
    same type with equal fields, shown as ``Name(field=value, ...)``, and
    pickled and copied through its constructor.  Each record writes its own
    ``__init__``; this base is mutable and unhashable."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class FrozenRecord(Record):
    """A hashable Record whose fields cannot change once ``__init__`` has
    stored them with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class QuadranceError(Exception):
    """Base class for all domain errors raised by this package."""


# -- field construction and arithmetic ------------------------------------

class CharacteristicTwo(QuadranceError):
    """The field F_2 (or any characteristic-2 field) is not supported."""


class NotPrime(QuadranceError):
    """A prime-field modulus failed the primality check."""


class DivisionByZero(QuadranceError, ZeroDivisionError):
    """Division or inversion with a zero divisor."""


class MixedContexts(QuadranceError):
    """Two operands belong to different fields."""


class InfiniteField(QuadranceError):
    """Enumeration requested over the rationals."""


class InvalidArgument(QuadranceError, ValueError):
    """An argument outside a function's domain: an all-zero proportion, an
    out-of-range index or exponent, or a rational too long to print."""


# -- geometry --------------------------------------------------------------

class DegenerateForm(QuadranceError):
    """The form has zero discriminant and defines no metrical structure."""


class NullPoint(QuadranceError):
    """A projective point is null for the form in use.

    ``argument`` names which input was null (e.g. "a1").
    """

    def __init__(self, message, argument=None):
        super().__init__(message)
        self.argument = argument


class CoincidentPoints(QuadranceError):
    """Two points coincide where distinct points are required."""


class DegenerateDenominator(QuadranceError):
    """A solution formula's denominator vanished."""


class NotIsometry(QuadranceError):
    """A map or matrix is not an isometry of the structure in question."""


class NullParameter(QuadranceError):
    """An isometry or multiplication parameter is null for its color."""


class ColorMismatch(QuadranceError):
    """Two isometries of different colors cannot be composed."""


class NotUnitCircle(QuadranceError):
    """The point cannot be scaled onto x^2 + y^2 = 1 inside its field."""


# -- polynomial engine ------------------------------------------------------

class NonIntegralResult(QuadranceError):
    """An exact division that must yield integers did not."""


class FactorizationFailure(QuadranceError):
    """A polynomial factor came out with a remainder or wrong degree."""


# -- command line ------------------------------------------------------------

class ParseError(QuadranceError):
    """Malformed literal, descriptor, or request line."""


class UnknownSuite(QuadranceError):
    """The requested verification suite does not exist."""
