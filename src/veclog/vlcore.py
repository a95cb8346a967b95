"""Fixed-length binary and ternary vectors and the core logic operations.

Vectors are immutable values. Coordinates are numbered 1..len in prose and
rendered left to right, so the string form of a vector reads exactly like a
printed register: coordinate 1 is the leftmost character.
"""
from __future__ import annotations

import operator
import sys
from typing import Optional

# per alphabet, the str.translate table that deletes its symbols
_DELETE = {alpha: str.maketrans("", "", alpha) for alpha in ("01", "01x")}


class LengthMismatch(ValueError):
    """Binary operation applied to vectors of different lengths."""


class EmptyInput(ValueError):
    """An operation that needs at least one coordinate got none."""


class ParseError(ValueError):
    """Rejected textual form; carries the offending position when known."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        super().__init__(message)
        self.line = line
        self.column = column


def decimal(token: str, line: Optional[int] = None,
            error: type[ValueError] = ParseError) -> int:
    """The value of ``token``, a string the caller has checked with
    ``str.isdecimal``.  More digits than the interpreter converts
    (``sys.get_int_max_str_digits()``, 4300 by default) raise
    ``error(message, line)`` instead of a bare ValueError."""
    try:
        return int(token)
    except ValueError:
        raise error(f"number has {len(token)} digits, more than the "
                    f"{sys.get_int_max_str_digits()} allowed", line) from None


def decimals(text: str, count: int, line: int, message: str) -> list[int]:
    """The ``count`` decimal numbers on ``text``, one line of an input file;
    ``ParseError(message, line)`` when the count or a token is wrong."""
    parts = text.split()
    if len(parts) != count or not all(p.isdecimal() for p in parts):
        raise ParseError(message, line=line)
    return [decimal(p, line) for p in parts]


def check_symbols(text: str, alphabet: str, what: str = "",
                  line: Optional[int] = None) -> None:
    """Raise ``ParseError(f"invalid symbol {ch!r}{what}", line, column)`` at
    the first symbol of ``text`` outside ``alphabet`` ("01" or "01x").  The
    text is scanned symbol by symbol only when it holds a bad one."""
    if text.translate(_DELETE[alphabet]):
        for col, ch in enumerate(text, start=1):
            if ch not in alphabet:
                raise ParseError(f"invalid symbol {ch!r}{what}", line, col)


def same_length(a, b) -> None:
    """Raise LengthMismatch unless the operands have the same ``length``."""
    if a.length != b.length:
        raise LengthMismatch(
            f"operand lengths differ: {a.length} vs {b.length}")


def value_type(cls):
    """Class decorator for the package's immutable value types.

    The fields are the names the class body annotates, in order, and a
    class attribute of the same name is that field's default.  The class
    gets ``==`` and ``hash`` over the fields, equal only between instances
    of the same class; ``__match_args__``; AttributeError on any assignment
    or deletion; and copies and pickles rebuilt by the constructor.  Unless
    its body defines them, it also gets an ``__init__`` taking the fields by
    position or keyword that calls ``__post_init__`` when the class defines
    one, and the ``Name(field=value, ...)`` repr.  As assignment raises, an
    own ``__init__`` or a ``__post_init__`` stores a field through
    ``self.__dict__`` or a slot descriptor's ``__set__``.  That is the
    frozen-dataclass contract, kept without importing the dataclass
    machinery or compiling code for every class.

    A class whose body declares ``__slots__``, a tuple of its field names,
    holds no ``__dict__``, and the generic ``__init__`` writes each field
    through its slot descriptor.  The types made once per input line
    (``BitVector``, ``cover.Spare``, ``lamp.RowRef``, ``lamp.Instruction``)
    declare slots, as a ``__dict__`` would be most of each one's size.  A
    slotted field has no default, as a class attribute of its name would
    clash with its descriptor.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    slots = cls.__dict__.get("__slots__", ())
    defaults = {n: cls.__dict__[n] for n in names
                if n in cls.__dict__ and n not in slots}
    setters = tuple(cls.__dict__[n].__set__ for n in names) if slots else ()
    fields = operator.attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(cls.__qualname__, names, defaults, args, kwargs)
        if setters:  # slot writes, as assignment raises
            for setter, value in zip(setters, args):
                setter(self, value)
        else:
            self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__init__ = cls.__dict__.get("__init__", __init__)
    cls.__repr__ = cls.__dict__.get("__repr__", __repr__)
    cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(fields(self))
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    cls.__reduce__ = lambda self: (
        self.__class__, tuple(getattr(self, n) for n in names))
    cls.__match_args__ = names
    return cls


def _bind(qualname, names, defaults, args, kwargs) -> list:
    """The field values of one call, with the TypeError Python raises for a
    call that does not match the signature."""
    if len(args) > len(names):
        raise TypeError(f"{qualname}() takes {len(names)} positional "
                        f"arguments but {len(args)} were given")
    for name in names[:len(args)]:
        if name in kwargs:
            raise TypeError(f"{qualname}() got multiple values for "
                            f"argument {name!r}")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{qualname}() missing required argument "
                            f"{name!r}")
    if kwargs:
        raise TypeError(f"{qualname}() got an unexpected keyword argument "
                        f"{next(iter(kwargs))!r}")
    return values


def _check_length(n: int) -> None:
    if n < 1:
        raise ValueError(f"vector length must be at least 1, got {n}")


@value_type
class BitVector:
    """Immutable vector over {0,1}.

    Coordinate k (1-based) is stored at bit position ``length - k`` of
    ``value``, so ``value`` reads as the binary number printed by ``str()``.
    """

    __slots__ = ("value", "length")
    value: int
    length: int

    def __init__(self, value: int, length: int):
        if length < 1 or value < 0 or value >> length:  # one test when valid
            _check_length(length)
            raise ValueError("value does not fit the stated length")
        _set_value(self, value)  # slot writes, as assignment raises
        _set_length(self, length)

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        if not text:
            raise EmptyInput("empty bit string")
        check_symbols(text, "01", " in bit string")
        return cls(int(text, 2), len(text))

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(0, length)

    @classmethod
    def ones(cls, length: int) -> "BitVector":
        return cls((1 << length) - 1, length)

    @property
    def popcount(self) -> int:
        return self.value.bit_count()

    def __and__(self, other: "BitVector") -> "BitVector":
        if not isinstance(other, BitVector):
            return NotImplemented
        same_length(self, other)
        return BitVector(self.value & other.value, self.length)

    def __or__(self, other: "BitVector") -> "BitVector":
        if not isinstance(other, BitVector):
            return NotImplemented
        same_length(self, other)
        return BitVector(self.value | other.value, self.length)

    def __xor__(self, other: "BitVector") -> "BitVector":
        if not isinstance(other, BitVector):
            return NotImplemented
        same_length(self, other)
        return BitVector(self.value ^ other.value, self.length)

    def __invert__(self) -> "BitVector":
        return BitVector(~self.value & ((1 << self.length) - 1), self.length)

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b")

    def __repr__(self) -> str:
        return f"BitVector('{self}')"


_set_value, _set_length = BitVector.value.__set__, BitVector.length.__set__


@value_type
class TernaryVector:
    """Immutable vector over {0,1,x}; x is a don't-care covering both values.

    A vector with k x-coordinates denotes a space of 2**k binary vectors.
    """

    ones: int
    xs: int
    length: int

    def __post_init__(self):
        _check_length(self.length)
        if min(self.ones, self.xs) < 0 or (self.ones | self.xs) >> self.length:
            raise ValueError("coordinate masks do not fit the stated length")
        if self.ones & self.xs:
            raise ValueError("a coordinate cannot be both 1 and x")

    @classmethod
    def from_string(cls, text: str) -> "TernaryVector":
        if not text:
            raise EmptyInput("empty ternary string")
        check_symbols(text, "01x", " in ternary string")
        return cls.from_symbols(text)

    @classmethod
    def from_symbols(cls, text: str) -> "TernaryVector":
        """The vector of a non-empty string already checked to hold only
        0, 1 and x."""
        ones = int(text.replace("x", "0"), 2)
        xs = int(text.replace("1", "0").replace("x", "1"), 2)
        return cls(ones, xs, len(text))

    @property
    def xcount(self) -> int:
        return self.xs.bit_count()

    def __str__(self) -> str:
        ones = format(self.ones, f"0{self.length}b")
        xs = format(self.xs, f"0{self.length}b")
        return "".join("x" if x == "1" else one for one, x in zip(ones, xs))

    def __repr__(self) -> str:
        return f"TernaryVector('{self}')"


@value_type
class EmptyIntersection:
    """Intersection collapsed: at least one coordinate held 0 on one side
    and 1 on the other.  Not an error; callers need the clash count."""

    empty_count: int


def slc(a: BitVector) -> BitVector:
    """Shift-left-crowding: compact all 1s to the left end, count preserved."""
    ones = a.popcount
    return BitVector(((1 << ones) - 1) << (a.length - ones), a.length)


@value_type
class CompactedQuality:
    """Left-justified quality vector; renders as (ones/length)."""

    compacted: BitVector

    def __str__(self) -> str:
        return f"({self.compacted.popcount}/{self.compacted.length})"


def ternary_intersect(a: TernaryVector,
                      b: TernaryVector) -> "TernaryVector | EmptyIntersection":
    """Coordinatewise intersection: x absorbs, equal symbols keep, 0 vs 1
    empties the coordinate.  Any empty coordinate empties the whole result."""
    same_length(a, b)
    mask = (1 << a.length) - 1
    both_defined = (mask ^ a.xs) & (mask ^ b.xs)
    clash = both_defined & (a.ones ^ b.ones)
    if clash:
        return EmptyIntersection(clash.bit_count())
    return TernaryVector(a.ones | b.ones, a.xs & b.xs, a.length)
