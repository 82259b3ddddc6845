"""The base of every record the package builds.

A record is a plain class whose `_fields` is its constructor's signature:
`Record.__init__` takes one value per field, by position or by keyword,
and refuses a missing, extra or unknown one with a TypeError naming the
class and its fields.  A record writes its own `__init__` only to check,
convert or hide a field, and stores its fields through `set_field`, or,
in a hot constructor, through its slots' setters (`slot_setters`).
Afterwards assignment and deletion raise AttributeError, and the repr
reads `Name(field=value, ...)`, one entry per name in `_fields`.  Records
come in two kinds: a `Value` compares and hashes by the tuple of its
`_fields` (one holding a dict stays unhashable, since hashing the dict
raises TypeError), and any other `Record` compares by identity.  The one
exception is `euler.ConstructibleFunction`, which compares by a field its
repr leaves out and so defines its own `__eq__`.  Records with no
`cached_property` declare `__slots__`.

A kind of record that arrives as an argument names itself in its `noun`
("a simplicial complex"), and `require` reads an argument of that kind,
or of one of a tuple of kinds.
"""

from .errors import DegenerateInputError

# Stores one field from __init__, past the __setattr__ that refuses writes.
set_field = object.__setattr__


def slot_setters(cls) -> tuple:
    """The `__set__` of each of cls's own slots, in `__slots__` order.  A
    hot constructor stores its fields through these, past the refusing
    __setattr__ like set_field, but without set_field's lookup of each
    slot by name."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


def _bind(cls, values: tuple, named: dict) -> tuple:
    """cls's fields in `_fields` order, from a call that named some of them
    or passed the wrong number by position: each field given once."""
    fields = cls._fields
    rest = fields[len(values):]
    if len(values) > len(fields) or named.keys() != set(rest):
        raise TypeError(
            f"{cls.__qualname__}({', '.join(fields)}) takes each field once; got "
            f"{len(values)} by position and {', '.join(named) or 'none'} by name"
        )
    return values + tuple(named[name] for name in rest)


def require(value, kind, operation: str):
    """`value` if it is a `kind`, a class or a tuple of classes; anything
    else is refused with DegenerateInputError, naming `operation`, the
    function called, and each kind's `noun`."""
    if isinstance(value, kind):
        return value
    nouns = " or ".join(k.noun for k in kind) if isinstance(kind, tuple) else kind.noun
    raise DegenerateInputError(
        f"{operation} needs {nouns}; got {type(value).__name__}"
    )


class Record:
    __slots__ = ()
    _fields = ()  # the constructor's fields and the repr's, in order

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            values = _bind(type(self), values, named)
        for name, value in zip(fields, values):
            set_field(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """Fields restored by copy and pickle, which would otherwise write
        them through __setattr__; a slotted record's state is (None, slots)."""
        if isinstance(state, tuple):
            state = state[1]
        for name, value in state.items():
            set_field(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """A record equal to one of its own class with equal fields, and hashed
    by them: `_key()` is the tuple of fields."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())
