"""Plain slotted records, the base of the package's value types.

A record class lists its fields in ``__slots__``, in constructor order, and
the defaults of its optional fields in ``_defaults``.  ``Record.__init__``
binds positional and keyword arguments to those fields as a signature
would, and raises ``TypeError`` for a missing field, an unknown or repeated
keyword or too many positional arguments.  Only a record that checks or
converts its input writes its own ``__init__``; it stores its fields with
``set_field``.  Two records of the same class are equal when their fields
are, and the repr is ``Name(field=value, ...)``.  Every record is
read-only and hashed by its fields, so one holding a list or a dict cannot
be hashed.
"""

from operator import attrgetter

# Stores a field of a read-only record, bypassing its ``__setattr__``.
set_field = object.__setattr__


class Record:
    """Field-wise construction, equality, hashing and repr over ``__slots__``."""

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        # the field values as one tuple: records have two fields or more
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes {len(fields)} "
                            f"arguments but {len(args)} were given")
        for name, value in zip(fields, args):
            set_field(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__qualname__}() missing "
                                f"argument {name!r}")
            set_field(self, name, value)
        for name in kwargs:
            problem = ("got multiple values for argument" if name in fields
                       else "got an unexpected keyword argument")
            raise TypeError(f"{type(self).__qualname__}() {problem} {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
