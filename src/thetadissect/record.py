"""The one base of the engine's immutable values: AST nodes, coefficients,
scaled monomials, series, theta arguments, identities and reports. The rest
are laurent.py's two named tuples, Monomial and Mismatch.

A record keeps its fields in __slots__, in the order its __init__ takes
them, and is read-only: assignment and deletion raise AttributeError, so each
class's own __init__ (written out by hand, with its defaults and checks) sets
its fields through `set_field`. Two records are equal when they are of the
same class and their fields are equal, and the hash is taken of the same
(class, fields) key, so records of one field layout (Negate and RealPart,
Sum and Product) never compare equal. The fields that compare, hash and
print are every slot, or those a class names in `_fields` (Report leaves its
series and exception out).
"""
from operator import attrgetter

# a record's __init__ sets each field past the __setattr__ that refuses it
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _slots: tuple = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._slots = cls._slots + tuple(cls.__dict__.get("__slots__", ()))
        if "_fields" not in cls.__dict__:
            cls._fields = cls._slots
        # one field reads as its value, more as a tuple: either is the key
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash((self.__class__, self._key(self)))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a %s" % (name, type(self).__name__))

    def __reduce__(self):
        # copy and pickle rebuild a record through its __init__, which
        # takes every slot positionally, in slot order
        return self.__class__, tuple(getattr(self, name) for name in self._slots)
