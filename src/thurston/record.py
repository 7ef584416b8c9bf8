"""Field-wise value semantics for the package's plain classes.

A record class names its constructor's fields, in order, in `_fields`,
and the ones that equality compares in `_compared`.  Two records are
equal when they are of the same class and their compared fields are
equal; the repr shows every field, as `Name(field=value, ...)`.

A `Record` is mutable and so unhashable.  A `FrozenRecord` hashes by its
compared fields and raises AttributeError on assignment and deletion;
its constructor sets the fields with `object.__setattr__`.
"""


class Record:
    __slots__ = ()

    def _key(self):
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable: cannot assign %r"
                             % (self.__class__.__name__, name))

    def __delattr__(self, name):
        raise AttributeError("%s is immutable: cannot delete %r"
                             % (self.__class__.__name__, name))
