"""Frozen value classes without ``dataclasses``.

A subclass lists its fields in ``__slots__`` and writes its own
``__init__``, which takes the fields in that order, validates them and
stores them with ``set_field``.  The base then gives it equality within
one class, a hash, the ``Name(field=value, ...)`` repr, copying and
pickling through ``__init__``, and instances that refuse assignment.  A
``"__dict__"`` slot (room for ``functools.cached_property``) is not a
field.  A subclass that derives quantities from its fields as properties
may name, in ``_shown``, the fields and properties its repr prints, in
order; equality and hashing read the fields alone.  A subclass whose
fields spell one value in several ways overrides ``_key``, which equality
and hashing compare; copies and pickles keep the stored fields.  Importing
``dataclasses`` would load ``inspect`` and ``ast`` in every CLI call and
build each class's methods with ``exec`` at import.
"""

set_field = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple = ()
    _shown: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        cls._fields = tuple(name for name in slots if name != "__dict__")
        cls._shown = cls.__dict__.get("_shown", cls._fields)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return (type(self), Value._key(self))  # the stored fields, whatever `_key` compares

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
