"""Frozen records without `dataclasses`: no code is generated, so import
is cheap. Fields are the class annotations, in order; a class attribute or
`field(default_factory=...)` is a default. Records compare and hash every
field, and only against the exact same class; a dict value hashes as the
set of its items, so, as for `==`, insertion order does not matter.
Assignment and deletion raise."""

from operator import attrgetter

_MISSING = object()
# fields are set and read as attributes, never through `self.__dict__`,
# which would turn the instance's inline values into a slower dict
_set = object.__setattr__


class field:
    def __init__(self, *, default_factory):
        self.default_factory = default_factory


class Record:
    def __init_subclass__(cls):
        names = tuple(cls.__dict__.get("__annotations__", ()))
        if not names:
            return                      # a subclass keeps its base's fields
        cls._fields, cls._defaults = names, {}
        for n in names:
            spec = cls.__dict__.get(n, _MISSING)
            if isinstance(spec, field):
                delattr(cls, n)
                cls._defaults[n] = spec.default_factory
            elif spec is not _MISSING:
                cls._defaults[n] = lambda d=spec: d
        # the tuple of field values, as a dataclass compares and hashes
        cls._key = staticmethod(attrgetter(*names) if len(names) > 1
                                else lambda r: (getattr(r, names[0]),))

    def __init__(self, *args, **kwargs):
        names = self._fields
        rest = names[len(args):]
        if len(args) > len(names) or kwargs and not kwargs.keys() <= set(rest):
            raise TypeError(f"{type(self).__name__}{names}: bad arguments")
        for n, v in zip(names, args):
            _set(self, n, v)
        for n in rest:
            if n in kwargs:
                _set(self, n, kwargs[n])
            elif n in self._defaults:
                _set(self, n, self._defaults[n]())
            else:
                raise TypeError(f"{type(self).__name__}{names}: missing {n!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        # dict equality ignores insertion order; its item set hashes so too
        return hash(tuple(frozenset(v.items()) if type(v) is dict else v
                          for v in self._key(self)))

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
