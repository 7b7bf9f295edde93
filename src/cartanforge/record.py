"""Frozen records without `dataclasses`: no code is generated, so import
is cheap. Fields are the class annotations, in order; a class attribute or
`field(default_factory=...)` is a default. Records compare and hash the
fields not marked `field(compare=False)`, and only against the exact same
class; a class that defines `__eq__` and `__hash__` keeps its own.
Assignment and deletion raise."""

from operator import attrgetter

_MISSING = object()
# fields are set and read as attributes, never through `self.__dict__`,
# which would turn the instance's inline values into a slower dict
_set = object.__setattr__


class field:
    def __init__(self, *, compare=True, default=_MISSING, default_factory=None):
        self.compare, self.default, self.default_factory = (
            compare, default, default_factory)


class Record:
    def __init_subclass__(cls):
        names = tuple(cls.__dict__.get("__annotations__", ()))
        if not names:
            return                      # a subclass keeps its base's fields
        cls._fields, cls._defaults, compared = names, {}, []
        for n in names:
            spec = cls.__dict__.get(n, _MISSING)
            if not isinstance(spec, field):
                spec = field(default=spec)
            elif spec.default is _MISSING:
                delattr(cls, n)
            else:
                setattr(cls, n, spec.default)
            if spec.default_factory or spec.default is not _MISSING:
                cls._defaults[n] = (spec.default_factory
                                    or (lambda d=spec.default: d))
            if spec.compare:
                compared.append(n)
        # the tuple of compared values, as a dataclass compares and hashes
        cls._key = staticmethod(attrgetter(*compared) if len(compared) > 1
                                else lambda r: tuple(getattr(r, n)
                                                     for n in compared))

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
        return hash(self._key(self))

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
