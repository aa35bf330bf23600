"""Frozen value classes built from closures.

`record` gives a class with annotated fields a constructor taking the fields
by position or keyword, defaults from class attributes, a `__post_init__`
hook, value equality and hashing over the field tuple, a
`Name(field=value, ...)` repr, and fields that cannot be assigned or deleted.
The standard library's generator of such classes imports `inspect` and
compiles each class's methods from generated source, which every CLI process
would pay for at start-up.

There are no `__slots__`, so `functools.cached_property` still caches in the
instance dict.
"""

from __future__ import annotations


def record(cls):
    """Make cls a frozen value class over its annotated fields, those of its
    bases first."""
    fields = tuple(dict.fromkeys(
        name for klass in reversed(cls.__mro__[:-1]) for name in klass.__annotations__
    ))
    defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
    post_init = getattr(cls, "__post_init__", None)

    def values(self):
        return tuple(getattr(self, name) for name in fields)

    def __init__(self, *args, **kwargs):
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
        given = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in given:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            given[name] = value
        missing = [name for name in fields if name not in given and name not in defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing arguments: {', '.join(missing)}")
        for name in fields:
            object.__setattr__(self, name, given[name] if name in given else defaults[name])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
