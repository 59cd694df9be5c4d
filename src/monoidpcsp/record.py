"""Frozen records: the one class decorator for the package's immutable
value types.

``@record`` gives a class what ``@dataclass(frozen=True)`` gives it, built
from closures rather than generated source, so importing the package pulls
in neither ``dataclasses`` nor ``inspect``.  This module imports nothing
from the package, so every module can use it.
"""

from operator import attrgetter


def record(cls):
    """Make cls a frozen record over its annotated fields, in order.

    ``__init__`` takes the fields positionally, fills missing trailing ones
    from their class-level defaults and then runs ``__post_init__`` if the
    class has one.  Two records are equal when they are of the same class
    and their field tuples are equal; the hash is the hash of the field
    tuple, as for a frozen dataclass.  Class attributes stay assignable.
    """
    # the class attribute, not the class dict: where annotations are
    # evaluated lazily the dict holds only ``__annotate__``
    names = tuple(cls.__annotations__)
    if not names:
        raise TypeError(f"record {cls.__name__} has no annotated fields")
    n = len(names)
    defaults = tuple(cls.__dict__[name] for name in names if name in cls.__dict__)
    required = n - len(defaults)
    if any(name in cls.__dict__ for name in names[:required]):
        raise TypeError(f"record {cls.__name__} has a field without a default "
                        "after one with a default")
    post_init = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    key = get if n > 1 else (lambda self: (get(self),))

    # fields go in one by one, not through self.__dict__: an instance whose
    # dict is never asked for keeps its values inline, and reading them is
    # faster (the attribute reads of FiniteMonoid.mul are on every hot path)
    def __init__(self, *args):
        if len(args) != n:
            if not required <= len(args) < n:
                raise TypeError(f"{cls.__name__}() takes the fields {names}")
            args += defaults[len(args) - required:]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
