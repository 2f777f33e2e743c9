"""Immutable value classes built from their annotations, cheaply at import.

``@frozen`` turns the annotated names of a class into fields and rebuilds the
class with ``__slots__`` for them, beside ``__dict__`` and ``__weakref__``. It
gives the class a keyword-capable ``__init__`` (which calls ``__post_init__``
when the class defines one), a ``Name(field=value, ...)`` repr, ``__eq__`` over
the field tuple between instances of the same class, a matching ``__hash__``,
a ``__reduce__`` for pickle and ``copy``, and assignment and deletion that
raise :class:`AttributeError`. Post-init code sets fields, and derived
attributes that are not fields, with ``object.__setattr__``; the derived ones
live in the instance ``__dict__``, which is also where ``cached_property``
keeps its values.

Only ``__init__`` is generated as source and compiled, once per class, so
that building an instance runs straight-line code that writes each field
through its slot; the other methods are closures over the field names,
because compiling them as well would more than double the time it takes to
build each class. A pickle holds the class, the field values and the
instance ``__dict__``: loading it calls the class, so ``__post_init__`` runs
again, then restores the ``__dict__``. Supported is only what this package's
classes use: plain defaults. Base classes, a class's own ``__slots__`` and
ordering are not.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

_MISSING = object()


def _setattr(self: object, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self: object, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _values(names: list[str]) -> Callable[[object], tuple]:
    """A function returning the tuple of the named attributes of its argument."""
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda self: (get(self),)


def frozen(cls: type) -> type:
    """Make ``cls`` an immutable value class over its annotated fields."""
    names = list(cls.__annotations__)
    # the slots replace the class's own __dict__ and __weakref__ descriptors,
    # and a default cannot stay in the namespace beside its field's slot
    namespace = {key: value for key, value in cls.__dict__.items()
                 if key not in ("__dict__", "__weakref__")}
    env: dict[str, Any] = {}
    params, body = [], []
    for name in names:
        default = namespace.pop(name, _MISSING)
        if default is _MISSING:
            params.append(name)
        else:
            env[f"_default_{name}"] = default
            params.append(f"{name}=_default_{name}")
        body.append(f"_set_{name}(self, {name})")
    if "__post_init__" in namespace:
        body.append("self.__post_init__()")
    values = _values(names)

    def __repr__(self: object) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self: object, other: object) -> bool:
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self: object) -> int:
        return hash(values(self))

    def __reduce__(self: object) -> tuple:
        return (self.__class__, values(self), self.__dict__ or None)

    namespace.update(__slots__=(*names, "__dict__", "__weakref__"),
                     __qualname__=cls.__qualname__,
                     __setattr__=_setattr, __delattr__=_delattr)
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    for name in names:
        env[f"_set_{name}"] = cls.__dict__[name].__set__  # the slot's member descriptor
    exec(
        f"def __init__(self, {', '.join(params)}):\n"
        + "".join(f"    {line}\n" for line in body or ["pass"]),
        env,
    )
    for method in (env["__init__"], __repr__, __eq__, __hash__, __reduce__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
