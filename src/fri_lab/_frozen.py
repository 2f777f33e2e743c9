"""Immutable value classes built from their annotations, cheaply at import.

``@frozen`` turns the annotated names of a class into fields and gives the
class a keyword-capable ``__init__`` (which calls ``__post_init__`` when the
class defines one), a ``Name(field=value, ...)`` repr, ``__eq__`` over the
field tuple between instances of the same class, a matching ``__hash__``,
and assignment and deletion that raise :class:`AttributeError`. Post-init
code sets derived attributes, which are not fields, with
``object.__setattr__``.

Only ``__init__`` is generated as source and compiled, once per class, so
that building an instance runs straight-line code; the other methods are
closures over the field names, because compiling them as well would more
than double the time it takes to build each class. Supported is only what
this package's classes use: plain defaults. Base classes, ``__slots__`` and
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
    env: dict[str, Any] = {"_set": object.__setattr__}
    names, params, body = list(cls.__annotations__), [], []
    for name in names:
        default = cls.__dict__.get(name, _MISSING)
        if default is _MISSING:
            params.append(name)
        else:
            env[f"_default_{name}"] = default
            params.append(f"{name}=_default_{name}")
        body.append(f"_set(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(
        f"def __init__(self, {', '.join(params)}):\n"
        + "".join(f"    {line}\n" for line in body or ["pass"]),
        env,
    )
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

    for method in (env["__init__"], __repr__, __eq__, __hash__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
