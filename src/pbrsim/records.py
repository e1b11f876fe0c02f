"""One base for the package's frozen records.

`@dataclass(frozen=True)` writes `__init__`, `__repr__`, `__eq__`,
`__hash__`, `__setattr__` and `__delattr__` of each class as source text
and `exec`s each one at every interpreter start: cached bytecode holds only
the module's own code, never the generated methods. For the package's
eleven records that was 64 compiles on every command line run.

`Record` holds those methods once, and `record` makes a class a dataclass
that generates none (`dataclass(init=False, repr=False, eq=False)`), so
`fields`, `replace`, `asdict`, `astuple`, `is_dataclass` and
`__match_args__` keep working. A record behaves like a frozen dataclass of
the same fields: every attribute set and delete raises
`FrozenInstanceError` with the same message, it equals only a record of
its own class with equal compared fields, it hashes as the tuple of those
fields and shows the same repr. It differs in two things:
`__dataclass_params__` reports `frozen=False, eq=False`, since the base
freezes and compares, and the `__init__` that `record` supplies takes
`(*args, **kwargs)` and binds them as the generated one would. A call it
refuses is passed on to a frozen dataclass twin of the class, built only
then, so the running interpreter raises its own `TypeError`; an accepted
call compiles nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, FrozenInstanceError
from operator import attrgetter
from reprlib import recursive_repr


class Record:
    """Frozen, equal by compared fields, hashed over them and shown like a dataclass."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared(self) == self._compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._compared(self))

    @recursive_repr()
    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"


def _tuple_of(names: tuple[str, ...]):
    # obj -> the tuple of its attributes `names` (attrgetter gives a bare
    # value for one name).
    if len(names) > 1:
        return attrgetter(*names)
    return lambda obj: tuple(getattr(obj, name) for name in names)


def record(cls: type) -> type:
    """Make a `Record` subclass a dataclass of its fields, with an `__init__`.

    The class keeps its own `__init__` if it writes one. Fields take plain
    defaults only: no `default_factory`, `init=False` or `kw_only`.
    """
    cls = dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
    fields = dataclasses.fields(cls)
    if any(f.default_factory is not MISSING or not f.init or f.kw_only for f in fields):
        raise TypeError(f"{cls.__qualname__}: record fields take plain defaults only")
    cls._compared = staticmethod(_tuple_of(tuple(f.name for f in fields if f.compare)))
    cls._shown = tuple(f.name for f in fields if f.repr)
    if "__init__" not in cls.__dict__:
        cls.__init__ = _init(cls, fields)
    return cls


def _init(cls: type, fields):
    names = tuple(f.name for f in fields)
    defaults = {f.name: f.default for f in fields if f.default is not MISSING}
    # With k arguments given by position, the keywords must name need[k]
    # and may name only allowed[k].
    cuts = range(len(names) + 1)
    need = [frozenset(n for n in names[k:] if n not in defaults) for k in cuts]
    allowed = [frozenset(names[k:]) for k in cuts]
    post_init = hasattr(cls, "__post_init__")
    put = object.__setattr__

    def __init__(self, *args, **kwargs):
        k = len(args)
        if k > len(names) or not need[k] <= kwargs.keys() <= allowed[k]:
            _refuse(cls, fields, args, kwargs)
        # One object.__setattr__ per field, in field order, as the generated
        # __init__ writes them: an instance whose __dict__ is never touched
        # keeps its fields inline, where attribute reads and method lookups
        # are fastest.
        for name, value in zip(names, args):
            put(self, name, value)
        for name in names[k:]:
            put(self, name, kwargs[name] if name in kwargs else defaults[name])
        if post_init:
            self.__post_init__()

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return __init__


def _refuse(cls: type, fields, args: tuple, kwargs: dict):
    """Raise the TypeError a generated `__init__` raises for this call.

    The call goes to a frozen dataclass twin of `cls`, built only here, so
    the running interpreter words the error itself.
    """
    twin = dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default)) for f in fields],
        namespace={"__qualname__": cls.__qualname__},
        frozen=True,
    )
    twin(*args, **kwargs)
