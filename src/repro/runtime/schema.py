"""The field-schema table: one description of every message's fields.

Derived once per class from the dataclass annotations, it is the only
source for the three things that must agree about a message's shape: the
wire codec (:mod:`repro.net.wire`), the receive-path validator
(:mod:`repro.runtime.validation`) and the chaos layer's field mutator
(:meth:`repro.chaos.FaultInjector.mutate_message`).  The fourth is
:func:`builder_of`, the records' constructor without the dataclass
``__init__`` (``__post_init__`` still refuses a bad record); the fifth
is :data:`COLUMN_VIEWS`, a ``seq``'s decoded form where it is columns.

A field's type is a small tree of :class:`Kind` nodes.  ``tag`` is a
scalar (``str`` ``float`` ``int`` ``bool`` ``bytes``, no ``arg``) or a
container: ``opt`` (``T | None``; ``arg`` = kind of ``T``), ``seq``
(``tuple[T, ...]``; kind of ``T``), ``tuple`` (fixed shape; the kinds),
``union`` (``A | B`` of dataclasses; their ``struct`` kinds in annotation
order), ``struct`` (a dataclass, or ``Polygon``; the class).  Any other
annotation — ``dict``, ``Any``, ``list``, a bare ``tuple`` — raises
:class:`~repro.errors.WireError` at the first :func:`schema_of`
(``tests/core/test_message_registry.py`` asks for every catalogue class,
so such a field fails a test, not a frame).

``rule`` on a scalar names the check honest senders always pass:
``"nan"`` on every float, ``"epoch"`` on an int field named ``epoch`` /
``*_epoch``, ``"id"`` on a str field named like an identifier.
Containers hand their field's name down to their items.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import types
import typing
from operator import attrgetter
from typing import Callable, NamedTuple

from repro.errors import WireError

__all__ = ["Kind", "Field", "schema_of", "builder_of", "COLUMN_VIEWS", "is_id_field",
           "is_epoch_field"]

#: field names treated as identifiers (must be non-empty strings).
_ID_SUFFIXES = ("_id",)
_ID_NAMES = frozenset({"sender", "origin", "dest", "entry", "successor"})


def is_id_field(name: str) -> bool:
    """True for field names whose values must be non-empty id strings."""
    return name.endswith(_ID_SUFFIXES) or name in _ID_NAMES


def is_epoch_field(name: str) -> bool:
    """True for field names carrying a topology epoch (must be >= 0)."""
    return name == "epoch" or name.endswith("_epoch")


class Kind(NamedTuple):
    tag: str
    arg: object = None
    rule: str | None = None

    @property
    def scalar(self) -> "Kind":
        """The kind itself, or what an ``opt`` wraps: where a field's own
        ``rule`` (if any) sits."""
        return self.arg if self.tag == "opt" else self


class Field(NamedTuple):
    name: str
    kind: Kind
    #: no default: a frame that omits the field cannot build the object.
    required: bool
    #: ``attrgetter(name)``, made once.
    get: Callable


_SCHEMAS: dict[type, tuple[Field, ...]] = {}


def _kind_of(hint, name: str) -> Kind:
    if hint is float:
        return Kind("float", rule="nan")
    if hint is int:
        return Kind("int", rule="epoch" if is_epoch_field(name) else None)
    if hint is str:
        return Kind("str", rule="id" if is_id_field(name) else None)
    if hint is bool or hint is bytes:
        return Kind(hint.__name__)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        rest = tuple(a for a in args if a is not type(None))
        if len(rest) < len(args):
            return Kind("opt", _kind_of(typing.Union[rest], name))
        variants = tuple(_kind_of(variant, name) for variant in rest)
        if any(variant.tag != "struct" for variant in variants):
            raise WireError(f"field {name!r}: a union must be of dataclasses, got {hint!r}")
        return Kind("union", variants)
    if origin is tuple and args:
        if len(args) == 2 and args[1] is Ellipsis:
            return Kind("seq", _kind_of(args[0], name))
        return Kind("tuple", tuple(_kind_of(a, name) for a in args))
    if hint in _SCHEMAS or (isinstance(hint, type) and dataclasses.is_dataclass(hint)):
        return Kind("struct", hint)
    raise WireError(f"field {name!r}: annotation {hint!r} has no wire schema")


def schema_of(cls: type) -> tuple[Field, ...]:
    """The fields of ``cls`` in constructor order (derived once, cached);
    ``cls(*values)`` over any prefix that covers the required ones builds it."""
    fields = _SCHEMAS.get(cls)
    if fields is None:
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            raise WireError(f"{cls!r} is not a dataclass: no wire schema")
        try:
            hints = typing.get_type_hints(cls)
        except (NameError, TypeError) as exc:
            raise WireError(f"{cls.__name__}: unresolvable annotations: {exc}") from exc
        missing = dataclasses.MISSING
        fields = _SCHEMAS[cls] = tuple(
            Field(
                f.name,
                _kind_of(hints[f.name], f.name),
                f.default is missing and f.default_factory is missing,
                attrgetter(f.name),
            )
            for f in dataclasses.fields(cls)
        )
    return fields


@functools.cache
def builder_of(cls: type) -> Callable:
    """``row(f0, f1=<default>, …)`` building ``cls`` exactly as ``cls(…)``
    does, compiled once: ``object.__new__``, each field through its slot's
    ``__set__``, missing trailing fields from ``default`` /
    ``default_factory``, then ``__post_init__`` if the class has one.
    Anything but a slotted dataclass whose ``__init__`` takes its fields
    in order (``Polygon``, an unslotted subclass) gets ``cls`` itself."""
    fields = dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ()
    slots = [getattr(cls, f.name, None) for f in fields]
    if (
        not dataclasses.is_dataclass(cls)
        or "__slots__" not in cls.__dict__
        or cls.__new__ is not object.__new__
        or list(inspect.signature(cls.__init__).parameters)[1:] != [f.name for f in fields]
        or any(f.kw_only for f in fields)
        or not all(isinstance(slot, types.MemberDescriptorType) for slot in slots)
    ):
        return cls
    env = {"cls": cls, "new": object.__new__, "FACTORY": _FACTORY}
    args, body = [], ["o = new(cls)"]
    for i, (f, slot) in enumerate(zip(fields, slots)):
        env[f"set{i}"], env[f"d{i}"] = slot.__set__, f.default
        if f.default_factory is not dataclasses.MISSING:
            env[f"d{i}"], env[f"mk{i}"] = _FACTORY, f.default_factory
            body.append(f"if f{i} is FACTORY: f{i} = mk{i}()")
        args.append(f"f{i}" if env[f"d{i}"] is dataclasses.MISSING else f"f{i}=d{i}")
        body.append(f"set{i}(o, f{i})")
    if hasattr(cls, "__post_init__"):
        env["post"] = cls.__post_init__
        body.append("post(o)")
    exec(f"def row({', '.join(args)}):\n    " + "\n    ".join(body + ["return o"]), env)
    return env["row"]


#: a ``default_factory`` field's argument when the caller left it out.
_FACTORY = object()


# Polygon is the one embedded value type that is not a dataclass: it
# hides its vertex tuple behind a property and validates in ``__init__``.
from repro.geo import Point, Polygon  # noqa: E402

_SCHEMAS[Polygon] = (
    Field("points", Kind("seq", Kind("struct", Point)), True, attrgetter("points")),
)

from repro.model.records import SightingColumns, SightingRecord  # noqa: E402

#: struct → what a ``seq`` of it decodes into: ``view(*columns)`` over its
#: field columns in order (a nested struct's inline, floats as float64
#: arrays), a read-only sequence of the records.
COLUMN_VIEWS: dict[type, type] = {SightingRecord: SightingColumns}
