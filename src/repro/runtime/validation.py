"""Receive-path message validation: the quarantine layer's inner check.

The checksum and the typed decoder in :mod:`repro.net.wire` catch *byte*
and *type* damage; this module catches *semantic* damage — a message
whose fields have the right types but carry values no honest sender
emits (a mutation injected above the frame layer, a lying peer):

* ``NaN`` in any float.  Positions, radii and accuracies are finite;
  ``inf`` stays legal (the "no accuracy requirement" ``req_acc``).
* a negative topology epoch (int fields named ``epoch`` / ``*_epoch``).
* an empty identifier (str fields named ``*_id`` / ``sender`` /
  ``origin`` / ``dest`` / ...): every participant and object has one.

The checker is **compiled once per class** from the class's
:mod:`repro.runtime.schema` entry — the table the wire codec is compiled
from and :meth:`FaultInjector.mutate_message` draws its mutations from,
so the three cannot drift.  Like the codec it works on *columns*: a
class's checker takes a list of instances, pulls all their floats (ids,
epochs) out with one ``attrgetter`` and scans them at C speed, then hands
each container field (``opt``, ``seq``, ``tuple``, ``union``, nested
``struct``) that leads to a ruled scalar, as a column, to that kind's
checker; a field that leads to none costs nothing.  A batch envelope's
100 sightings are three scans, not 100 object walks; as a column view
(:data:`repro.runtime.schema.COLUMN_VIEWS`, the wire's form) the same
scans, in the same order and with the same defect strings, run on its
columns — one NaN test per float column, ``"" in ids``, no record built.
"""

from __future__ import annotations

from itertools import chain
from operator import ne
from typing import Any, Callable

from repro.errors import WireError
from repro.runtime.schema import COLUMN_VIEWS, Kind, is_epoch_field, is_id_field, schema_of

__all__ = ["find_defect", "is_id_field", "is_epoch_field"]

#: a compiled check over one column of values: a defect string or None.
Check = Callable[[list], "str | None"]
#: a step from a column to the sub-column a nested check wants.
Split = Callable[[list], list]


def _negative(values: list) -> str | None:
    bad = [v for v in values if v is not None and v < 0]
    return f"negative epoch {bad[0]}" if bad else None


#: rule → what is wrong with a column of values, or a falsy nothing.
#: (``None`` in a column — an absent optional — trips none of them.)
_RULES = {
    "nan": lambda values: any(map(ne, values, values)) and "NaN",
    "epoch": _negative,
    "id": lambda values: "" in values and "empty identifier",
}


def _rule(rule: str, label: str) -> Check:
    what = _RULES[rule]

    def check(values: list) -> str | None:
        defect = what(values)
        return f"{label}: {defect}" if defect else None

    return check


def _gather(getters: list) -> Split:
    return lambda values: [x for get in getters for x in map(get, values)]


def _all_of(parts: list[tuple[Split, Check | None]]) -> Check | None:
    """Run each check on its split of the column; the first defect wins."""
    parts = [(split, check) for split, check in parts if check is not None]
    if not parts:
        return None

    def check(values: list) -> str | None:
        for split, part in parts:
            defect = part(split(values))
            if defect is not None:
                return defect
        return None

    return check


def _column(kind: Kind, name: str) -> Check | None:
    """The check for a column of ``kind`` values (None: nothing to check)."""
    tag, arg = kind.tag, kind.arg
    if kind.rule is not None:
        return _rule(kind.rule, name)
    if tag == "struct":
        return _struct(arg)
    if tag == "opt":
        return _all_of([(lambda vs: [v for v in vs if v is not None], _column(arg, name))])
    if tag == "seq":
        rows = _all_of([(lambda vs: list(chain.from_iterable(vs)), _column(arg, name))])
        view = COLUMN_VIEWS.get(arg.arg) if arg.tag == "struct" else None
        if view is None or rows is None:
            return rows
        parts = _flat_parts(arg.arg)[0]

        def check(values: list) -> str | None:  # a view: the same scans, on its columns
            if len(values) != 1 or type(values[0]) is not view:
                return rows(values)
            columns = values[0].columns
            for rule, label, at in parts:
                for column in map(columns.__getitem__, at):  # a sum of squares is NaN iff a term is
                    defect = _RULES[rule]([column.dot(column)] if rule == "nan" else column)
                    if defect:
                        return f"{label}: {defect}"
            return None

        return check
    if tag == "tuple":
        return _all_of(
            [(lambda vs, i=i: [v[i] for v in vs], _column(k, name)) for i, k in enumerate(arg)]
        )
    if tag == "union":
        return _all_of(
            [(lambda vs, c=k.arg: [v for v in vs if type(v) is c], _struct(k.arg)) for k in arg]
        )
    return None


def _flat_parts(cls: type, at: int = 0) -> tuple[list, int]:
    """:func:`_struct`'s scans of ``cls`` in its order, as ``(rule, label,
    column indexes)`` over its flat columns (a nested struct's inline),
    and the index after them."""
    parts, ruled = [], {}
    for field in schema_of(cls):
        if field.kind.tag == "struct":
            inner, at = _flat_parts(field.kind.arg, at)
            parts += inner
        else:
            ruled.setdefault(field.kind.rule, []).append((field.name, at))
            at += 1
    ruled.pop(None, None)
    return parts + [(r, "/".join(n for n, _ in f), [i for _, i in f]) for r, f in ruled.items()], at


_STRUCTS: dict[type, Check | None] = {}


def _struct(cls: type) -> Check | None:
    """The compiled checker of one class (None: no ruled scalar inside)."""
    if cls in _STRUCTS:
        return _STRUCTS[cls]
    try:
        fields = schema_of(cls)
    except WireError:  # not a schema'd type: nothing this module can say
        fields = ()
    scalars: dict[str, list] = {}  # rule -> the class's own (optional) scalar fields
    parts: list[tuple[Split, Check | None]] = []
    for field in fields:
        rule = field.kind.scalar.rule
        if rule is not None:
            scalars.setdefault(rule, []).append(field)
        else:
            column = _column(field.kind, field.name)
            parts.append((lambda vs, get=field.get: list(map(get, vs)), column))
    for rule, ruled in scalars.items():  # one scan per rule, not one per field
        label = "/".join(field.name for field in ruled)
        parts.append((_gather([field.get for field in ruled]), _rule(rule, label)))
    _STRUCTS[cls] = _all_of(parts)
    return _STRUCTS[cls]


def find_defect(message: Any) -> str | None:
    """Return a defect description, or ``None`` if the message is clean.

    The description names the offending field (or the same-rule fields
    scanned with it) and what was wrong (``"pos: NaN"``-style); callers
    use it for quarantine accounting, never for dispatch.
    """
    try:
        check = _STRUCTS[type(message)]
    except KeyError:
        check = _struct(type(message))
    return None if check is None else check([message])
