"""The compiled ``find_defect`` agrees with the generic walk it replaced.

``_reference`` below is the validator as it stood before wire v3: a
value-driven recursion that calls ``dataclasses.fields()`` on every
nested object.  It stays here as the oracle.  Over the whole message
catalogue (instances synthesised from the type hints, exactly as the
codec's round-trip test does) the schema-compiled checker must say
"clean" precisely when the walk does — for honest messages and for every
single-field mutation :meth:`FaultInjector.mutate_message` can produce,
applied at every nesting level a message reaches (the envelope itself, a
sighting inside it, the point inside the sighting).

The walk does not look inside ``Polygon`` (not a dataclass); neither does
the mutation sweep, so the compiled checker's extra reach there is not
part of the comparison.
"""

import dataclasses
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultInjector
from repro.core import messages as m
from repro.geo import Point, Polygon, Rect
from repro.model import SightingRecord
from repro.runtime.base import NetworkStats
from repro.runtime.validation import find_defect, is_epoch_field, is_id_field

from tests.net.test_wire_codec import _build, _live_message_types

CATALOG = _live_message_types()
_MAX_DEPTH = 8


def _reference(name, value, depth=0):
    if depth > _MAX_DEPTH:
        return f"{name}: nesting exceeds depth {_MAX_DEPTH}"
    if isinstance(value, bool):
        return None
    if isinstance(value, float):
        return f"{name}: NaN" if math.isnan(value) else None
    if isinstance(value, int):
        if is_epoch_field(name) and value < 0:
            return f"{name}: negative epoch {value}"
        return None
    if isinstance(value, str):
        return f"{name}: empty identifier" if is_id_field(name) and not value else None
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for fld in dataclasses.fields(value):
            defect = _reference(fld.name, getattr(value, fld.name), depth + 1)
            if defect is not None:
                return defect
        return None
    if isinstance(value, (list, tuple)):
        for item in value:
            defect = _reference(name, item, depth + 1)
            if defect is not None:
                return defect
    return None


def reference(message):
    return _reference(type(message).__name__, message)


class _Pick:
    """Stands in for the injector's rng: always candidate ``k``."""

    def __init__(self, k):
        self.k, self.n = k, 0

    def randrange(self, n):
        self.n = n
        return min(self.k, n - 1)


class _Net:
    stats = NetworkStats()
    fault_injector = None


def single_field_mutations(value):
    """Every copy of ``value`` with one field damaged, at any depth."""
    if isinstance(value, tuple):
        for i, item in enumerate(value):
            for bad in single_field_mutations(item):
                yield value[:i] + (bad,) + value[i + 1 :]
    elif dataclasses.is_dataclass(value):
        injector, k = FaultInjector(_Net(), seed=0), 0
        while True:
            injector._rng = pick = _Pick(k)
            bad = injector.mutate_message(value)
            if bad is not None:
                yield bad
            k += 1
            if k >= pick.n:
                break
        for fld in dataclasses.fields(value):
            for bad in single_field_mutations(getattr(value, fld.name)):
                try:
                    yield dataclasses.replace(value, **{fld.name: bad})
                except Exception:  # noqa: BLE001 - a constructor refusing damage is fine
                    pass


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_checker_agrees_with_the_generic_walk(seed):
    rng = random.Random(seed)
    assert len(CATALOG) > 50 and m.UpdateBatchReq in CATALOG
    for cls in CATALOG:
        # (the synthesiser draws negative ints too: not every base is clean)
        message = _build(cls, rng)
        assert (find_defect(message) is None) == (reference(message) is None), message
        for mutated in single_field_mutations(message):
            assert (find_defect(mutated) is None) == (reference(mutated) is None), mutated
            assert find_defect(mutated) is not None, mutated


def test_mutations_reach_three_levels_deep():
    sighting = SightingRecord("o", 1.0, Point(2.0, 3.0), 4.0)
    envelope = m.UpdateBatchReq("r", "dev", (sighting, sighting), epoch=2)
    defects = {find_defect(bad) for bad in single_field_mutations(envelope)}
    assert None not in defects
    assert {"request_id: empty identifier", "x/y: NaN", "timestamp/acc_sens: NaN"} <= defects
    assert any(d.startswith("epoch: negative epoch") for d in defects)


def test_defects_the_walk_never_looked_for():
    # Inside a Polygon, and the adopt message's epoch (a string in v2).
    bent = Polygon([Point(0.0, 0.0), Point(10.0, 0.0), Point(5.0, float("nan"))])
    query = m.RangeQueryReq("r", "c", bent, 50.0, 0.5)
    assert reference(query) is None
    assert find_defect(query) == "x/y: NaN"
    from repro.net.control import AdoptHierarchyReq

    assert find_defect(AdoptHierarchyReq("r", "c", (), -1)) == "hierarchy_epoch: negative epoch -1"
    assert find_defect(Rect(0.0, 0.0, 1.0, 1.0)) is None
    assert find_defect(object()) is None
