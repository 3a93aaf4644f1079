"""The accuracy promise the update protocol exists for (paper §6.2).

A device reports once its sensed position drifts more than the offered
accuracy minus the sensor accuracy from its last report, so the last
report is never further than the offered accuracy from the truth.  At
every quiescent point a position answer's circle must therefore contain
the object's true position, whichever leaf the query enters at and
whether or not the §6.5 caches answer it.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CacheConfig, LocationService, build_table2_hierarchy
from repro.geo import Point

SIDE = 1500.0
SENSOR_ACC = 10.0
DEVICES = 6
STEPS = 40
DT = 1.0


def sensed(rng, truth):
    """The truth seen through a sensor: off by at most ``SENSOR_ACC``."""
    r = SENSOR_ACC * math.sqrt(rng.random())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return Point(truth.x + r * math.cos(angle), truth.y + r * math.sin(angle))


def walk(rng, truth, speed):
    """One ``DT`` of straight-line motion, kept off the border by a margin
    so that every sensed position stays inside the service area."""
    angle = rng.uniform(0.0, 2.0 * math.pi)

    def clamp(v):
        return min(max(v, 2 * SENSOR_ACC), SIDE - 2 * SENSOR_ACC)

    return Point(
        clamp(truth.x + speed * DT * math.cos(angle)),
        clamp(truth.y + speed * DT * math.sin(angle)),
    )


@pytest.mark.parametrize(
    "cache", [CacheConfig.disabled(), CacheConfig.all_enabled()], ids=["no-cache", "caches"]
)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10_000), speed=st.sampled_from([5.0, 40.0]))
def test_every_position_answer_contains_the_object(cache, seed, speed):
    rng = random.Random(seed)
    svc = LocationService(build_table2_hierarchy(SIDE), cache_config=cache)
    truth, devices = {}, {}
    for i in range(DEVICES):
        oid = f"d{i}"
        truth[oid] = Point(rng.uniform(100, SIDE - 100), rng.uniform(100, SIDE - 100))
        devices[oid] = svc.register(oid, sensed(rng, truth[oid]), sensor_acc=SENSOR_ACC)

    async def elapse():
        await svc.loop.sleep(DT)

    for _ in range(STEPS):
        svc.run(elapse())
        for oid, device in devices.items():
            truth[oid] = walk(rng, truth[oid], speed)
            svc.run(device.move_to(sensed(rng, truth[oid])))
        svc.settle()
        assert svc.network.quiescent
        for leaf in svc.hierarchy.leaf_ids():
            for oid, pos in truth.items():
                ld = svc.pos_query(oid, entry_server=leaf)
                assert ld is not None and ld.could_contain(pos), (oid, leaf, ld, pos)
