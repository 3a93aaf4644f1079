"""Stage probe: where one update envelope's round trip spends its time.

Times each stage of an ``UpdateBatchReq`` round trip on a columnar leaf
of the Table-2 hierarchy, with no sockets in between: the driver builds
the envelope, it is encoded, decoded (``FrameDecoder.feed``) and
validated (``find_defect``), the leaf's handler applies it (store write
included), and the ``UpdateBatchRes`` ack is encoded, decoded and
validated.  Every sighting stays in-area at its agent, as on
``steady_update_udp``'s path.  Prints the median per stage, in µs, for
envelopes of 1, 10 and 100 sightings::

    PYTHONPATH=src python benchmarks/bench_envelope_stages.py --envelopes 1300

Run it on two checkouts in turn (``PYTHONPATH=<checkout>/src``) to
compare them; a shared machine's speed drifts, so alternate the runs.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

from repro import LocationService, build_table2_hierarchy
from repro.core import messages as m
from repro.geo import Point
from repro.model import SightingRecord
from repro.net.wire import FrameDecoder, encode_frame
from repro.runtime.validation import find_defect

SIZES = (1, 10, 100)
LEAF = "root.0"
SIDE = 750.0  # the leaf's quadrant of the 1.5 km Table-2 area
SENSOR_ACC = 10.0
STAGES = (
    "driver build", "req encode", "req decode", "req validate", "handler",
    "ack encode", "ack decode", "ack validate",
)  # fmt: skip


def leaf_with(population: int):
    """A Table-2 service whose leaf ``LEAF`` holds ``population`` objects;
    the leaf's replies are captured, not sent."""
    svc = LocationService(build_table2_hierarchy())
    for i in range(population):
        svc.register(f"o{i}", Point(1.0 + i % SIDE, 1.0 + i % 700), des_acc=25.0)
    server = svc.servers[LEAF]
    replies: list = []
    server.send = lambda dest, message: replies.append(message)
    return server, replies


def probe(size: int, envelopes: int, seed: int) -> dict[str, float]:
    server, replies = leaf_with(size)
    rng = random.Random(seed)
    ids = [f"o{i}" for i in range(size)]
    took: dict[str, list[float]] = {stage: [] for stage in STAGES}
    clock = time.perf_counter

    def timed(stage: str, fn, *args):
        start = clock()
        result = fn(*args)
        took[stage].append(clock() - start)
        return result

    for n in range(envelopes):
        xs = [rng.uniform(0.0, SIDE) for _ in ids]
        ys = [rng.uniform(0.0, SIDE) for _ in ids]
        req = timed(
            "driver build",
            lambda: m.UpdateBatchReq(
                request_id=f"r{n}",
                reply_to="bench-reporter",
                sightings=tuple(
                    SightingRecord(oid, 1.0 + n, Point(x, y), SENSOR_ACC)
                    for oid, x, y in zip(ids, xs, ys)
                ),
            ),
        )
        frame = timed("req encode", encode_frame, "bench-reporter", LEAF, [req])
        (_, _, (got,)), = timed("req decode", FrameDecoder().feed, frame)
        assert timed("req validate", find_defect, got) is None
        replies.clear()
        timed("handler", server._on_update_batch, got)
        (ack,) = replies
        assert all(outcome.ok for outcome in ack.outcomes)
        frame = timed("ack encode", encode_frame, LEAF, "bench-reporter", [ack])
        (_, _, (back,)), = timed("ack decode", FrameDecoder().feed, frame)
        assert timed("ack validate", find_defect, back) is None
    return {stage: statistics.median(times) * 1e6 for stage, times in took.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--envelopes", type=int, default=1300, help="envelopes per size")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    results = {size: probe(size, args.envelopes, args.seed) for size in SIZES}
    print(f"median µs per stage ({args.envelopes} envelopes per size, columnar leaf)")
    print(f"{'stage':<14}" + "".join(f"{f'{size} sighting(s)':>16}" for size in SIZES))
    for stage in (*STAGES, "total"):
        row = [
            sum(results[size].values()) if stage == "total" else results[size][stage]
            for size in SIZES
        ]
        print(f"{stage:<14}" + "".join(f"{value:>16.1f}" for value in row))


if __name__ == "__main__":
    main()
