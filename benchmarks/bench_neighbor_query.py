"""Ablation F — distributed nearest-neighbor queries (Section 3.2).

The paper defines nearest-neighbor semantics but its evaluation never
measures them; this bench fills that gap on the Table-2 topology.  The
derived algorithm (``LocationServer._execute_neighbors_many``) is an
expanding-ring search from the entry server, in which every involved
leaf answers a round with its share — its own nearest qualifying object
and that object's ``nearQual`` ring — so the interesting knobs are
object density and probe placement:

* dense populations resolve in one local round;
* sparse populations force ring doublings (more rounds, more servers);
* probes next to a leaf boundary must consult the neighbors to certify
  the ``nearQual`` ring even when the nearest object is local.
"""

from benchreport import report
from repro.geo import Point
from repro.sim.calibration import default_cost_model
from repro.sim.metrics import LatencyRecorder, format_table
from repro.sim.scenario import table2_service

QUERIES = 120

_rows = []


def run_campaign(object_count, probe_factory, label):
    svc, homes = table2_service(
        object_count=object_count, costs=default_cost_model(), nn_initial_radius=100.0
    )
    client = svc.new_client(entry_server="root.0")
    recorder = LatencyRecorder()
    rounds_total = 0
    servers_total = 0
    loop = svc.loop

    async def batch():
        nonlocal rounds_total, servers_total
        for i in range(QUERIES):
            probe = probe_factory(i)
            start = loop.now
            answer = await client.neighbor_query(probe, req_acc=50.0, near_qual=50.0)
            recorder.record("nn", loop.now - start)
            rounds_total += answer.rounds
            servers_total += answer.servers_involved
            assert answer.result.nearest is not None

    svc.run(batch())
    _rows.append(
        (
            label,
            f"{recorder.summary('nn').mean * 1e3:.2f} ms",
            f"{rounds_total / QUERIES:.2f}",
            f"{servers_total / QUERIES:.2f}",
        )
    )
    return recorder.summary("nn").mean


def test_nn_density_and_placement(benchmark):
    import random

    rng = random.Random(17)

    dense_center = run_campaign(
        10_000, lambda i: Point(rng.uniform(100, 650), rng.uniform(100, 650)),
        "dense (10k objects), probe inside a leaf",
    )
    sparse_center = run_campaign(
        50, lambda i: Point(rng.uniform(100, 650), rng.uniform(100, 650)),
        "sparse (50 objects), probe inside a leaf",
    )
    boundary = run_campaign(
        10_000, lambda i: Point(748.0, rng.uniform(100, 1400)),
        "dense (10k objects), probe on a leaf boundary",
    )
    report(
        format_table(
            "Ablation F — nearest-neighbor queries (Table-2 topology)",
            ("scenario", "mean latency", "rounds/query", "servers/query"),
            _rows,
        )
    )
    # Sparse populations need wider rings, hence more time.
    assert sparse_center > dense_center
    # Boundary probes consult more servers than interior ones.
    assert boundary >= dense_center
    benchmark(lambda: None)
