"""StreamingWalkers + StreamingMobilitySimulation at test scale.

The streaming lane exists so a million walkers can tick without a
million Python objects; at test scale these pin what the benchmark
relies on: deterministic trajectories per seed, reflection keeping
every walker inside the area, and the columnar/object twin simulations
staying bit-identical through the full store stack.
"""

from repro.geo import Rect
from repro.sim import StreamingWalkers
from repro.sim.columnar import StreamingMobilitySimulation, columnar_benchmark_payload

AREA = Rect(0.0, 0.0, 500.0, 500.0)


class TestStreamingWalkers:
    def test_same_seed_same_trajectories(self):
        a = StreamingWalkers(40, AREA, seed=3)
        b = StreamingWalkers(40, AREA, seed=3)
        for _ in range(20):
            xs_a, ys_a = a.step(30.0)
            xs_b, ys_b = b.step(30.0)
            assert list(xs_a) == list(xs_b)
            assert list(ys_a) == list(ys_b)

    def test_different_seeds_diverge(self):
        a = StreamingWalkers(40, AREA, seed=3)
        b = StreamingWalkers(40, AREA, seed=4)
        a.step(30.0)
        b.step(30.0)
        assert list(a.xs) != list(b.xs)

    def test_reflection_keeps_walkers_inside(self):
        walkers = StreamingWalkers(60, AREA, speed=25.0, seed=0)
        for _ in range(200):
            xs, ys = walkers.step(30.0)
            assert all(AREA.min_x <= x <= AREA.max_x for x in xs)
            assert all(AREA.min_y <= y <= AREA.max_y for y in ys)

    def test_position_of_matches_arrays(self):
        walkers = StreamingWalkers(10, AREA, seed=1)
        walkers.step(30.0)
        p = walkers.position_of(7)
        assert p.x == float(walkers.xs[7])
        assert p.y == float(walkers.ys[7])

    def test_ticks_generator_advances_clock(self):
        walkers = StreamingWalkers(5, AREA, seed=0)
        times = [now for now, _xs, _ys in walkers.ticks(4, dt=30.0)]
        assert times == [30.0, 60.0, 90.0, 120.0]

    def test_object_ids_are_stable_and_prefixed(self):
        walkers = StreamingWalkers(3, AREA, seed=0, prefix="w")
        assert list(walkers.object_ids) == ["w-0", "w-1", "w-2"]


class TestStreamingSimulationTwins:
    def test_backends_hold_identical_state_through_ticks(self):
        columnar = StreamingMobilitySimulation(
            150, area_side=500.0, backend="columnar", seed=7
        )
        objects = StreamingMobilitySimulation(
            150, area_side=500.0, backend="objects", seed=7
        )
        for _ in range(5):
            columnar.tick(30.0)
            objects.tick(30.0)
            recs_c = {
                r.object_id: (r.pos, r.timestamp)
                for r in columnar.store.sightings.records()
            }
            recs_o = {
                r.object_id: (r.pos, r.timestamp)
                for r in objects.store.sightings.records()
            }
            assert recs_c == recs_o

    def test_columnar_tick_keeps_visitor_registrations(self):
        sim = StreamingMobilitySimulation(50, area_side=500.0, backend="columnar")
        sim.tick(30.0)
        assert sim.store.visitor_count == 50
        assert sim.store.sighting_count == 50
        descriptor = sim.store.position_query("sw-10")
        assert descriptor.pos == sim.walkers.position_of(10)


class TestBenchmarkPayloadSmoke:
    def test_small_payload_has_the_acceptance_shape(self):
        payload = columnar_benchmark_payload(
            objects=400, ticks=2, baseline_objects=400, area_side=500.0
        )
        assert payload["objects"] == 400
        assert payload["answers_identical"], payload["equivalence"]["mismatches"]
        assert payload["load_monitor_bounded"]
        assert payload["tick_speedup"] > 0.0
        assert payload["columnar"]["updates_per_second"] > 0.0

    def test_scaled_baseline_still_cross_checks(self):
        payload = columnar_benchmark_payload(
            objects=600, ticks=2, baseline_objects=200, area_side=500.0
        )
        assert payload["baseline_objects"] == 200
        assert payload["answers_identical"], payload["equivalence"]["mismatches"]
