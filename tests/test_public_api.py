"""The README's public-API promises, verified.

Everything the README and the package docstring show must work through
top-level imports alone.
"""

import repro
from repro import (
    AccuracyModel,
    CacheConfig,
    LocationService,
    Point,
    Rect,
    build_table2_hierarchy,
)


class TestQuickstartContract:
    def test_readme_quickstart(self):
        svc = LocationService(build_table2_hierarchy(side_m=1500.0))
        taxi = svc.register("taxi-7", Point(200, 300), des_acc=25.0, min_acc=100.0)
        svc.update(taxi, Point(900, 350))
        ld = svc.pos_query("taxi-7")
        assert ld.pos == Point(900, 350)
        answer = svc.range_query(Rect(750, 0, 1500, 1500), req_acc=50.0, req_overlap=0.3)
        assert "taxi-7" in {oid for oid, _ in answer.entries}
        nn = svc.neighbor_query(Point(450, 880), req_acc=50.0, near_qual=100.0)
        assert nn.result.nearest[0] == "taxi-7"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_all_exports_resolve(self):
        import repro.baselines
        import repro.chaos
        import repro.core
        import repro.geo
        import repro.model
        import repro.net
        import repro.protocols
        import repro.runtime
        import repro.sim
        import repro.spatial
        import repro.storage

        for module in (
            repro.baselines,
            repro.chaos,
            repro.core,
            repro.geo,
            repro.model,
            repro.net,
            repro.protocols,
            repro.runtime,
            repro.sim,
            repro.spatial,
            repro.storage,
        ):
            for name in module.__all__:
                assert getattr(module, name) is not None, f"{module.__name__}.{name}"

    def test_update_many_has_no_lane_selector(self):
        # PR 14 removed the lane knob and the names that existed only for
        # the second lane; what is left of the signature is recovery.
        import inspect

        import repro.net
        import repro.sim

        assert list(inspect.signature(LocationService.update_many).parameters) == [
            "self",
            "reports",
            "envelope_timeout",
            "envelope_retries",
            "envelope_sub_timeout",
        ]
        assert not [n for n in repro.sim.__all__ if "protocol_batch" in n]
        assert not [n for n in repro.net.wire.__all__ if n.endswith("_V1")]

    def test_range_read_path_has_one_filter_and_no_knob(self):
        # PR 21: both backends share SightingDB's range path, the batch
        # filter lives beside the scalar predicate it defers to, and the
        # tight scan is not switchable.
        import inspect

        import repro.model
        import repro.storage
        from repro.storage.columnar_db import ColumnarSightingDB

        assert not {"objects_in_area", "objects_in_areas"} & set(vars(ColumnarSightingDB))
        assert {"overlap_reach", "qualifying_indexes"} <= set(repro.model.__all__)
        assert list(inspect.signature(repro.storage.LocalDataStore.__init__).parameters) == [
            "self",
            "accuracy",
            "index",
            "store",
            "ttl",
            "backend",
        ]
        assert list(inspect.signature(repro.storage.VisitorDB.__init__).parameters) == [
            "self",
            "store",
        ]

    def test_cache_and_accuracy_configuration(self):
        svc = LocationService(
            build_table2_hierarchy(),
            accuracy=AccuracyModel(sensor_floor=5.0, update_slack=5.0),
            cache_config=CacheConfig.all_enabled(),
        )
        obj = svc.register("o", Point(10, 10), des_acc=10.0, min_acc=50.0)
        assert obj.offered_acc == 10.0


class TestOneIndexSetOneArrayEngine:
    """Options hygiene: the deleted index kinds and the stdlib-``array``
    engine cannot come back quietly (the ``test_message_registry`` pattern).
    """

    #: Each surviving index kind and the one reason it is kept.
    KEPT_KINDS = {
        "columnar": "the index of the columnar backend, every service leaf's default",
        "linear": "the brute-force oracle every other kind is tested against",
        "quadtree": "the objects backend's index and the paper's Table 1 / Section 7 index",
    }

    def test_index_registry_is_exactly_the_justified_kinds(self):
        from repro.spatial import INDEX_FACTORIES

        assert sorted(INDEX_FACTORIES) == ["columnar", "linear", "quadtree"]
        assert sorted(INDEX_FACTORIES) == sorted(self.KEPT_KINDS)

    def test_no_public_constructor_takes_use_numpy(self):
        import importlib
        import inspect
        import pkgutil

        offenders = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for name, cls in vars(module).items():
                if (
                    inspect.isclass(cls)
                    and cls.__module__ == module.__name__
                    and not name.startswith("_")
                    # builtin (exception) constructors cannot take it
                    and inspect.isfunction(cls.__init__)
                    and "use_numpy" in inspect.signature(cls.__init__).parameters
                ):
                    offenders.append(f"{module.__name__}.{name}")
        assert offenders == []

    def test_src_has_no_numpy_fallback(self):
        import pathlib
        import re

        fallback = re.compile(
            r"use_numpy|from array import|^\s*import array\b"
            r"|try:\s*\n\s*import numpy[^\n]*\n\s*except ImportError",
            re.MULTILINE,
        )
        src = pathlib.Path(repro.__file__).parent
        hits = [
            str(path.relative_to(src))
            for path in sorted(src.rglob("*.py"))
            if fallback.search(path.read_text(encoding="utf-8"))
        ]
        assert hits == []


class TestOneServiceStore:
    """Every service leaf runs on the columnar backend unless told
    otherwise, and the index kind is a store-level choice (Table 1's
    sweep), not a service option."""

    def test_every_service_leaf_defaults_to_columnar(self):
        from repro.core.server import LocationServer
        from repro.net.address import AddressBook
        from repro.net.bootstrap import ClusterSpec, node_server

        hierarchy = build_table2_hierarchy()
        leaf = hierarchy.leaf_ids()[0]
        spec = ClusterSpec.from_json(ClusterSpec(hierarchy, AddressBook()).to_json())
        leaves = [
            LocationServer(hierarchy.config(leaf)),
            LocationService(hierarchy).servers[leaf],
            node_server(spec.hierarchy, leaf),
        ]
        assert [server.store.backend for server in leaves] == ["columnar"] * 3

    def test_no_service_constructor_takes_index_kind(self):
        import importlib
        import inspect
        import pkgutil

        import repro.baselines
        import repro.core
        import repro.net

        offenders = []
        for package in (repro.core, repro.net, repro.baselines):
            for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
                module = importlib.import_module(info.name)
                for name, obj in vars(module).items():
                    if getattr(obj, "__module__", None) != module.__name__:
                        continue
                    fn = obj.__init__ if inspect.isclass(obj) else obj
                    if inspect.isfunction(fn) and "index_kind" in inspect.signature(fn).parameters:
                        offenders.append(f"{module.__name__}.{name}")
        assert offenders == []

    def test_cluster_spec_json_has_no_index_kind(self):
        import json

        from repro.net.address import AddressBook
        from repro.net.bootstrap import ClusterSpec

        spec = ClusterSpec(build_table2_hierarchy(), AddressBook())
        assert "index_kind" not in json.loads(spec.to_json())


class TestOneElasticPath:
    """One rebalance round, one planner and a constant copy chunk: the
    deleted modes and knobs cannot come back quietly."""

    REMOVED_OPTIONS = {
        "migration_mode",
        "rate_weighted",
        "copy_chunk",
        "executor",
        "chunker",
        "initial",
        "min_chunk",
        "max_chunk",
        "budget",
        "headroom",
    }

    def test_no_elastic_signature_takes_a_removed_option(self):
        import importlib
        import inspect
        import pkgutil

        import repro.cluster
        import repro.sim

        offenders = []
        for package in (repro.cluster, repro.sim):
            for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
                module = importlib.import_module(info.name)
                for name, obj in vars(module).items():
                    if getattr(obj, "__module__", None) != module.__name__:
                        continue
                    if inspect.isclass(obj):
                        fns = [(f"{name}.{k}", v) for k, v in vars(obj).items()]
                    else:
                        fns = [(name, obj)]
                    for qualname, fn in fns:
                        if inspect.isfunction(fn) and (
                            self.REMOVED_OPTIONS & set(inspect.signature(fn).parameters)
                        ):
                            offenders.append(f"{module.__name__}.{qualname}")
        assert offenders == []

    def test_removed_entry_points_stay_gone(self):
        import repro.cluster
        from repro.cluster import MigrationExecutor, migration
        from repro.sim import elastic
        from repro.sim.scenario import table2_service

        assert not hasattr(elastic.ElasticHarness, "rebalance_overlapped")
        assert not hasattr(elastic.ElasticHarness, "note_tick")
        assert not hasattr(elastic, "planner_v1_config")
        assert not hasattr(MigrationExecutor, "execute_all")
        # The copy chunk is one constant: no wall-clock pacer to feed.
        assert not hasattr(repro.cluster, "AdaptiveCopyChunker")
        assert not hasattr(migration, "AdaptiveCopyChunker")
        svc, homes = table2_service(object_count=4)
        assert not hasattr(elastic.ElasticHarness(svc, homes), "chunker")


class TestOneReportLane:
    """An in-area report is applied by one server step whichever way it
    arrives, and the facade and the elastic harness share one report
    lane: the copies cannot come back quietly."""

    def test_every_in_area_report_goes_through_one_server_step(self, monkeypatch):
        from repro.core import LocationService
        from repro.core.server import LocationServer
        from repro.sim.elastic import ElasticHarness
        from repro.sim.scenario import populate, table2_service

        applied, lanes = [], []
        apply_in_area = LocationServer.apply_in_area
        report_many = LocationService.report_many

        def spy_apply(server, sightings, now):
            applied.append((server.address, [s.object_id for s in sightings]))
            apply_in_area(server, sightings, now)

        def spy_lane(svc, *args, **kwargs):
            lanes.append(svc)
            return report_many(svc, *args, **kwargs)

        monkeypatch.setattr(LocationServer, "apply_in_area", spy_apply)
        monkeypatch.setattr(LocationService, "report_many", spy_lane)
        svc, _ = table2_service(0)
        a = svc.register("a", Point(100, 100))
        assert svc.update_many([(a, Point(110, 110))]) == {"fast": 1, "protocol": 0}
        svc.update(a, Point(140, 140))  # an envelope of one at the agent
        harness = ElasticHarness(svc, populate(svc, [("b", Point(1200, 1200))]))
        assert harness.apply_reports([("b", Point(1210, 1210))]) == {
            "fast": 1,
            "protocol": 0,
        }
        assert applied == [("root.0", ["a"]), ("root.0", ["a"]), ("root.3", ["b"])]
        assert lanes == [svc, svc]
        assert sum(svc.servers[leaf].stats.updates for leaf in ("root.0", "root.3")) == 3

    def test_removed_entry_points_stay_gone(self):
        import inspect

        from repro.core import LocationService
        from repro.net.scenario import drive_workload
        from repro.sim import elastic

        assert not hasattr(LocationService, "_drive_update_envelope")
        assert not hasattr(elastic, "_populate")
        assert not hasattr(elastic, "_fresh_service")
        options = [
            name
            for name, p in inspect.signature(drive_workload).parameters.items()
            if p.kind is p.KEYWORD_ONLY
        ]
        assert options == ["timeout", "retries", "sub_timeout"]


class TestOneScenarioKernel:
    """Every scenario is a ``ScenarioWorkload`` run by one ``ScenarioRun``:
    the per-scenario wrappers and the knobs no caller set (tick length,
    rebalance period, shape fractions, widths, stage counts, periods)
    cannot come back quietly."""

    #: Each entry point's exact parameter list.
    OPTIONS = {
        "repro.sim.elastic.run_scenario": ["workload", "elastic", "planner"],
        "repro.sim.elastic.ScenarioRun": ["workload", "epoch", "planner"],
        "repro.sim.elastic.flash_crowd_workload": ["objects", "ticks", "seed"],
        "repro.sim.elastic.commuter_rush_workload": ["objects", "ticks", "seed"],
        "repro.sim.elastic.festival_surge_workload": ["objects", "ticks", "seed"],
        "repro.sim.elastic.hot_object_skew_workload": ["objects", "ticks", "seed"],
        "repro.sim.elastic.elastic_benchmark_payload": ["seed"],
        "repro.sim.elastic.zero_stall_benchmark_payload": ["seed"],
        "repro.sim.elastic.planner_v2_benchmark_payload": ["seed"],
        "repro.sim.chaos.leaf_crash_scenario": [
            "objects", "warm_ticks", "post_ticks", "seed", "strategy",
        ],
        "repro.sim.chaos.partition_scenario": [
            "objects", "warm_ticks", "partition_ticks", "heal_ticks", "seed",
        ],
        "repro.sim.chaos.root_partition_scenario": [
            "objects", "warm_ticks", "outage_ticks", "heal_ticks", "seed",
        ],
        "repro.sim.chaos.migration_crash_scenario": [
            "phase", "objects", "warm_ticks", "post_ticks", "seed",
        ],
        "repro.sim.byzantine.run_sim_byzantine_lane": ["objects", "ticks", "seed"],
        "repro.net.scenario.drive_workload": [
            "workload", "hierarchy", "join", "timeout", "retries", "sub_timeout",
        ],
        "repro.net.scenario.run_lane": [
            "workload", "runtime", "faults", "epoch", "drop_rate", "timeout",
            "retries", "sub_timeout", "seed",
        ],
        "repro.net.scenario.socket_benchmark_payload": ["seed"],
    }

    def test_entry_points_take_exactly_their_options(self):
        import importlib
        import inspect

        for dotted, expected in self.OPTIONS.items():
            module, name = dotted.rsplit(".", 1)
            entry = getattr(importlib.import_module(module), name)
            assert list(inspect.signature(entry).parameters) == expected, dotted

    def test_removed_entry_points_stay_gone(self):
        import dataclasses

        import repro.sim
        from repro.sim import elastic

        for name in (
            "_run_scenario",
            "flash_crowd_scenario",
            "commuter_rush_scenario",
            "festival_surge_scenario",
            "hot_object_skew_scenario",
        ):
            assert not hasattr(elastic, name), name
            assert not hasattr(repro.sim, name), name
        fields = {f.name for f in dataclasses.fields(elastic.ScenarioWorkload)}
        assert "name" not in fields
        assert not {"dt", "rebalance_every"} & fields


class TestOneWayToAskAgain:
    """``Endpoint.ask`` is the one fresh-id re-send loop, a retry budget
    is a plain count, and ``run_lane`` is the one driver-lane builder."""

    def test_removed_loops_and_lane_builders_stay_gone(self):
        from repro.core import service
        from repro.net import bootstrap, scenario
        from repro.runtime.base import Endpoint
        from repro.sim import byzantine

        assert callable(Endpoint.ask)
        assert not hasattr(service, "RetryPolicy")
        assert not hasattr(scenario, "_request_retrying")
        assert not hasattr(bootstrap.ClusterLauncher, "request")
        for name in ("run_workload_inprocess", "run_workload_multiprocess"):
            assert not hasattr(scenario, name), name
        for name in ("run_asyncio_byzantine_lane", "run_udp_byzantine_lane"):
            assert not hasattr(byzantine, name), name
