"""Simulation toolkit: engine, mobility, workloads, metrics, scenarios.

The scenario helpers (``table1_store``, ``table2_service``,
``DistributedHarness``) depend on :mod:`repro.core`, which in turn pulls
the runtime that is built on this package's engine.  They are therefore
exposed lazily (PEP 562) to keep ``repro.sim.engine`` importable from the
runtime without a cycle.
"""

from repro.sim.calibration import CalibrationResult, calibrate, default_cost_model
from repro.sim.engine import SimFuture, SimLoop, SimTask, SimulationError
from repro.sim.metrics import (
    PROTOCOL_LANE_MESSAGE_TYPES,
    LatencyRecorder,
    MessageLedger,
    Summary,
    ThroughputMeter,
    format_table,
    percentile,
)
from repro.sim.mobility import (
    ManhattanWalker,
    RandomWalkWalker,
    RandomWaypointWalker,
    Walker,
    make_walkers,
)
from repro.sim.workload import (
    HotspotSpec,
    Operation,
    StreamingWalkers,
    WorkloadGenerator,
    WorkloadSpec,
    hotspot_positions,
    scatter_objects,
    wavefront_area,
)

_SCENARIO_EXPORTS = {
    "TABLE1_AREA_SIDE",
    "TABLE1_OBJECTS",
    "TABLE2_AREA_SIDE",
    "TABLE2_OBJECTS",
    "TABLE2_RANGE_SIDE",
    "DistributedHarness",
    "MobilitySimulation",
    "TickStats",
    "table1_store",
    "table2_service",
}

#: Exposed lazily for the same reason as the scenario helpers: the
#: elastic harness imports repro.core/repro.cluster on top of this
#: package's engine.
_ELASTIC_EXPORTS = {
    "ElasticHarness",
    "ScenarioRun",
    "ScenarioWorkload",
    "commuter_rush_workload",
    "elastic_benchmark_payload",
    "festival_surge_workload",
    "flash_crowd_workload",
    "hot_object_skew_workload",
    "run_scenario",
}

#: The chaos scenarios sit on the elastic harness plus repro.chaos, so
#: they are lazy for the same no-cycle reason.
_CHAOS_EXPORTS = {
    "chaos_benchmark_payload",
    "leaf_crash_scenario",
    "migration_crash_scenario",
    "partition_scenario",
}

#: The streaming columnar lane pulls repro.storage + repro.cluster; lazy
#: for the same no-cycle reason as the scenario helpers.
_COLUMNAR_EXPORTS = {
    "StreamingMobilitySimulation",
    "columnar_benchmark_payload",
}


def __getattr__(name):
    if name in _SCENARIO_EXPORTS:
        from repro.sim import scenario

        return getattr(scenario, name)
    if name in _ELASTIC_EXPORTS:
        from repro.sim import elastic

        return getattr(elastic, name)
    if name in _CHAOS_EXPORTS:
        from repro.sim import chaos

        return getattr(chaos, name)
    if name in _COLUMNAR_EXPORTS:
        from repro.sim import columnar

        return getattr(columnar, name)
    raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")


__all__ = [
    "CalibrationResult",
    "DistributedHarness",
    "ElasticHarness",
    "HotspotSpec",
    "LatencyRecorder",
    "ManhattanWalker",
    "MessageLedger",
    "MobilitySimulation",
    "Operation",
    "PROTOCOL_LANE_MESSAGE_TYPES",
    "RandomWalkWalker",
    "RandomWaypointWalker",
    "ScenarioRun",
    "ScenarioWorkload",
    "SimFuture",
    "SimLoop",
    "SimTask",
    "SimulationError",
    "StreamingMobilitySimulation",
    "StreamingWalkers",
    "Summary",
    "TABLE1_AREA_SIDE",
    "TABLE1_OBJECTS",
    "TABLE2_AREA_SIDE",
    "TABLE2_OBJECTS",
    "TABLE2_RANGE_SIDE",
    "ThroughputMeter",
    "TickStats",
    "Walker",
    "WorkloadGenerator",
    "WorkloadSpec",
    "calibrate",
    "chaos_benchmark_payload",
    "columnar_benchmark_payload",
    "commuter_rush_workload",
    "default_cost_model",
    "elastic_benchmark_payload",
    "festival_surge_workload",
    "flash_crowd_workload",
    "format_table",
    "hot_object_skew_workload",
    "hotspot_positions",
    "leaf_crash_scenario",
    "make_walkers",
    "migration_crash_scenario",
    "partition_scenario",
    "percentile",
    "run_scenario",
    "scatter_objects",
    "table1_store",
    "table2_service",
    "wavefront_area",
]
