"""The bench tooling itself: trend gate, artifact validation, PR10 checks.

``scripts/bench_trend.py`` and the artifact validation inside
``scripts/bench_smoke.py`` are CI gates — a bug there merges silently
and only shows up as a regression nobody caught.  These tests load the
scripts as modules (they are not packages) and pin the gate logic:
when the trend gate trips, what the validator flags, and what the
``bench_check.py`` PR10 thresholds accept.
The ``bench_pairs.py`` tests pin when a claimed gain is met and when a
control is over its bound; ``bench_nn_shapes.py`` gets one small run.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[2] / "scripts"


def load_script(name: str):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def trend():
    return load_script("bench_trend")


@pytest.fixture(scope="module")
def smoke():
    return load_script("bench_smoke")


@pytest.fixture(scope="module")
def check():
    return load_script("bench_check")


@pytest.fixture(scope="module")
def pairs():
    return load_script("bench_pairs")


def series_of(trend, values_by_metric: dict[str, list]) -> dict:
    """A schema-1 series whose nth entry holds each metric's nth value."""
    nights = max(len(v) for v in values_by_metric.values())
    entries = []
    for night in range(nights):
        metrics = {name: None for name in trend.TRACKED_METRICS}
        for name, values in values_by_metric.items():
            metrics[name] = values[night]
        entries.append({"run": f"r{night}", "label": f"n{night}", "metrics": metrics})
    return {"schema": trend.SCHEMA_VERSION, "series": entries}


class TestTrendGate:
    def test_fewer_than_four_entries_is_always_green(self, trend):
        data = series_of(trend, {"pr10.tick_speedup": [50.0, 40.0, 30.0]})
        assert trend.trend_failures(data) == []

    def test_monotone_drift_past_the_limit_trips(self, trend):
        data = series_of(trend, {"pr10.tick_speedup": [50.0, 47.5, 45.0, 42.5]})
        failures = trend.trend_failures(data)
        assert len(failures) == 1
        assert "pr10.tick_speedup" in failures[0]
        assert "15.0%" in failures[0]

    def test_monotone_but_small_drift_stays_green(self, trend):
        data = series_of(trend, {"pr10.tick_speedup": [50.0, 49.0, 48.0, 47.0]})
        assert trend.trend_failures(data) == []

    def test_non_monotone_drift_stays_green(self, trend):
        # Same 15% total drop, but night 2 recovered: no trend call.
        data = series_of(trend, {"pr10.tick_speedup": [50.0, 44.0, 45.0, 42.5]})
        assert trend.trend_failures(data) == []

    def test_none_breaks_the_chain(self, trend):
        data = series_of(trend, {"pr10.tick_speedup": [50.0, 45.0, None, 40.0]})
        assert trend.trend_failures(data) == []

    def test_lower_is_better_metrics_trip_on_rises(self, trend):
        assert trend.TRACKED_METRICS["pr5.rounds_to_balance"][2] == "lower"
        data = series_of(trend, {"pr5.rounds_to_balance": [2, 3, 4, 5]})
        failures = trend.trend_failures(data)
        assert len(failures) == 1
        assert "pr5.rounds_to_balance" in failures[0]

    def test_only_the_trailing_window_counts(self, trend):
        # An old collapse followed by three stable nights is not a trend.
        data = series_of(
            trend, {"pr10.tick_speedup": [50.0, 30.0, 30.0, 30.0, 30.0]}
        )
        assert trend.trend_failures(data) == []

    def test_retired_metric_keys_in_old_entries_are_ignored(self, trend, capsys):
        # PR 14 stopped tracking pr3.*; nights recorded before that still
        # carry the keys (here even collapsing 4 nights running) and must
        # neither trip the gate nor break the report.
        assert not any(name.startswith("pr3.") for name in trend.TRACKED_METRICS)
        data = series_of(trend, {"pr10.tick_speedup": [50.0, 50.0, 50.0, 50.0]})
        for entry, dying in zip(data["series"], [24.0, 12.0, 6.0, 3.0]):
            entry["metrics"]["pr3.message_reduction_factor"] = dying
            entry["metrics"]["pr3.tick_speedup"] = dying / 10
        assert trend.trend_failures(data) == []
        trend.print_report(data)
        assert "pr3." not in capsys.readouterr().out

    def test_append_prunes_to_max_entries(self, trend):
        data = {"schema": trend.SCHEMA_VERSION, "series": []}
        for i in range(trend.MAX_ENTRIES + 10):
            trend.append_entry(data, f"r{i}", f"n{i}", {})
        assert len(data["series"]) == trend.MAX_ENTRIES
        assert data["series"][0]["run"] == "r10"

    def test_load_series_rejects_unknown_schema(self, trend, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"schema": 99, "series": []}))
        with pytest.raises(SystemExit):
            trend.load_series(path)

    def test_extract_metrics_tolerates_broken_artifacts(self, trend, tmp_path):
        # Only BENCH_PR10.json exists, and its speedup is a JSON NaN.
        (tmp_path / "BENCH_PR10.json").write_text(
            '{"tick_speedup": NaN, "columnar": {"updates_per_second": 1200.5}}'
        )
        metrics = trend.extract_metrics(tmp_path)
        assert metrics["pr10.tick_speedup"] is None
        assert metrics["pr10.updates_per_second"] == 1200.5
        assert metrics["pr2.load_drop_factor"] is None

    def test_main_append_report_check_round_trip(self, trend, tmp_path, capsys):
        root = tmp_path / "artifacts"
        root.mkdir()
        (root / "BENCH_PR10.json").write_text(
            json.dumps(
                {"tick_speedup": 44.0, "columnar": {"updates_per_second": 1.2e6}}
            )
        )
        series = tmp_path / "series.json"
        argv = ["--series", str(series), "--root", str(root)]
        assert trend.main([*argv, "--append", "--run", "one", "--check"]) == 0
        data = json.loads(series.read_text())
        assert data["series"][0]["metrics"]["pr10.tick_speedup"] == 44.0
        assert "trend gate passed" in capsys.readouterr().out


class TestSmokeArtifactValidation:
    @pytest.fixture
    def bench_root(self, monkeypatch, tmp_path):
        # validate_artifact resolves paths through benchreport.ROOT, the
        # same way the runners write them.
        import benchreport

        monkeypatch.setattr(benchreport, "ROOT", tmp_path)
        return tmp_path

    def write(self, root, payload):
        (root / "BENCH_PR10.json").write_text(json.dumps(payload))

    def test_valid_artifact_has_no_problems(self, smoke, bench_root):
        self.write(
            bench_root,
            {
                "objects": 1_000_000,
                "tick_speedup": 44.0,
                "answers_identical": True,
                "load_monitor_bounded": True,
            },
        )
        keys = smoke.ACCEPTANCE_KEYS["out_pr10"]
        assert smoke.validate_artifact("BENCH_PR10.json", keys) == []

    def test_missing_artifact_is_a_problem(self, smoke, bench_root):
        problems = smoke.validate_artifact("BENCH_PR10.json", ("objects",))
        assert problems and "missing" in problems[0]

    def test_missing_key_is_a_problem(self, smoke, bench_root):
        self.write(bench_root, {"objects": 1_000_000})
        problems = smoke.validate_artifact(
            "BENCH_PR10.json", ("objects", "tick_speedup")
        )
        assert problems == [
            "BENCH_PR10.json: acceptance key 'tick_speedup' missing"
        ]

    def test_nan_is_a_problem_but_none_passes(self, smoke, bench_root):
        self.write(bench_root, {"tick_speedup": float("nan"), "objects": None})
        problems = smoke.validate_artifact(
            "BENCH_PR10.json", ("tick_speedup", "objects")
        )
        assert len(problems) == 1
        assert "non-finite" in problems[0]

    def test_dotted_paths_descend_nested_payloads(self, smoke, bench_root):
        self.write(bench_root, {"scenarios": {"flash_crowd": {}}})
        problems = smoke.validate_artifact(
            "BENCH_PR10.json", ("scenarios.flash_crowd.load_drop_factor",)
        )
        assert problems and "load_drop_factor" in problems[0]

    def test_every_out_attr_has_acceptance_keys(self, smoke):
        assert smoke.ACCEPTANCE_KEYS["out_pr10"] == (
            "objects",
            "tick_speedup",
            "answers_identical",
            "load_monitor_bounded",
        )


GOOD_PR10 = {
    "objects": 1_000_000,
    "tick_speedup": 44.0,
    "answers_identical": True,
    "load_monitor_bounded": True,
    "equivalence": {"mismatches": []},
    "load_monitor": {"tracked_rates": 16},
}


class TestBenchCheckPr10:
    def run_checks(self, check, payload):
        return {
            c.description: c.run(payload)[0] for c in check.CHECKS["BENCH_PR10.json"]
        }

    def test_good_payload_passes_all_four(self, check):
        results = self.run_checks(check, GOOD_PR10)
        assert len(results) == 4
        assert all(results.values()), results

    @pytest.mark.parametrize(
        "patch",
        [
            pytest.param({"objects": 999_999}, id="too-few-objects"),
            pytest.param({"tick_speedup": 4.9}, id="speedup-below-5x"),
            pytest.param({"answers_identical": False}, id="answer-mismatch"),
            pytest.param({"load_monitor_bounded": False}, id="unbounded-monitor"),
        ],
    )
    def test_each_threshold_trips_alone(self, check, patch):
        payload = {**GOOD_PR10, **patch}
        results = self.run_checks(check, payload)
        assert sum(1 for ok in results.values() if not ok) == 1

    def test_missing_field_reports_not_raises(self, check):
        for c in check.CHECKS["BENCH_PR10.json"]:
            ok, observed = c.run({})
            assert not ok
            assert "missing field" in observed


class TestBenchCheckPr16:
    @pytest.mark.parametrize(
        "payload, ok",
        [
            ({"sightings": 100, "bytes_per_sighting": 42.15, "request": {"frame_bytes": 4215}}, True),
            ({"sightings": 100, "bytes_per_sighting": 48.01, "request": {"frame_bytes": 4801}}, False),
            # the v2 text body's figure, and a bench shrunk to look good
            ({"sightings": 100, "bytes_per_sighting": 110.0, "request": {"frame_bytes": 11000}}, False),
            ({"sightings": 10, "bytes_per_sighting": 40.0, "request": {"frame_bytes": 400}}, False),
            ({}, False),
        ],
    )
    def test_only_the_byte_count_is_gated(self, check, payload, ok):
        (gate,) = check.CHECKS["BENCH_PR16.json"]
        assert gate.run(payload)[0] is ok

    def test_runner_writes_what_the_gate_reads(self, smoke, check, tmp_path, monkeypatch):
        written = {}
        monkeypatch.setattr(
            smoke, "write_bench_json", lambda name, payload: written.update(payload) or tmp_path / name
        )
        smoke.run_pr16(type("Args", (), {"out_pr16": "BENCH_PR16.json"}))
        (gate,) = check.CHECKS["BENCH_PR16.json"]
        assert gate.run(written)[0], written
        for dotted in smoke.ACCEPTANCE_KEYS["out_pr16"]:
            value = written
            for part in dotted.split("."):
                value = value[part]


#: ten parent runs of a metric where lower is better: median 10.0,
#: quartiles 9.75 / 10.25 (``statistics.quantiles``' exclusive method).
PARENT_MS = [9.0, 9.5, 9.8, 9.9, 10.0, 10.0, 10.1, 10.2, 10.5, 11.0]


class TestBenchPairsVerdicts:
    """``scripts/bench_pairs.py`` on canned runs: when a claim holds, when
    a control is over its bound, and when a reading is unresolved."""

    def test_claim_met(self, pairs):
        change = [v * 0.1 for v in PARENT_MS]
        row = pairs.judge(PARENT_MS, change, "lower", 0.25, claimed=True)
        assert (row["won"], row["ok"], row["verdict"]) == (10, True, "CLAIM MET")
        assert row["reading"] == "better"

    def test_claim_needs_nine_pairs_in_ten(self, pairs):
        change = [v * 0.5 for v in PARENT_MS[:8]] + [20.0, 20.0]
        row = pairs.judge(PARENT_MS, change, "lower", 0.25, claimed=True)
        assert row["won"] == 8 and not row["ok"]

    def test_claim_needs_more_than_the_parents_quartile_distance(self, pairs):
        # Wins every pair, but by less than the parent's own q3 - q1 (0.5).
        change = [v - 0.1 for v in PARENT_MS]
        row = pairs.judge(PARENT_MS, change, "lower", 0.25, claimed=True)
        assert row["won"] == 10 and not row["ok"]
        assert row["reading"] == "unresolved"

    def test_higher_is_better_metrics_win_upwards(self, pairs):
        parent = [1000.0 + i for i in range(10)]
        row = pairs.judge(parent, [2 * v for v in parent], "higher", 0.25, claimed=True)
        assert row["ok"] and row["gap"] < 0

    def test_control_within_bound(self, pairs):
        change = [v * 1.05 for v in PARENT_MS]
        row = pairs.judge(PARENT_MS, change, "lower", 0.25)
        assert row["ok"] and row["verdict"] == "ok"
        assert row["gap"] == pytest.approx(0.05)

    def test_control_over_bound_fails(self, pairs):
        change = [v * 1.3 for v in PARENT_MS]
        row = pairs.judge(PARENT_MS, change, "lower", 0.25)
        assert not row["ok"] and row["verdict"] == "OVER BOUND"
        assert row["reading"] == "worse"

    def test_spread_wider_than_the_bound_is_unresolved(self, pairs):
        noisy = [5.0, 6.0, 7.0, 8.0, 10.0, 10.0, 12.0, 13.0, 14.0, 15.0]
        row = pairs.judge(PARENT_MS, noisy, "lower", 0.25)
        assert row["ok"] and row["verdict"] == "ok, unresolved"
        over = pairs.judge(PARENT_MS, [v * 1.5 for v in noisy], "lower", 0.25)
        assert not over["ok"] and over["verdict"] == "OVER BOUND, unresolved"

    def test_wide_spread_resolved_when_every_change_run_is_better(self, pairs):
        noisy = [1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 6.0, 7.0, 8.0, 8.9]
        row = pairs.judge(PARENT_MS, noisy, "lower", 0.25)
        assert row["verdict"] == "ok"

    def test_workload_rows_and_exit_code(self, pairs, tmp_path, capsys):
        spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [m["name"] for m in spec["end_to_end"]]
        parent_runs = [{name: v for name in names} for v in PARENT_MS]
        fast_nn = [dict(run, nn_p50_ms=run["nn_p50_ms"] / 10) for run in parent_runs]
        saved = tmp_path / "runs.json"
        saved.write_text(json.dumps({"w": {"parent": parent_runs, "change": fast_nn}}))
        runs = json.loads(saved.read_text())["w"]
        rows = dict(pairs.judge_workload(runs, "w", spec, {("nn_p50_ms", "w")}))
        assert list(rows) == names
        assert rows["nn_p50_ms"]["verdict"] == "CLAIM MET"
        assert pairs.main(["--load", str(saved), "--claim", "nn_p50_ms/w"]) == 0
        assert pairs.main(["--load", str(saved), "--claim", "range_p50_ms/w"]) == 1
        assert pairs.main(["--load", str(saved), "--claim", "nn_p50_ms/other"]) == 1
        assert "CLAIM NOT MET" in capsys.readouterr().out


def test_bench_nn_shapes_times_every_shape():
    """``scripts/bench_nn_shapes.py`` on a small service: every shape runs
    and answers as its parameters say."""
    shapes = load_script("bench_nn_shapes")
    results = shapes.run("objects", 1500, max_probes=2)
    assert list(results) == [shape[0] for shape in shapes.SHAPES]
    assert all(row["probes"] == 2 and row["p50_ms"] > 0 for row in results.values())
    assert results["all_qualify"]["answer"] == 1
    assert results["none_qualify"]["answer"] == 0
    assert results["none_qualify"]["rounds"] > 1
