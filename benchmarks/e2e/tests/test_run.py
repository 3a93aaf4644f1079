"""The command end to end, at smoke scale: contract output, determinism,
wrong-answer detection, the watchdog, and nothing left running."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]

RUN = [sys.executable, str(E2E / "run.py")]


def run(*extra, timeout=120):
    done = subprocess.run(
        [*RUN, "--scale", "smoke", *extra], capture_output=True, text=True, timeout=timeout
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done, result


def benchmark_processes():
    """Live processes one of whose arguments is this benchmark's ``run.py``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                argv = (entry / "cmdline").read_bytes().decode(errors="replace").split("\0")
            except OSError:
                continue
            if any(arg.endswith("e2e/run.py") for arg in argv):
                found.append(argv)
    return found


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [tuple(m.values()) for m in spec["per_layer"]] == metrics.PER_LAYER
    assert len(spec["per_layer"]) <= 128


def test_untraced_run_prints_every_end_to_end_metric_and_leaves_nothing_running():
    done, result = run("--workload", "query_mix_tcp", "--seed", "2", "--trace", "0")
    assert done.returncode == 0, done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) and set(result["metrics"]) == {m[0] for m in metrics.END_TO_END}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert '"comparable": false' in done.stdout  # smoke output is stamped
    assert benchmark_processes() == []


def test_warmup_and_sweep_are_excluded_from_every_count():
    done, result = run("--workload", "mixed_inproc_columnar", "--seed", "2", "--trace", "0")
    assert done.returncode == 0, done.stderr
    inputs = workloads.generate("mixed_inproc_columnar", 2, 15.0, "smoke")
    assert inputs.warmup  # there is a warm-up, and it is not in the count
    assert result["attempted"] == sum(len(group) for group in inputs.timed)


def test_traced_counts_repeat_exactly_for_a_seed_and_move_with_it():
    exact = ("driver.ops", "wire.encode_bytes", "sock.msgs_sent", "store.update_items")
    runs = []
    for seed in ("4", "4", "5"):
        done, result = run("--workload", "steady_update_udp", "--seed", seed, "--trace", "1")
        assert done.returncode == 0, done.stderr
        assert set(result["metrics"]) == {m[0] for m in metrics.PER_LAYER}
        runs.append(result["metrics"])
    first, again, other = runs
    assert [first[name]["value"] for name in exact] == [again[name]["value"] for name in exact]
    assert first["wire.encode_bytes"]["value"] != other["wire.encode_bytes"]["value"]
    assert first["trace.accounted_share"]["value"] >= 0.90
    for name in ("driver.retries", "wire.frames_corrupted", "validate.quarantined", "sock.dead_letters"):
        assert first[name]["value"] == 0, name
    assert (E2E / "out" / "trace_steady_update_udp.json").is_file()


def test_a_wrong_answer_fails_the_run():
    done, result = run("--workload", "query_mix_tcp", "--trace", "0", "--inject", "wrong-answer")
    assert done.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "WRONG" in done.stderr
    assert benchmark_processes() == []


def test_a_hang_trips_the_watchdog_and_leaves_nothing_running():
    done, result = run(
        "--workload", "steady_update_udp", "--trace", "0", "--inject", "hang", "--watchdog", "3"
    )
    assert done.returncode == 3
    assert result is None and "WATCHDOG" in done.stderr
    assert benchmark_processes() == []


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        E2E, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "steady_update_udp", "--seed", "1",
         "--seconds", "15", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
