"""BENCH_E2E: one workload, one process, one event loop, the real protocol path.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--scale full|smoke]

``--trace 0`` prints the end-to-end metrics (tracing off, nothing wrapped);
``--trace 1`` prints the per-layer metrics (a quarter-size pass with the
timing wrappers of ``tracing.py`` installed, plus a plain pass of the same
size for the overhead and the detail latencies).  Without ``--workload``
every workload is run both ways, one interpreter each, in the foreground.

The last line of standard output is one JSON object with exactly
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 means
every answer was right and nothing was left running; 1 a wrong, refused or
unanswered operation; 2 unusable arguments or no ``src/`` beside the
benchmark; 3 the watchdog fired; 4 a task, thread or process survived.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SETUP_REPEATS = 3
TRACED_FRACTION = 0.25
SWEEP_OBJECTS = 2_500
DEFAULT_SECONDS = 15.0
WATCHDOG_SECONDS = 150.0
EXIT_WRONG, EXIT_USAGE, EXIT_WATCHDOG, EXIT_LEAK = 1, 2, 3, 4


def _import_benchmark() -> None:
    """Put ``src/`` and this directory on the path, or leave with code 2:
    without the program there is nothing to measure."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


@dataclass
class _Prepared:
    """A populated, warmed-up cluster with its driver."""

    inputs: object
    cluster: object
    driver: object
    pregen_s: float
    setup_s: float


@contextlib.asynccontextmanager
async def prepared(args, fraction: float = 1.0):
    """Set-up — input pre-generation, cluster build, populate, warm-up — and,
    on the way out, every transport stopped whatever happened inside."""
    from cluster import Cluster
    from driver import Driver
    from workloads import generate

    args.quiet.settle()
    started = time.perf_counter()
    inputs = generate(args.workload, args.seed, args.seconds, args.scale, fraction)
    # The operation list is the harness's, not the program's: park it (and
    # whatever else is alive now) where the cyclic GC no longer walks it, so
    # full collections during the run cost what the *cluster's* heap costs.
    gc.collect()
    gc.freeze()
    pregen_s = time.perf_counter() - started
    cluster = Cluster(inputs.workload.lane, inputs.workload.backend)
    try:
        await cluster.start()
        cluster.populate(inputs)
        driver = Driver(cluster, inputs, args.quiet)
        await driver.run(inputs.warmup)
        yield _Prepared(inputs, cluster, driver, pregen_s, time.perf_counter() - started)
    finally:
        await cluster.stop()


class _Pass:
    """The timed region of one prepared cluster, then its checks."""

    def __init__(self, run: _Prepared) -> None:
        self.run = run
        self.samples: list = []
        self.wall = 0.0
        self.compared = 0
        self.problems: list[str] = []

    async def measure(self, inject: str | None = None) -> None:
        driver = self.run.driver
        first_sample = len(driver.samples)
        if inject == "hang":
            await asyncio.get_running_loop().create_future()  # never resolved
        await driver.run(self.run.inputs.timed)
        self.samples = driver.samples[first_sample:]
        # The groups' own wall clocks: what happens at the barriers between
        # them (``quiet.py``) is the harness's time, not the program's.
        self.wall = sum(sample.wall for sample in self.samples)

    @property
    def records(self) -> list:
        return [record for sample in self.samples for record in sample.records]

    async def sweep(self, scale: str) -> None:
        """Outside the timed region: ask for 2 500 objects' positions (125 at
        smoke scale) through the protocol; ``check`` compares them like any
        other answer, and compares *every* object at its leaf store."""
        from workloads import SCALES

        limit = round(SWEEP_OBJECTS * SCALES[scale])
        await self.run.driver.run([self.run.driver.sweep_group(limit)])

    def check(self, inject: str | None = None) -> None:
        """Replay the whole log against the flat store (wrong answers flip
        their record's ``ok``), then compare the leaves' final state."""
        from driver import check_answers, check_final_state

        inputs, driver = self.run.inputs, self.run.driver
        # Range/NN answers at 100 000 objects cost the flat store ~15 ms
        # each; a 1-in-10 sample there keeps checking inside the time cap.
        sample_every = 1 if inputs.workload.objects <= 10_000 else 10
        spoil = None
        if inject == "wrong-answer":
            spoil = next(record for record in self.records if record.op.kind == "pos")
        reference, self.compared = check_answers(inputs, driver.log, sample_every, spoil)
        self.problems = check_final_state(self.run.cluster, inputs, reference)
        unanswered = sum(1 for record in driver.log if not record.ok)
        if unanswered:
            self.problems.append(f"{unanswered} operations wrong, refused or unanswered")

    @property
    def failed(self) -> int:
        return sum(1 for record in self.records if not record.ok)


async def run_untraced(args) -> dict:
    from metrics import end_to_end

    setup_seconds = []
    for _ in range(SETUP_REPEATS - 1):
        async with prepared(args) as run:
            setup_seconds.append(run.setup_s)
    async with prepared(args) as run:
        setup_seconds.append(run.setup_s)
        timed = _Pass(run)
        await timed.measure(args.inject)
        await timed.sweep(args.scale)
    timed.check(args.inject)
    values, sample_counts = end_to_end(timed.samples, setup_seconds)
    return _result(args, run, [timed], values, sample_counts)


async def run_traced(args) -> dict:
    import tracing
    from metrics import cluster_counts, layer_table, per_layer

    async with prepared(args, TRACED_FRACTION) as run:
        plain = _Pass(run)
        await plain.measure()
        await plain.sweep(args.scale)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        async with prepared(args, TRACED_FRACTION) as traced_run:
            traced = _Pass(traced_run)
            tracer.cut()  # set-up and warm-up are not the traced region
            before = cluster_counts(traced_run.cluster, traced_run.driver)
            await traced.measure()
            after = cluster_counts(traced_run.cluster, traced_run.driver)
            spans, wrapper_counts = tracer.cut()
            await traced.sweep(args.scale)
    plain.check()
    traced.check()
    values = per_layer(
        spans=spans,
        wrapper_counts=wrapper_counts,
        layer_counts={name: after[name] - before[name] for name in after},
        traced_records=traced.records,
        traced_wall=traced.wall,
        plain_samples=plain.samples,
        plain_wall=plain.wall,
        pregen_s=traced_run.pregen_s,
    )
    print(layer_table(values))
    _dump_trace(args, traced_run.inputs.params_hash, spans)
    return _result(args, traced_run, [plain, traced], values, {})


def _dump_trace(args, params_hash: str, spans: list[list]) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace_{args.workload}.json"
    with path.open("w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "params_hash": params_hash,
                "span_fields": ["name", "start", "end", "parent", "op"],
                "spans": spans,
            },
            handle,
        )
    print(f"trace: {len(spans)} spans -> {path.relative_to(ROOT)}")


def _result(args, run: _Prepared, passes: list[_Pass], values: dict, sample_counts: dict) -> dict:
    from metrics import UNITS

    print(f"workload {args.workload}  seed {args.seed}  params_hash {run.inputs.params_hash}")
    if args.scale != "full":
        print(f'scale {args.scale}: "comparable": false (BENCHMARK.json describes the full scale)')
    for name, value in values.items():
        samples = f"  n={sample_counts[name]}" if name in sample_counts else ""
        print(f"{name:34s} {value:14.6g} {UNITS[name]}{samples}")
    problems = [problem for timed in passes for problem in timed.problems]
    for problem in problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(f"answers compared with the flat store: {sum(timed.compared for timed in passes)}")
    print(f"quiet core: moved {args.quiet.moves} times, {args.quiet.slow_starts} groups began on a busy core")
    return {
        "correct": not problems,
        "attempted": sum(len(timed.records) for timed in passes),
        "failed": sum(timed.failed for timed in passes),
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in values.items()
        },
    }


async def _guarded(args) -> dict:
    """One workload under the watchdog; afterwards nothing may be running."""
    async with asyncio.timeout(args.watchdog):
        result = await (run_traced(args) if args.trace else run_untraced(args))
    leaked = [task for task in asyncio.all_tasks() if task is not asyncio.current_task()]
    if leaked:
        print(f"LEAK: tasks still alive: {leaked}", file=sys.stderr)
        raise SystemExit(EXIT_LEAK)
    return result


def _pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0``: string hashing is otherwise
    salted per process, and dict collision luck alone moves timings by a few
    per cent between two runs of the same code.  ``execve`` replaces this
    process; no child is created."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )


def run_one(args) -> int:
    from quiet import QuietCore

    # If the loop itself is stuck the watchdog above never runs; SIGALRM's
    # default action then ends the process without a result.
    signal.alarm(int(args.watchdog) + 20)
    args.quiet = QuietCore()
    try:
        result = asyncio.run(_guarded(args))
    except TimeoutError:
        print(f"WATCHDOG: {args.workload} did not finish in {args.watchdog} s", file=sys.stderr)
        return EXIT_WATCHDOG
    finally:
        signal.alarm(0)
    if multiprocessing.active_children() or threading.active_count() != 1:
        print("LEAK: a thread or child process is still alive", file=sys.stderr)
        return EXIT_LEAK
    print(json.dumps(result))
    return 0 if result["correct"] else EXIT_WRONG


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own interpreter
    (so ``peak_rss_mb`` is never an earlier workload's high-water mark) and
    in the foreground: ``subprocess.run`` returns only once the child ended."""
    from workloads import WORKLOADS

    results, worst = {}, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--trace", str(trace)]
            command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            command += ["--scale", args.scale, "--watchdog", str(args.watchdog)]
            try:
                done = subprocess.run(
                    command, capture_output=True, text=True, timeout=args.watchdog + 30
                )
            except subprocess.TimeoutExpired:
                print(f"{name} --trace {trace}: killed after {args.watchdog + 30} s", file=sys.stderr)
                worst = max(worst, EXIT_WATCHDOG)
                continue
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            worst = max(worst, done.returncode)
            if done.returncode in (0, EXIT_WRONG):
                results.setdefault(name, {})[f"trace{trace}"] = json.loads(
                    done.stdout.strip().splitlines()[-1]
                )
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the four workloads (default: all, both ways)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="nominal measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--watchdog", type=float, default=WATCHDOG_SECONDS, help="seconds before giving up")
    parser.add_argument(
        "--inject", choices=("wrong-answer", "hang"), help="self-test only: force a failure"
    )
    args = parser.parse_args(argv)
    _import_benchmark()
    if args.workload is None:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    _pin_hash_seed()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
