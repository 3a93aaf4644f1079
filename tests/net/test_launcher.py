"""Multi-process cluster launcher: every ``LocationServer`` in its own
OS process, driven over real sockets from this (driver) process."""

import asyncio
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.core import messages as m
from repro.core.hierarchy import Hierarchy, build_table2_hierarchy
from repro.geo import Point
from repro.model import SightingRecord
from repro.net.bootstrap import ClusterLauncher, bfs_order
from repro.runtime.base import Endpoint

pytestmark = pytest.mark.slow


def run(coro):
    return asyncio.run(coro)


class TestBfsOrder:
    def test_root_first_children_after(self):
        h = build_table2_hierarchy()
        order = bfs_order(h)
        assert order[0] == h.root_id
        assert sorted(order) == sorted(h.server_ids())


class TestUdpCluster:
    def test_register_query_adopt_shutdown(self):
        async def scenario():
            h = build_table2_hierarchy(1500.0)
            launcher = ClusterLauncher(h, transport="udp", seed=0)
            await launcher.start()
            try:
                client = launcher.join(Endpoint("test-client"))

                # Register at the entry leaf owning the position.
                leaf = h.leaf_for_point(Point(100.0, 100.0))
                res = await launcher.control.ask(
                    leaf,
                    lambda rid: m.RegisterReq(
                        request_id=rid,
                        reply_to=launcher.control.address,
                        sighting=SightingRecord("truck", 0.0, Point(100.0, 100.0), 10.0),
                        des_acc=25.0,
                        min_acc=100.0,
                        registrar=launcher.control.address,
                    ),
                    timeout=2.0,
                    retries=4,
                )
                assert res.ok and res.agent == leaf

                # Cross-process query: enter at a *different* leaf, the
                # request routes through the root process and back.
                other = next(
                    sid for sid in h.leaf_ids() if sid != leaf
                )
                qres = await client.request(
                    other,
                    m.PosQueryReq(
                        request_id=client.next_request_id(),
                        reply_to=client.address,
                        object_id="truck",
                    ),
                    timeout=5.0,
                )
                assert qres.found
                assert qres.descriptor.pos == Point(100.0, 100.0)

                # Control plane: per-node stats and the leaf tracked sum.
                stats = await launcher.node_stats(leaf)
                assert stats.tracked == 1
                assert stats.epoch == h.epoch
                assert await launcher.total_tracked() == 1

                # Epoch bump adoption across all processes.
                bumped = Hierarchy(dict(h.configs), epoch=h.epoch + 1)
                adopted = await launcher.adopt_hierarchy(bumped)
                assert set(adopted) == set(h.server_ids())
                assert all(epoch == h.epoch + 1 for epoch in adopted.values())
            finally:
                processes = list(launcher._processes.values())
                await launcher.stop()
            # Shutdown leaves no straggler node processes.
            assert len(processes) == 5
            assert not any(process.is_alive() for process in processes)

        run(scenario())


class TestTcpCluster:
    def test_register_and_query_over_tcp(self):
        async def scenario():
            h = build_table2_hierarchy(1500.0)
            launcher = ClusterLauncher(h, transport="tcp", seed=0)
            await launcher.start()
            try:
                leaf = h.leaf_for_point(Point(700.0, 100.0))
                res = await launcher.control.ask(
                    leaf,
                    lambda rid: m.RegisterReq(
                        request_id=rid,
                        reply_to=launcher.control.address,
                        sighting=SightingRecord("bus", 0.0, Point(700.0, 100.0), 10.0),
                        des_acc=25.0,
                        min_acc=100.0,
                        registrar=launcher.control.address,
                    ),
                    timeout=2.0,
                    retries=4,
                )
                assert res.ok
                assert await launcher.total_tracked() == 1
            finally:
                await launcher.stop()

        run(scenario())


def exit_at_start(spec_json, server_id, conn):
    """A node entry point that dies before it binds (module-level: the
    spawned process imports it by name)."""
    os._exit(3)


class TestNodeThatDies:
    def test_start_names_the_node_and_its_exit_code_at_once(self, monkeypatch):
        from repro.errors import TransportError
        from repro.net import bootstrap

        monkeypatch.setattr(bootstrap, "run_node", exit_at_start)
        launcher = ClusterLauncher(build_table2_hierarchy())
        began = time.monotonic()
        with pytest.raises(TransportError, match=r"node 'root' .*exit code 3"):
            run(launcher.start())
        assert time.monotonic() - began < bootstrap.READY_TIMEOUT / 2


class TestLauncherValidation:
    def test_rejects_malformed_server_ids(self):
        from repro.core.hierarchy import build_grid_hierarchy
        from repro.errors import AddressError
        from repro.geo import Rect

        bad = build_grid_hierarchy(Rect(0, 0, 100, 100), [], root_id="bad id")
        with pytest.raises(AddressError):
            ClusterLauncher(bad)

    def test_accepts_split_derived_ids(self):
        # Path-like ids from splits (root.0/c.1) must stay launchable.
        from repro.core.hierarchy import build_grid_hierarchy
        from repro.geo import Rect

        h = build_grid_hierarchy(Rect(0, 0, 100, 100), [], root_id="root.0/c.1")
        ClusterLauncher(h)  # no raise


#: A launcher that starts a cluster, prints its node pids and dies
#: without stopping it.
DYING_LAUNCHER = """
import asyncio
import os

from repro.core.hierarchy import build_table2_hierarchy
from repro.net.bootstrap import ClusterLauncher


async def main():
    launcher = ClusterLauncher(build_table2_hierarchy())
    await launcher.start()
    print(*(process.pid for process in launcher._processes.values()), flush=True)
    os._exit(0)


if __name__ == "__main__":
    asyncio.run(main())
"""


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has exited)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
class TestDeadLauncher:
    def test_a_dead_launcher_leaves_no_node(self, tmp_path):
        script = tmp_path / "dying_launcher.py"
        script.write_text(DYING_LAUNCHER)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        launcher = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        # One line, not EOF: the nodes inherit the launcher's stdout.
        pids = [int(pid) for pid in launcher.stdout.readline().split()]
        try:
            assert len(pids) == 5
            deadline = time.monotonic() + 5.0
            while any(map(running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if running(pid)] == []
        finally:
            for pid in filter(running, pids):
                os.kill(pid, signal.SIGKILL)
            launcher.stdout.close()
            launcher.wait()
