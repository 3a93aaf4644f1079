"""Multi-process cluster launcher: every ``LocationServer`` in its own
OS process, driven over real sockets from this (driver) process."""

import asyncio

import pytest

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
                await launcher.stop()
            # Ordered shutdown leaves no straggler node processes.
            assert all(
                not process.is_alive()
                for process in launcher._processes.values()
            )

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
