"""Every test here leaves no cluster node process running."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_node_left_running():
    yield
    left = [p for p in multiprocessing.active_children() if p.name.startswith("ls-node-")]
    for process in left:
        process.kill()
    if left:
        pytest.fail(f"node processes left running: {sorted(p.name for p in left)}")
