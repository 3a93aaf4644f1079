"""A node's transport seed depends on the cluster seed and the server
id only — never on the process's string-hash salt — so a lossy
multi-process run drops the same messages every time at one seed."""

import os
import pathlib
import subprocess
import sys

import repro
from repro.net.bootstrap import node_seed

SRC = pathlib.Path(repro.__file__).resolve().parents[1]


def node_seed_in_subprocess(hash_seed: str) -> int:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.net.bootstrap import node_seed; print(node_seed(7, 'root.3'))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return int(out.stdout)


def test_node_seed_ignores_the_string_hash_salt():
    seeds = {node_seed_in_subprocess(salt) for salt in ("1", "2")}
    assert seeds == {node_seed(7, "root.3")}


def test_node_seeds_differ_per_server_and_follow_the_cluster_seed():
    assert node_seed(7, "root.3") != node_seed(7, "root.2")
    assert node_seed(8, "root.3") == node_seed(7, "root.3") + 1
