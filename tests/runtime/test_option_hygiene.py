"""Option hygiene for the runtime fabric: no constructor keyword that
nothing sets.

Every ``__init__`` parameter of the runtimes, the fault injector, the
cluster launcher, the recovery coordinator, the leaf data store and the
elastic harness must be passed — by keyword or by position — by some call in ``src/``,
``benchmarks/``, ``scripts/`` or ``examples/``.  A knob only its own
tests turn is a second behaviour the fault semantics must carry for no
caller; it fails here instead of lingering.  Socket transports are
built as ``UdpTransport`` / ``TcpTransport`` or through
``make_transport``, so those calls count for ``SocketTransport``.
"""

import ast
import inspect
import pathlib

import repro
from repro.chaos import FaultInjector, RecoveryCoordinator
from repro.net.bootstrap import ClusterLauncher
from repro.net.transport import SocketTransport
from repro.runtime.asyncio_rt import AsyncioNetwork
from repro.runtime.simnet import SimNetwork
from repro.sim.elastic import ElasticHarness
from repro.storage import LocalDataStore

ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
SCANNED = ("src", "benchmarks", "scripts", "examples")

#: class → the callee names that construct it
CONSTRUCTORS = {
    SimNetwork: {"SimNetwork"},
    AsyncioNetwork: {"AsyncioNetwork"},
    SocketTransport: {"UdpTransport", "TcpTransport", "make_transport"},
    FaultInjector: {"FaultInjector"},
    ClusterLauncher: {"ClusterLauncher"},
    RecoveryCoordinator: {"RecoveryCoordinator"},
    LocalDataStore: {"LocalDataStore"},
    ElasticHarness: {"ElasticHarness"},
}

#: Keywords exempt because they are a deployment's address, not a
#: behaviour: every caller here runs on loopback, a real deployment
#: binds elsewhere.
DEPLOYMENT = {(ClusterLauncher, "host")}


def init_parameters(cls) -> list[str]:
    return [
        param.name
        for param in list(inspect.signature(cls.__init__).parameters.values())[1:]
        if param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
    ]


def callee_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def passed_arguments() -> dict[str, tuple[set[int], set[str]]]:
    """Callee name → (positional indices, keyword names) it is ever
    called with across the scanned trees."""
    seen: dict[str, tuple[set[int], set[str]]] = {}
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                positions, keywords = seen.setdefault(callee_name(node), (set(), set()))
                for index, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    positions.add(index)
                keywords.update(kw.arg for kw in node.keywords if kw.arg is not None)
    return seen


def test_every_fabric_constructor_keyword_has_a_caller():
    seen = passed_arguments()
    unused = {}
    for cls, callees in CONSTRUCTORS.items():
        params = init_parameters(cls)
        # make_transport takes the transport kind first, then keywords only.
        used = set()
        for callee in callees:
            positions, keywords = seen.get(callee, (set(), set()))
            used |= keywords
            if callee != "make_transport":
                used |= {params[i] for i in positions if i < len(params)}
        missing = [
            name
            for name in params
            if name not in used and (cls, name) not in DEPLOYMENT
        ]
        if missing:
            unused[cls.__name__] = missing
    assert unused == {}
