"""Reachability hygiene: every public name in ``src/`` has a caller.

A public module-level function or class, or a public method of a
module-level class, earns its place in one of three ways:

* it is referenced from ``src/``, ``benchmarks/``, ``scripts/`` or
  ``examples/``: an ``ast.Name`` or ``ast.Attribute`` with its
  identifier, or a ``str`` constant equal to it (the e2e tracer rebinds
  methods by name).  Its own definition, ``import`` lines, ``__all__``
  and docstrings do not count, nor does ``X.name`` where ``X`` is bound
  in that file by ``import`` of a module outside ``repro``
  (``subprocess.TimeoutExpired`` names no definition in ``src/``);
* it is a :data:`PAPER_SURFACE` row: part of the paper's service
  surface that no code path calls, with its section and one reason (a
  class row covers the class's methods);
* it is a :data:`RUNTIME_CALLBACKS` row: a method the asyncio event
  loop calls by protocol, never by name.

A name only tests reach is a second surface kept for no caller; it fails
here instead of lingering.  Dunders are exempt.  A ``@property`` is a
state view: it passes when anything reads it, tests included.  A row in
either table must name a definition nothing else reaches, so the tables
cannot go stale.
"""

import ast
import pathlib

import repro

ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
SRC = ROOT / "src"
SCANNED = ("src", "benchmarks", "scripts", "examples")

#: dotted name → (paper section, why it stays with no caller)
PAPER_SURFACE = {
    "repro.core.tracking.StationaryTracker": (
        "§3",
        "stationary sighting sources (sensor cells) report the objects they see",
    ),
    "repro.core.geo_service.GeoLocationService": (
        "§3",
        "clients and sensors speak WGS84 positions at the service boundary",
    ),
    "repro.geo.coords.haversine_distance": (
        "§3",
        "WGS84 great-circle distance, the geo service's distance oracle",
    ),
    "repro.model.records.LocationDescriptor.could_contain": (
        "§3, Fig. 2",
        "the descriptor's invariant: the real position lies in its accuracy circle",
    ),
    "repro.core.server.LocationServer.evaluate_neighbors_many": (
        "§3",
        "the nearest-neighbour query's in-process entry point",
    ),
    "repro.core.hierarchy.build_fig6_hierarchy": (
        "§6, Fig. 6",
        "the seven-server example hierarchy the paper walks its algorithms on",
    ),
    "repro.storage.persistence.FileStore": (
        "§5",
        "visitor records live in persistent storage; this is the durable store",
    ),
}

#: dotted name of a method the asyncio event loop calls by protocol
RUNTIME_CALLBACKS = {
    "repro.net.udp._UdpProtocol.datagram_received",
    "repro.net.udp._UdpProtocol.error_received",
}


def _is_property(node) -> bool:
    for deco in node.decorator_list:
        name = deco.id if isinstance(deco, ast.Name) else getattr(deco, "attr", None)
        if name in ("property", "cached_property", "setter", "deleter"):
            return True
    return False


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def public_definitions() -> tuple[dict[str, str], dict[str, str]]:
    """Dotted name → identifier, for the public functions, classes and
    methods, and for the public properties."""
    names: dict[str, str] = {}
    properties: dict[str, str] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                names[f"{module}.{node.name}"] = node.name
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name.startswith("_"):
                    continue  # private, or a dunder
                dotted = f"{module}.{node.name}.{member.name}"
                (properties if _is_property(member) else names)[dotted] = member.name
    return names, properties


class _References(ast.NodeVisitor):
    """Identifiers a tree refers to, minus imports, ``__all__``,
    docstrings, a definition's references to itself (a class naming
    itself in its own annotations, a recursive call), and attributes of
    a module outside ``repro`` the tree imports."""

    def __init__(self):
        self.found: set[str] = set()
        self._inside: list[str] = []
        self._outside: set[str] = set()

    def _add(self, name: str) -> None:
        if name not in self._inside:
            self.found.add(name)

    def _visit_body(self, node) -> None:
        body = node.body
        docstring = (
            body[0]
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            else None
        )
        for child in ast.iter_child_nodes(node):
            if child is not docstring:
                self.visit(child)

    def visit_Module(self, node) -> None:
        self._outside = {
            alias.asname or alias.name.split(".")[0]
            for child in ast.walk(node)
            if isinstance(child, ast.Import)
            for alias in child.names
            if alias.name.split(".")[0] != "repro"
        }
        self._visit_body(node)

    def _visit_definition(self, node) -> None:
        self._inside.append(node.name)
        self._visit_body(node)
        self._inside.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _visit_definition

    def visit_Import(self, node) -> None:
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node) -> None:
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node) -> None:
        self._add(node.id)

    def visit_Attribute(self, node) -> None:
        if not (isinstance(node.value, ast.Name) and node.value.id in self._outside):
            self._add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node) -> None:
        if isinstance(node.value, str):
            self._add(node.value)


def references(tops) -> set[str]:
    visitor = _References()
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return visitor.found


def _covered(dotted: str) -> bool:
    return (
        dotted in RUNTIME_CALLBACKS
        or dotted in PAPER_SURFACE
        or dotted.rsplit(".", 1)[0] in PAPER_SURFACE
    )


def test_every_public_name_has_a_caller_outside_tests():
    names, _ = public_definitions()
    found = references(SCANNED)
    unreached = sorted(d for d, name in names.items() if name not in found and not _covered(d))
    assert unreached == []


def test_every_public_property_is_read_somewhere():
    _, properties = public_definitions()
    found = references(SCANNED + ("tests",))
    assert sorted(d for d, name in properties.items() if name not in found) == []


def test_every_row_names_a_definition_nothing_else_reaches():
    names, _ = public_definitions()
    found = references(SCANNED)
    rows = set(PAPER_SURFACE) | RUNTIME_CALLBACKS
    assert sorted(rows - set(names)) == []
    assert sorted(row for row in rows if names[row] in found) == []
    for dotted, (section, reason) in PAPER_SURFACE.items():
        assert section.startswith("§") and reason, dotted


def test_an_outside_module_attribute_is_no_reference():
    visitor = _References()
    visitor.visit(
        ast.parse(
            "import subprocess\n"
            "import repro.sim.engine as engine\n"
            "subprocess.TimeoutExpired\n"
            "engine.SimLoop\n"
        )
    )
    assert "TimeoutExpired" not in visitor.found
    assert "SimLoop" in visitor.found
