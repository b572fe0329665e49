"""Road-network compilation: SUMO plain-XML nodes/edges, validation, stats, OSM.

Networks are immutable value graphs of nodes and edges; their LaneGraph derives
the lane connections from them, as netconvert does. XML serialization is
netconvert-compatible (node: id/x/y/type, edge: id/from/to/numLanes/speed/
spreadType/shape, the one axis all lanes are offset from). Parsing still reads
a provider's lane children: the first one's shape is an unshaped edge's axis.

validate_network checks a document pair (provider output, files on disk): its
XML structure, and per element the value and reference checks that
network_errors runs over typed records. OSM ingestion builds typed records, so
it checks them with network_errors and serializes only to write the files.
"""
from __future__ import annotations

import bisect
import functools
import heapq
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Optional

from .ir import GpsBoundingBox, RoadDescription, fold_sum

DEFAULT_LANE_WIDTH = 3.2
DEFAULT_SPEED = 13.89

NODE_TYPES = ("priority", "traffic_light", "unregulated")
SPREAD_TYPES = ("right", "center", "roadCenter")

_NODE_ATTRS = {"id", "x", "y", "type"}
_EDGE_ATTRS = {"id", "from", "to", "numLanes", "speed", "spreadType", "shape"}
_LANE_ATTRS = {"index", "shape"}


class NetworkError(ValueError):
    pass


@dataclass(frozen=True)
class ValidationError:
    kind: str       # MissingAttribute | UndeclaredAttribute | InvalidEnum |
                    # MalformedKeyword | UnknownNode | DuplicateId |
                    # EmptyNetwork | MalformedDocument
    element: str    # node | edge | lane | document
    detail: str = ""

    def __str__(self):
        return f"{self.kind}({self.element}: {self.detail})"


class NetworkValidationError(NetworkError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in self.errors))


class EmptyExtract(NetworkError):
    pass


class FetchFailed(NetworkError):
    pass


@dataclass(frozen=True)
class Node:
    id: str
    x: float
    y: float
    node_type: str = "priority"

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))


@dataclass(frozen=True)
class Edge:
    id: str
    from_node: str
    to_node: str
    num_lanes: int = 1
    speed: float = DEFAULT_SPEED
    spread_type: str = "right"
    shape: tuple[tuple[float, float], ...] = ()   # axis; () is node to node

    def __post_init__(self):
        object.__setattr__(self, "num_lanes", int(self.num_lanes))
        object.__setattr__(self, "speed", float(self.speed))
        object.__setattr__(self, "shape",
                           tuple((float(x), float(y)) for x, y in self.shape))


def _typed(cls, **fields):
    """A record from fields of their types already, without __post_init__."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


@dataclass(frozen=True)
class RoadNetwork:
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))

    @functools.cached_property
    def lane_graph(self) -> LaneGraph:
        """The compiled lane geometry, built on first use and kept."""
        return LaneGraph(self)

    @functools.cached_property
    def stats(self) -> NetworkStats:
        """network_stats of this network, computed on first use and kept."""
        return network_stats(self)


@dataclass(frozen=True)
class NetworkStats:
    total_lanes: int
    total_edges: int
    route_length: float


# ---------------------------------------------------------------------------
# geometry helpers

def _polyline_length(points) -> float:
    return fold_sum(math.dist(points[i], points[i + 1])
                    for i in range(len(points) - 1))


def edge_polyline(net: RoadNetwork, edge: Edge) -> tuple[tuple[float, float], ...]:
    """Edge axis geometry: its shape of 2 points or more, else node-to-node."""
    return _edge_axis(edge, net.lane_graph.nodes)


def _edge_axis(edge: Edge, nodes: dict) -> tuple[tuple[float, float], ...]:
    """edge_polyline with nodes (id -> Node) as the node lookup."""
    if len(edge.shape) >= 2:
        return edge.shape
    a, b = nodes[edge.from_node], nodes[edge.to_node]
    return ((a.x, a.y), (b.x, b.y))


def lane_centerline(net: RoadNetwork, edge: Edge, lane_index: int):
    """Centerline polyline of one lane, offset from the edge axis.

    spreadType "right" puts lanes on the right of the axis (lane 0 nearest),
    "center"/"roadCenter" center the lane band on the axis.
    """
    axis = edge_polyline(net, edge)
    return _offset_axis(axis, _right_normals(axis), edge, lane_index)


def _right_normals(axis) -> list:
    """Per vertex of axis, the unit right normal of the segment leaving it;
    the last vertex takes that of the segment entering it."""
    normals = []
    for (x0, y0), (x1, y1) in zip(axis, axis[1:]):
        dx, dy = x1 - x0, y1 - y0
        norm = math.hypot(dx, dy) or 1.0
        normals.append((dy / norm, -dx / norm))
    return normals + normals[-1:]


def lane_offset(edge: Edge, lane_index: int) -> float:
    """Distance of a lane's centerline right of the edge axis."""
    if edge.spread_type == "right":
        return (lane_index + 0.5) * DEFAULT_LANE_WIDTH
    return (lane_index - (edge.num_lanes - 1) / 2.0) * DEFAULT_LANE_WIDTH


def _offset_axis(axis, normals, edge: Edge, lane_index: int):
    off = lane_offset(edge, lane_index)
    return tuple((x + rx * off, y + ry * off)
                 for (x, y), (rx, ry) in zip(axis, normals))


def point_along(polyline, s: float):
    """(x, y, heading_deg) at arc length s along a polyline, clamped to ends."""
    return LanePath.measure(polyline).point_at(s)


@dataclass(frozen=True, slots=True)
class LanePath:
    """A polyline measured once, for repeated point lookups."""
    points: tuple
    cum: tuple      # arc length at each vertex, summed left to right
    length: float   # cum[-1], which equals _polyline_length(points)
    segments: tuple  # (length, heading in (-180, 180] degrees) per segment

    @classmethod
    def measure(cls, points) -> LanePath:
        points = tuple(points)
        cum, segments = [0.0], []
        for p, q in zip(points, points[1:]):
            heading = math.degrees(math.atan2(q[1] - p[1], q[0] - p[0]))
            segments.append((math.dist(p, q), heading + 360.0
                             if heading <= -180.0 else heading))
            cum.append(cum[-1] + segments[-1][0])
        return cls(points, tuple(cum), cum[-1], tuple(segments))

    def point_at(self, s: float):
        """(x, y, heading_deg) at arc length s, clamped to the ends.

        The segment is the first whose end lies at or beyond s (the last one
        otherwise), found by bisection over the vertex arc lengths.
        """
        p = self.points
        s = min(max(s, 0.0), self.length)
        i = bisect.bisect_left(self.cum, s, 1, len(p) - 1) - 1
        (x0, y0), (x1, y1) = p[i], p[i + 1]
        seg, heading = self.segments[i]
        t = 0.0 if seg == 0 else (s - self.cum[i]) / seg
        return x0 + t * (x1 - x0), y0 + t * (y1 - y0), heading


class LaneGraph:
    """Lane geometry and topology of one RoadNetwork, compiled once.

    Read it as ``net.lane_graph``. In every dict keyed by a node id, an edge
    id or a lane, the first element of the network with that key wins.
    ``inventory`` lists every lane as (edge, lane index), in network order;
    ``lanes`` maps (edge id, lane index) to its LanePath, built on first use.
    """

    def __init__(self, net: RoadNetwork):
        self.nodes: dict[str, Node] = {}
        self.edges: dict[str, Edge] = {}
        for n in net.nodes:
            self.nodes.setdefault(n.id, n)
        self.edge_length: dict[str, float] = {}
        for e in net.edges:
            if self.edges.setdefault(e.id, e) is e:
                self.edge_length[e.id] = _polyline_length(
                    _edge_axis(e, self.nodes))
        self.inventory = tuple((e, li) for e in net.edges
                               for li in range(e.num_lanes))
        self.lanes = _LanePaths(self.nodes, self.edges)

        self.successors = derive_connections(net.edges)

        # undirected adjacency: the declared nodes in order, then the
        # endpoints only edges name, in edge order (network_stats breaks
        # component ties by this order)
        self.neighbors: dict[str, set] = {n.id: set() for n in net.nodes}
        for e in net.edges:
            self.neighbors.setdefault(e.from_node, set()).add(e.to_node)
            self.neighbors.setdefault(e.to_node, set()).add(e.from_node)


class _LanePaths(dict):
    """LaneGraph.lanes: a lane of a known edge is measured on its first
    lookup, from the edge's axis and normals, computed once per edge. It
    holds the graph's dicts, not the graph, so no reference cycle delays
    freeing a dropped network until the cyclic collector runs."""

    def __init__(self, nodes: dict, edges: dict):
        super().__init__()
        self.nodes, self.edges, self.geometry = nodes, edges, {}

    def __missing__(self, key):
        edge = self.edges[key[0]]
        if not 0 <= key[1] < edge.num_lanes:
            raise KeyError(key)
        if edge.id not in self.geometry:    # edge id -> (axis, normals)
            axis = _edge_axis(edge, self.nodes)
            self.geometry[edge.id] = axis, _right_normals(axis)
        path = self[key] = LanePath.measure(
            _offset_axis(*self.geometry[edge.id], edge, key[1]))
        return path


def derive_connections(edges) -> dict[str, tuple[str, ...]]:
    """Canonical connections, edge id -> the sorted ids of the edges it
    connects to: at its end node, every other leaving edge except a direct
    U-turn (lanes pair by index, so any two edges with a lane join)."""
    leaving: dict[str, list] = {}
    for e in edges:
        leaving.setdefault(e.from_node, []).append(e)
    out: dict[str, set] = {}
    for e_in in edges:
        loop = e_in.from_node == e_in.to_node
        out.setdefault(e_in.id, set()).update(
            e_out.id for e_out in leaving.get(e_in.to_node, ())
            if e_out.id != e_in.id
            and (loop or e_out.to_node != e_in.from_node))
    return {eid: tuple(sorted(to)) for eid, to in out.items()}


# ---------------------------------------------------------------------------
# validation

def _validate_root(doc: str, tag: str, errors: list) -> Optional[ET.Element]:
    try:
        root = ET.fromstring(doc)
    except ET.ParseError as exc:
        errors.append(ValidationError("MalformedDocument", tag, str(exc)))
        return None
    if root.tag != tag:
        errors.append(ValidationError("MalformedDocument", tag,
                                      f"root element is <{root.tag}>"))
        return None
    return root


def _node_errors(nid, node_type, node_ids: set, errors: list) -> None:
    """Value checks of one node; None stands for a missing attribute."""
    if nid is not None:
        if "#" in nid:
            errors.append(ValidationError("MalformedKeyword", "node", nid))
        if nid in node_ids:
            errors.append(ValidationError("DuplicateId", "node", nid))
        node_ids.add(nid)
    if node_type is not None and node_type not in NODE_TYPES:
        errors.append(ValidationError("InvalidEnum", "node",
                                      f"type={node_type}"))


def _edge_errors(eid, ends, spread, node_ids: set, edge_ids: set,
                 errors: list) -> None:
    """Value checks of one edge up to its numbers; None stands for a
    missing attribute."""
    if eid is not None:
        if "#" in eid:
            errors.append(ValidationError("MalformedKeyword", "edge", eid))
        if eid in edge_ids:
            errors.append(ValidationError("DuplicateId", "edge", eid))
        edge_ids.add(eid)
    for attr, ref in zip(("from", "to"), ends):
        if ref is not None and ref not in node_ids:
            errors.append(ValidationError("UnknownNode", "edge",
                                          f"{attr}={ref}"))
    if spread is not None and spread not in SPREAD_TYPES:
        errors.append(ValidationError("InvalidEnum", "edge",
                                      f"spreadType={spread}"))


def _number_errors(tag: str, attr: str, value, text, errors: list) -> None:
    """A node x or y that is not a finite number, or an edge numLanes or
    speed that is not a positive finite one, spelled as str(text): the
    attribute's text, or the record's number (str of a float is its
    repr)."""
    if not (-math.inf if tag == "node" else 0) < value < math.inf:
        errors.append(ValidationError("InvalidEnum", tag, f"{attr}={text}"))


def _is_line(points) -> bool:
    """At least 2 points, every coordinate finite."""
    return len(points) >= 2 and all(math.isfinite(x) and math.isfinite(y)
                                    for x, y in points)


def _shape_errors(el: ET.Element, errors: list) -> None:
    """A shape attribute of el that does not spell a line."""
    shape = el.get("shape")
    if shape is not None and not _is_line(_parse_shape(shape)):
        errors.append(ValidationError("MalformedKeyword", el.tag,
                                      f"shape={shape}"))


def _attr_errors(el: ET.Element, declared, required, errors: list) -> None:
    errors.extend(ValidationError("UndeclaredAttribute", el.tag, attr)
                  for attr in el.attrib if attr not in declared)
    errors.extend(ValidationError("MissingAttribute", el.tag, attr)
                  for attr in required if attr not in el.attrib)


def _number(el: ET.Element, attr: str, kind, errors: list):
    """The attribute as kind; None when missing or malformed."""
    text = el.get(attr)
    try:
        return None if text is None else kind(text)
    except ValueError:
        errors.append(ValidationError("MalformedKeyword", el.tag,
                                      f"{attr}={text}"))


def _read_documents(xml_nodes: str, xml_edges: str):
    """(errors, nodes root, edges root) of a document pair. Per element, the
    structural checks (tags, undeclared or missing attributes, number
    syntax) run interleaved with the value checks network_errors shares.
    The roots are None when a document has no valid root."""
    errors: list[ValidationError] = []
    nodes_root = _validate_root(xml_nodes, "nodes", errors)
    edges_root = _validate_root(xml_edges, "edges", errors)
    if nodes_root is None or edges_root is None:
        return errors, None, None

    node_ids: set[str] = set()
    for el in nodes_root:
        if el.tag != "node":
            errors.append(ValidationError("UndeclaredAttribute", "node",
                                          f"unexpected element <{el.tag}>"))
            continue
        _attr_errors(el, _NODE_ATTRS, ("id", "x", "y"), errors)
        _node_errors(el.get("id"), el.get("type"), node_ids, errors)
        for attr in ("x", "y"):
            value = _number(el, attr, float, errors)
            if value is not None:
                _number_errors("node", attr, value, el.get(attr), errors)

    edge_ids: set[str] = set()
    n_edges = 0
    for el in edges_root:
        if el.tag != "edge":
            errors.append(ValidationError("UndeclaredAttribute", "edge",
                                          f"unexpected element <{el.tag}>"))
            continue
        n_edges += 1
        _attr_errors(el, _EDGE_ATTRS, ("id", "from", "to"), errors)
        _edge_errors(el.get("id"), (el.get("from"), el.get("to")),
                     el.get("spreadType"), node_ids, edge_ids, errors)
        for attr, kind in (("numLanes", int), ("speed", float)):
            value = _number(el, attr, kind, errors)
            if value is not None:
                _number_errors("edge", attr, value, el.get(attr), errors)
        _shape_errors(el, errors)
        for child in el:
            if child.tag != "lane":
                errors.append(ValidationError("UndeclaredAttribute", "edge",
                                              f"unexpected child <{child.tag}>"))
                continue
            _attr_errors(child, _LANE_ATTRS, ("shape",), errors)
            _shape_errors(child, errors)
            if "index" not in child.attrib:
                errors.append(ValidationError("MissingAttribute", "lane", "index"))
            _number(child, "index", int, errors)

    if n_edges == 0:
        errors.append(ValidationError("EmptyNetwork", "document", "no edges"))
    return errors, nodes_root, edges_root


def validate_network(xml_nodes: str, xml_edges: str) -> list[ValidationError]:
    """All schema and referential violations in a nodes/edges document
    pair; empty iff both documents are valid and mutually consistent."""
    return _read_documents(xml_nodes, xml_edges)[0]


def network_errors(net: RoadNetwork) -> list[ValidationError]:
    """validate_network(*serialize_sumo_xml(net)), checked on the typed
    records without writing them out: the same errors in the same order.
    This holds while every id and enum string of net consists of characters
    XML 1.0 allows; with any other, the serialized network does not parse.
    """
    errors: list[ValidationError] = []
    node_ids: set[str] = set()
    for n in net.nodes:
        _node_errors(n.id, n.node_type, node_ids, errors)
        # str of a float is its repr, spelled only for an error
        _number_errors("node", "x", n.x, n.x, errors)
        _number_errors("node", "y", n.y, n.y, errors)
    edge_ids: set[str] = set()
    for e in net.edges:
        _edge_errors(e.id, (e.from_node, e.to_node), e.spread_type,
                     node_ids, edge_ids, errors)
        _number_errors("edge", "numLanes", e.num_lanes, e.num_lanes, errors)
        _number_errors("edge", "speed", e.speed, e.speed, errors)
        if e.shape and not _is_line(e.shape):
            errors.append(ValidationError(
                "MalformedKeyword", "edge", f"shape={_shape_attr(e.shape)}"))
    if not net.edges:
        errors.append(ValidationError("EmptyNetwork", "document", "no edges"))
    return errors


def _parse_shape(text: str) -> tuple:
    """The points a shape attribute spells; () when it is malformed."""
    try:
        return tuple((float(x), float(y))
                     for x, y in (chunk.split(",") for chunk in text.split()))
    except ValueError:
        return ()


# ---------------------------------------------------------------------------
# XML serialization

# '&' goes first so later references are not escaped again; whitespace other
# than a space must be a character reference, or parsers normalize it to a
# space inside attribute values
_ATTR_ESCAPES = (("&", "&amp;"), ("<", "&lt;"), ('"', "&quot;"),
                 ("\t", "&#9;"), ("\n", "&#10;"), ("\r", "&#13;"))
_NEEDS_ESCAPE = re.compile('[&<"\t\n\r]').search


def _attr(value: str) -> str:
    if _NEEDS_ESCAPE(value) is None:
        return value
    for char, ref in _ATTR_ESCAPES:
        value = value.replace(char, ref)
    return value


# the records hold floats (their constructors convert), spelled by repr
def _shape_attr(shape) -> str:
    return " ".join(f"{x!r},{y!r}" for x, y in shape)


def serialize_sumo_xml(net: RoadNetwork) -> tuple[str, str]:
    """(nodes document, edges document) in SUMO plain XML."""
    nodes_lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<nodes>"]
    for n in net.nodes:
        nodes_lines.append(
            f'    <node id="{_attr(n.id)}" x="{n.x!r}" y="{n.y!r}" '
            f'type="{_attr(n.node_type)}"/>')
    nodes_lines.append("</nodes>")

    # ingest_osm shares each point tuple among the edges through its node:
    # spell it once, keyed by identity, as (0.0, y) == (-0.0, y) spell apart
    points = {id(p): p for e in net.edges for p in e.shape}
    spelled = {key: f"{x!r},{y!r}" for key, (x, y) in points.items()}
    edges_lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<edges>"]
    for e in net.edges:
        shape = " ".join([spelled[id(p)] for p in e.shape])
        shape = f' shape="{shape}"' if shape else ""
        edges_lines.append(
            f'    <edge id="{_attr(e.id)}" from="{_attr(e.from_node)}" '
            f'to="{_attr(e.to_node)}" '
            f'numLanes="{e.num_lanes}" speed="{e.speed!r}" '
            f'spreadType="{_attr(e.spread_type)}"{shape}/>')
    edges_lines.append("</edges>")
    return "\n".join(nodes_lines) + "\n", "\n".join(edges_lines) + "\n"


def write_sumo_xml(net: RoadNetwork, prefix: str) -> tuple[str, str]:
    """Write <prefix>.nod.xml and <prefix>.edg.xml; return their paths."""
    paths = (prefix + ".nod.xml", prefix + ".edg.xml")
    for path, doc in zip(paths, serialize_sumo_xml(net)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
    return paths


def parse_sumo_xml(xml_nodes: str, xml_edges: str) -> RoadNetwork:
    """Parse and validate a nodes/edges document pair.

    Raises NetworkValidationError carrying every violation found.
    """
    errors, nodes_root, edges_root = _read_documents(xml_nodes, xml_edges)
    if errors:
        raise NetworkValidationError(errors)
    nodes = tuple(
        Node(id=el.get("id"), x=float(el.get("x")), y=float(el.get("y")),
             node_type=el.get("type", "priority"))
        for el in nodes_root)
    edges = []
    for el in edges_root:
        # the edge's own shape, else its first lane's (valid lanes have one)
        shape = el.get("shape") or next((c.get("shape") for c in el), "")
        edges.append(Edge(
            id=el.get("id"), from_node=el.get("from"), to_node=el.get("to"),
            num_lanes=int(el.get("numLanes", "1")),
            speed=float(el.get("speed", str(DEFAULT_SPEED))),
            spread_type=el.get("spreadType", "right"),
            shape=_parse_shape(shape)))
    return RoadNetwork(nodes=nodes, edges=edges)


# ---------------------------------------------------------------------------
# statistics

def _dijkstra(graph: list, source: int) -> tuple[list[float], float]:
    """Shortest distances from source over graph, a list of (node, length)
    pairs per node, and the largest finite one. An entry whose distance was
    lowered after it was pushed is stale and skipped. Pops come in distance
    order, so the last current one is the farthest node reachable."""
    dist = [math.inf] * len(graph)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        farthest = d
        for to, length in graph[v]:
            alt = d + length
            if alt < dist[to]:
                dist[to] = alt
                heapq.heappush(heap, (alt, to))
    return dist, farthest


def network_stats(net: RoadNetwork) -> NetworkStats:
    """Lane/edge totals and the longest shortest-path route length.

    route_length is computed on the directed graph restricted to the largest
    weakly connected component, where parallel edges count with the shorter
    length. Of several largest components, the first in node order wins:
    net.nodes, then the endpoints only edges name, in edge order.

    route_length is the largest eccentricity ecc(v), the distance from v to
    the farthest node it reaches, found without a Dijkstra from every node
    (BoundingDiameters, Takes and Kosters 2011). Each node v keeps bounds
    0 <= lb[v] <= ecc(v) <= ub[v] <= inf. A source u runs a forward and a
    backward Dijkstra, giving ecc(u), d(u, v) and d(v, u). A node v that u
    reaches and that reaches u reaches the same nodes as u, so ecc(v) <=
    d(v, u) + ecc(u), ecc(v) >= d(v, u) and ecc(v) >= ecc(u) - d(u, v). The
    sources alternate between the largest ub and the smallest lb (a central
    node, whose small ecc tightens the ub of its whole component), of equal
    ones the lowest index. The search stops once the largest ub left, scaled
    by 1 + 1e-9, is below the best ecc found: the factor covers float
    rounding in a bound, so whatever the lb chose, the value returned is the
    farthest distance of a Dijkstra that ran from the arg-max source.
    """
    adj = net.lane_graph.neighbors
    comp: set = set()
    seen: set = set()
    for start in adj:
        if start not in seen:
            found, stack = {start}, [start]
            while stack:
                new = adj[stack.pop()] - found
                found |= new
                stack += new
            seen |= found
            if len(found) > len(comp):
                comp = found

    # the component's nodes in node order as 0..n-1, and per node the
    # (successor, shortest edge length) pairs and the reversed pairs
    index = {v: i for i, v in enumerate(v for v in adj if v in comp)}
    shortest: list[dict[int, float]] = [{} for _ in index]
    edge_length = net.lane_graph.edge_length
    for e in net.edges:
        if e.from_node in comp:
            out, to = shortest[index[e.from_node]], index[e.to_node]
            length = edge_length[e.id]
            if to not in out or out[to] > length:
                out[to] = length
    succ = [tuple(out.items()) for out in shortest]
    pred: list[list] = [[] for _ in index]
    for v, out in enumerate(succ):
        for to, length in out:
            pred[to].append((v, length))

    n = len(succ)
    ub = [math.inf] * n
    lb = [0.0] * n
    route_length = 0.0
    central = False
    while n:
        # of equal bounds the lowest index; a done node has ub -inf, lb inf
        u = max(range(n), key=ub.__getitem__)
        if ub[u] * (1 + 1e-9) < route_length:
            break
        if central:
            u = min(range(n), key=lb.__getitem__)
        central = not central
        fwd, ecc = _dijkstra(succ, u)
        route_length = max(route_length, ecc)
        bwd, _ = _dijkstra(pred, u)
        for v in range(n):
            if fwd[v] < math.inf and bwd[v] < math.inf:
                ub[v] = min(ub[v], bwd[v] + ecc)
                lb[v] = max(lb[v], bwd[v], ecc - fwd[v])
        ub[u], lb[u] = -math.inf, math.inf
    return NetworkStats(total_lanes=sum(e.num_lanes for e in net.edges),
                        total_edges=len(net.edges), route_length=route_length)


def junction_distance(net: RoadNetwork) -> float:
    """Mean pairwise Euclidean distance between junction nodes (degree >= 3
    over all edge endpoints), in node order; 0.0 with fewer than two."""
    degree: dict[str, int] = {}
    for e in net.edges:
        for nid in (e.from_node, e.to_node):
            degree[nid] = degree.get(nid, 0) + 1
    junctions = [(n.x, n.y) for n in net.nodes if degree.get(n.id, 0) >= 3]
    ds = [math.dist(a, b)
          for i, a in enumerate(junctions) for b in junctions[i + 1:]]
    return fold_sum(ds) / len(ds) if ds else 0.0


# ---------------------------------------------------------------------------
# layout blueprint builder (deterministic network geometry per road layout)

def _seg(road: RoadDescription, i: int):
    return road.segments[i % len(road.segments)]


def _chain(road: RoadDescription, bend_deg: float = 0.0) -> RoadNetwork:
    nodes = [Node("n0", 0.0, 0.0)]
    edges = []
    x, y, heading = 0.0, 0.0, 0.0
    for i, seg in enumerate(road.segments):
        heading += math.radians(bend_deg)
        x += seg.length * math.cos(heading)
        y += seg.length * math.sin(heading)
        nodes.append(Node(f"n{i + 1}", x, y))
        if seg.lanes_forward >= 1:
            edges.append(Edge(f"e{i}f", f"n{i}", f"n{i + 1}",
                              num_lanes=seg.lanes_forward,
                              speed=seg.speed_limit))
        if seg.lanes_backward >= 1:
            edges.append(Edge(f"e{i}b", f"n{i + 1}", f"n{i}",
                              num_lanes=seg.lanes_backward,
                              speed=seg.speed_limit))
    return RoadNetwork(nodes, edges)


def _star(road: RoadDescription, n_arms: int, center_type: str) -> RoadNetwork:
    nodes = [Node("c", 0.0, 0.0, node_type=center_type)]
    edges = []
    for i in range(n_arms):
        seg = _seg(road, i)
        ang = 2 * math.pi * i / n_arms
        nid = f"a{i}"
        nodes.append(Node(nid, seg.length * math.cos(ang),
                          seg.length * math.sin(ang)))
        if seg.lanes_forward >= 1:
            edges.append(Edge(f"in{i}", nid, "c", num_lanes=seg.lanes_forward,
                              speed=seg.speed_limit))
        if seg.lanes_backward >= 1:
            edges.append(Edge(f"out{i}", "c", nid, num_lanes=seg.lanes_backward,
                              speed=seg.speed_limit))
    return RoadNetwork(nodes, edges)


def _merge(road: RoadDescription) -> RoadNetwork:
    s0, s1 = _seg(road, 0), _seg(road, 1)
    nodes = (Node("a", -s0.length, s0.length * 0.3),
             Node("b", -s1.length, -s1.length * 0.3),
             Node("m", 0.0, 0.0),
             Node("d", s0.length, 0.0))
    edges = (Edge("ramp_a", "a", "m", num_lanes=s0.lanes_forward or 1,
                  speed=s0.speed_limit),
             Edge("ramp_b", "b", "m", num_lanes=s1.lanes_forward or 1,
                  speed=s1.speed_limit),
             Edge("main", "m", "d",
                  num_lanes=max(s0.lanes_forward or 1, s1.lanes_forward or 1),
                  speed=s0.speed_limit))
    return RoadNetwork(nodes, edges)


def _roundabout(road: RoadDescription) -> RoadNetwork:
    seg = _seg(road, 0)
    r = max(12.0, seg.length * 0.1)
    nodes, edges = [], []
    for i in range(4):
        ang = 2 * math.pi * i / 4
        nodes.append(Node(f"r{i}", r * math.cos(ang), r * math.sin(ang)))
    for i in range(4):
        edges.append(Edge(f"ring{i}", f"r{i}", f"r{(i + 1) % 4}",
                          num_lanes=max(1, seg.lanes_forward),
                          speed=seg.speed_limit))
    for i in range(4):
        s = _seg(road, i)
        ang = 2 * math.pi * i / 4
        nid = f"x{i}"
        d = r + s.length
        nodes.append(Node(nid, d * math.cos(ang), d * math.sin(ang)))
        edges.append(Edge(f"app{i}", nid, f"r{i}",
                          num_lanes=max(1, s.lanes_forward),
                          speed=s.speed_limit))
        edges.append(Edge(f"exit{i}", f"r{i}", nid,
                          num_lanes=max(1, s.lanes_backward or s.lanes_forward),
                          speed=s.speed_limit))
    return RoadNetwork(nodes, edges)


def build_network_blueprint(road: RoadDescription) -> RoadNetwork:
    """Deterministic geometry for each supported road layout."""
    if road.layout == "Straight":
        return _chain(road)
    if road.layout == "Curve":
        return _chain(road, bend_deg=25.0)
    if road.layout == "TJunction":
        return _star(road, 3, "priority")
    if road.layout == "CrossIntersection":
        return _star(road, 4, "traffic_light")
    if road.layout == "Merge":
        return _merge(road)
    if road.layout == "Roundabout":
        return _roundabout(road)
    raise NetworkError(f"unsupported layout: {road.layout}")


# ---------------------------------------------------------------------------
# provider-backed compilation

NET_RESPONSE_SEPARATOR = "=== EDGES ==="


def _parse_net_response(text: str) -> RoadNetwork:
    xml_nodes, separator, xml_edges = text.partition(NET_RESPONSE_SEPARATOR)
    if not separator:
        raise NetworkValidationError([ValidationError(
            "MalformedDocument", "document", "missing nodes/edges separator")])
    return parse_sumo_xml(xml_nodes.strip(), xml_edges.strip())


def compile_network(road: RoadDescription, kb, provider,
                    seed: int = 0) -> RoadNetwork:
    """Compile a road description into a validated network via the provider.

    The provider is prompted for SUMO plain-XML nodes/edges documents, and
    its answer must pass parse_sumo_xml. A rejected answer is re-prompted by
    interpreter.complete_until_valid, which raises UnparseableAfterRetries
    carrying the last NetworkValidationError once its retries run out.
    """
    from .interpreter import complete_until_valid, render_net_prompt

    return complete_until_valid(provider, render_net_prompt(kb, road, seed),
                                _parse_net_response)


# ---------------------------------------------------------------------------
# OpenStreetMap ingestion

DRIVABLE_HIGHWAY = {
    "motorway", "trunk", "primary", "secondary", "tertiary", "unclassified",
    "residential", "living_street", "service", "motorway_link", "trunk_link",
    "primary_link", "secondary_link", "tertiary_link",
}

_EARTH_RADIUS = 6_371_000.0

OVERPASS_URL = "https://overpass-api.de/api/interpreter"


def _coordinate(text) -> float:
    """An OSM lat or lon attribute; NaN when absent or unparseable, which
    fails only a node that a drivable way uses."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _project(lat: float, lon: float, lat0: float, lon0: float):
    x = _EARTH_RADIUS * math.radians(lon - lon0) * math.cos(math.radians(lat0))
    y = _EARTH_RADIUS * math.radians(lat - lat0)
    return x, y


def fetch_osm_extract(bbox: GpsBoundingBox, cache_dir: str) -> str:
    """Fetch an OSM XML extract over Overpass, with on-disk caching."""
    import hashlib
    import os
    import tempfile
    import urllib.parse
    import urllib.request

    key = hashlib.sha256(
        f"{bbox.min_lat},{bbox.min_lon},{bbox.max_lat},{bbox.max_lon}"
        .encode()).hexdigest()[:16]
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"osm-{key}.xml")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    query = (f"[out:xml];(way[highway]({bbox.min_lat},{bbox.min_lon},"
             f"{bbox.max_lat},{bbox.max_lon}););(._;>;);out body;")
    body = urllib.parse.urlencode({"data": query}).encode()
    try:
        with urllib.request.urlopen(OVERPASS_URL, data=body,
                                    timeout=60) as resp:
            text = resp.read().decode(
                resp.headers.get_content_charset() or "utf-8")
    except Exception as exc:
        raise FetchFailed(str(exc))
    # a failed write must not leave a cache entry that later calls return
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f".osm-{key}-",
                               suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return text


def ingest_osm(bbox: GpsBoundingBox, source: str) -> RoadNetwork:
    """Build a RoadNetwork from an OSM XML extract.

    Drivable ways are split at nodes shared between ways; two-way streets
    become a directed edge pair, a oneway=-1 way only its reverse edge.
    Coordinates are projected to local meters (equirectangular about the
    bbox center).
    """
    lat0 = (bbox.min_lat + bbox.max_lat) / 2.0
    lon0 = (bbox.min_lon + bbox.max_lon) / 2.0
    try:
        root = ET.fromstring(source)
    except ET.ParseError as exc:
        raise EmptyExtract(f"unparseable extract: {exc}")

    coords = {}
    for el in root.findall("node"):
        coords[el.get("id")] = _project(_coordinate(el.get("lat")),
                                        _coordinate(el.get("lon")), lat0, lon0)

    ways = []
    node_use: dict[str, int] = {}
    for el in root.findall("way"):
        tags = {t.get("k"): t.get("v") for t in el.findall("tag")}
        if tags.get("highway") not in DRIVABLE_HIGHWAY:
            continue
        refs = [nd.get("ref") for nd in el.findall("nd")
                if nd.get("ref") in coords]
        if len(refs) < 2:
            continue
        ways.append((el.get("id"), refs, tags))
        for ref in set(refs):
            node_use[ref] = node_use.get(ref, 0) + 1

    if not ways:
        raise EmptyExtract("no drivable highway ways in extract")
    # a non-finite coordinate fails as its node, before the axes carry it
    errors: list[ValidationError] = []
    for ref in dict.fromkeys(ref for _, refs, _ in ways for ref in refs):
        for attr, value in zip("xy", coords[ref]):
            _number_errors("node", attr, value, value, errors)
    if errors:
        raise NetworkValidationError(errors)

    nodes: dict[str, Node] = {}
    edges: list[Edge] = []
    for way_id, refs, tags in ways:
        lanes = 1
        if tags.get("lanes"):
            try:
                lanes = max(1, int(tags["lanes"].split(";")[0]))
            except ValueError:
                pass
        speed = DEFAULT_SPEED
        if tags.get("maxspeed"):
            try:
                speed = float(tags["maxspeed"].split()[0]) / 3.6
            except (ValueError, IndexError):  # blank counts as absent
                pass
        # "" runs along the node order, "r" against it; motorways and
        # roundabouts are one-way unless tagged oneway=no
        oneway = tags.get("oneway")
        if oneway == "-1":
            directions = ("r",)
        elif oneway in ("yes", "true", "1") or oneway != "no" and (
                tags.get("highway") == "motorway" or
                tags.get("junction") == "roundabout"):
            directions = ("",)
        else:
            directions = ("", "r")

        # split the way at junction nodes (shared between >= 2 ways)
        cut = [0]
        for i in range(1, len(refs) - 1):
            if node_use.get(refs[i], 0) >= 2:
                cut.append(i)
        cut.append(len(refs) - 1)
        for k in range(len(cut) - 1):
            part = refs[cut[k]:cut[k + 1] + 1]
            a, b = part[0], part[-1]
            if a == b:
                continue
            for ref in (a, b):
                if ref not in nodes:
                    x, y = coords[ref]
                    nodes[ref] = Node(f"osm{ref}", x, y)
            shape = tuple(coords[r] for r in part)   # float pairs already
            for suffix in directions:
                src, dst, axis = (b, a, shape[::-1]) if suffix else \
                    (a, b, shape)
                edges.append(_typed(
                    Edge, id=f"w{way_id}s{k}{suffix}", from_node=f"osm{src}",
                    to_node=f"osm{dst}", num_lanes=lanes, speed=speed,
                    spread_type="right", shape=axis))

    net = RoadNetwork(nodes.values(), edges)
    errors = network_errors(net)
    if errors:
        raise NetworkValidationError(errors)
    return net
