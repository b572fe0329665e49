"""Road-network compilation: SUMO plain-XML nodes/edges, validation, stats, OSM.

Networks are immutable value graphs. XML serialization is netconvert-compatible
(node: id/x/y/type, edge: id/from/to/numLanes/speed/spreadType with optional
lane children carrying index/shape).
"""
from __future__ import annotations

import bisect
import functools
import heapq
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Optional

from .ir import GpsBoundingBox, RoadDescription

DEFAULT_LANE_WIDTH = 3.2
DEFAULT_SPEED = 13.89

NODE_TYPES = ("priority", "traffic_light", "unregulated")
SPREAD_TYPES = ("right", "center", "roadCenter")

_NODE_ATTRS = {"id", "x", "y", "type"}
_EDGE_ATTRS = {"id", "from", "to", "numLanes", "speed", "spreadType"}
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


class CompileFailed(NetworkError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("network compilation failed: "
                         + "; ".join(str(e) for e in self.errors))


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
class Lane:
    index: int
    shape: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "shape",
                           tuple((float(x), float(y)) for x, y in self.shape))


@dataclass(frozen=True)
class Edge:
    id: str
    from_node: str
    to_node: str
    num_lanes: int = 1
    speed: float = DEFAULT_SPEED
    spread_type: str = "right"
    lanes: tuple[Lane, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "num_lanes", int(self.num_lanes))
        object.__setattr__(self, "speed", float(self.speed))
        object.__setattr__(self, "lanes", tuple(self.lanes))


@dataclass(frozen=True)
class Connection:
    from_edge: str
    to_edge: str
    from_lane: int
    to_lane: int


@dataclass(frozen=True)
class RoadNetwork:
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    connections: tuple[Connection, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "connections", tuple(self.connections))

    @functools.cached_property
    def lane_graph(self) -> LaneGraph:
        """The compiled lane geometry, built on first use and kept."""
        return LaneGraph(self)

    @functools.cached_property
    def stats(self) -> NetworkStats:
        """network_stats of this network, computed on first use and kept."""
        return network_stats(self)

    @functools.cached_property
    def sumo_xml(self) -> tuple[str, str]:
        """serialize_sumo_xml of this network, computed on first use and
        kept."""
        return serialize_sumo_xml(self)


@dataclass(frozen=True)
class NetworkStats:
    total_lanes: int
    total_edges: int
    route_length: float


# ---------------------------------------------------------------------------
# geometry helpers

def _polyline_length(points) -> float:
    return sum(math.dist(points[i], points[i + 1])
               for i in range(len(points) - 1))


def edge_polyline(net: RoadNetwork, edge: Edge) -> tuple[tuple[float, float], ...]:
    """Edge axis geometry: lane-0 shape when present, else node-to-node."""
    return _edge_axis(edge, net.lane_graph.nodes)


def _edge_axis(edge: Edge, nodes: dict) -> tuple[tuple[float, float], ...]:
    """edge_polyline with nodes (id -> Node) as the node lookup."""
    if edge.lanes and len(edge.lanes[0].shape) >= 2:
        return edge.lanes[0].shape
    a, b = nodes[edge.from_node], nodes[edge.to_node]
    return ((a.x, a.y), (b.x, b.y))


def lane_centerline(net: RoadNetwork, edge: Edge, lane_index: int,
                    lane_width: float = DEFAULT_LANE_WIDTH):
    """Centerline polyline of one lane, offset from the edge axis.

    spreadType "right" puts lanes on the right of the axis (lane 0 nearest),
    "center"/"roadCenter" center the lane band on the axis.
    """
    return _offset_axis(edge_polyline(net, edge), edge, lane_index,
                        lane_width)


def _offset_axis(axis, edge: Edge, lane_index: int, lane_width: float):
    if edge.spread_type == "right":
        off = (lane_index + 0.5) * lane_width
    else:
        off = (lane_index - (edge.num_lanes - 1) / 2.0) * lane_width
    out = []
    for i, (x, y) in enumerate(axis):
        j = min(i, len(axis) - 2)
        dx = axis[j + 1][0] - axis[j][0]
        dy = axis[j + 1][1] - axis[j][1]
        norm = math.hypot(dx, dy) or 1.0
        # right normal of the travel direction
        rx, ry = dy / norm, -dx / norm
        out.append((x + rx * off, y + ry * off))
    return tuple(out)


def point_along(polyline, s: float):
    """(x, y, heading_deg) at arc length s along a polyline, clamped to ends."""
    return LanePath.measure(polyline).point_at(s)


@dataclass(frozen=True, slots=True)
class LanePath:
    """A polyline measured once, for repeated point lookups."""
    points: tuple
    cum: tuple      # arc length at each vertex, summed left to right
    length: float   # _polyline_length(points)

    @classmethod
    def measure(cls, points) -> LanePath:
        points = tuple(points)
        cum = [0.0]
        for i in range(len(points) - 1):
            cum.append(cum[-1] + math.dist(points[i], points[i + 1]))
        return cls(points, tuple(cum), _polyline_length(points))

    def point_at(self, s: float):
        """(x, y, heading_deg) at arc length s, clamped to the ends.

        The segment is the first whose end lies at or beyond s (the last one
        otherwise), found by bisection over the vertex arc lengths.
        """
        p = self.points
        s = min(max(s, 0.0), self.length)
        i = bisect.bisect_left(self.cum, s, 1, len(p) - 1) - 1
        (x0, y0), (x1, y1) = p[i], p[i + 1]
        seg = math.dist(p[i], p[i + 1])
        t = 0.0 if seg == 0 else (s - self.cum[i]) / seg
        heading = math.degrees(math.atan2(y1 - y0, x1 - x0))
        if heading <= -180.0:
            heading += 360.0
        return x0 + t * (x1 - x0), y0 + t * (y1 - y0), heading


class LaneGraph:
    """Lane geometry and topology of one RoadNetwork, compiled once.

    Read it as ``net.lane_graph``. In every dict keyed by a node id, an edge
    id or a lane, the first element of the network with that key wins.
    """

    def __init__(self, net: RoadNetwork):
        self.nodes: dict[str, Node] = {}
        self.edges: dict[str, Edge] = {}
        for n in net.nodes:
            self.nodes.setdefault(n.id, n)
        for e in net.edges:
            self.edges.setdefault(e.id, e)
        # (edge, lane index, path) for every lane, in network order
        inventory = []
        self.lanes: dict[tuple[str, int], LanePath] = {}
        self.edge_length: dict[str, float] = {}
        for e in net.edges:
            axis = _edge_axis(e, self.nodes)
            self.edge_length.setdefault(e.id, _polyline_length(axis))
            for li in range(e.num_lanes):
                path = LanePath.measure(
                    _offset_axis(axis, e, li, DEFAULT_LANE_WIDTH))
                inventory.append((e, li, path))
                self.lanes.setdefault((e.id, li), path)
        self.inventory = tuple(inventory)

        # successors: the connected edges, else every edge leaving the end
        # node that does not lead straight back
        connected: dict[str, set] = {}
        for c in net.connections:
            connected.setdefault(c.from_edge, set()).add(c.to_edge)
        leaving: dict[str, list] = {}
        for e in net.edges:
            leaving.setdefault(e.from_node, []).append(e)
        self.successors: dict[str, tuple[str, ...]] = {}
        for eid, e in self.edges.items():
            out = sorted(connected.get(eid, ()))
            if not out:
                out = sorted(o.id for o in leaving.get(e.to_node, ())
                             if o.to_node != e.from_node)
            self.successors[eid] = tuple(out)


def derive_connections(nodes, edges) -> tuple[Connection, ...]:
    """Canonical lane-to-lane connections: at every shared node, connect each
    incoming edge to each outgoing edge (excluding direct U-turns), pairing
    lanes by index up to the smaller lane count."""
    leaving: dict[str, list] = {}
    for e in edges:
        leaving.setdefault(e.from_node, []).append(e)
    out = []
    for e_in in edges:
        for e_out in leaving.get(e_in.to_node, ()):
            if e_in.id == e_out.id:
                continue
            if e_out.to_node == e_in.from_node and e_in.from_node != e_in.to_node:
                continue  # skip U-turn back along the same corridor
            for li in range(min(e_in.num_lanes, e_out.num_lanes)):
                out.append(Connection(e_in.id, e_out.id, li, li))
    return tuple(out)


# ---------------------------------------------------------------------------
# validation

def _fmt(v: float) -> str:
    return repr(float(v))


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


def validate_network(xml_nodes: str, xml_edges: str) -> list[ValidationError]:
    """All schema and referential violations in a nodes/edges document pair.

    Empty result iff both documents are valid and mutually consistent.
    """
    errors: list[ValidationError] = []
    nodes_root = _validate_root(xml_nodes, "nodes", errors)
    edges_root = _validate_root(xml_edges, "edges", errors)
    if nodes_root is None or edges_root is None:
        return errors

    node_ids: set[str] = set()
    for el in nodes_root:
        if el.tag != "node":
            errors.append(ValidationError("UndeclaredAttribute", "node",
                                          f"unexpected element <{el.tag}>"))
            continue
        for attr in el.attrib:
            if attr not in _NODE_ATTRS:
                errors.append(ValidationError("UndeclaredAttribute", "node", attr))
        for attr in ("id", "x", "y"):
            if attr not in el.attrib:
                errors.append(ValidationError("MissingAttribute", "node", attr))
        nid = el.get("id")
        if nid is not None:
            if "#" in nid:
                errors.append(ValidationError("MalformedKeyword", "node", nid))
            if nid in node_ids:
                errors.append(ValidationError("DuplicateId", "node", nid))
            node_ids.add(nid)
        ntype = el.get("type")
        if ntype is not None and ntype not in NODE_TYPES:
            errors.append(ValidationError("InvalidEnum", "node", f"type={ntype}"))
        for attr in ("x", "y"):
            val = el.get(attr)
            if val is not None:
                try:
                    float(val)
                except ValueError:
                    errors.append(ValidationError("MalformedKeyword", "node",
                                                  f"{attr}={val}"))

    edge_ids: set[str] = set()
    n_edges = 0
    for el in edges_root:
        if el.tag != "edge":
            errors.append(ValidationError("UndeclaredAttribute", "edge",
                                          f"unexpected element <{el.tag}>"))
            continue
        n_edges += 1
        for attr in el.attrib:
            if attr not in _EDGE_ATTRS:
                errors.append(ValidationError("UndeclaredAttribute", "edge", attr))
        for attr in ("id", "from", "to"):
            if attr not in el.attrib:
                errors.append(ValidationError("MissingAttribute", "edge", attr))
        eid = el.get("id")
        if eid is not None:
            if "#" in eid:
                errors.append(ValidationError("MalformedKeyword", "edge", eid))
            if eid in edge_ids:
                errors.append(ValidationError("DuplicateId", "edge", eid))
            edge_ids.add(eid)
        for attr in ("from", "to"):
            ref = el.get(attr)
            if ref is not None and ref not in node_ids:
                errors.append(ValidationError("UnknownNode", "edge",
                                              f"{attr}={ref}"))
        spread = el.get("spreadType")
        if spread is not None and spread not in SPREAD_TYPES:
            errors.append(ValidationError("InvalidEnum", "edge",
                                          f"spreadType={spread}"))
        num_lanes = el.get("numLanes")
        if num_lanes is not None:
            try:
                if int(num_lanes) < 1:
                    errors.append(ValidationError("InvalidEnum", "edge",
                                                  f"numLanes={num_lanes}"))
            except ValueError:
                errors.append(ValidationError("MalformedKeyword", "edge",
                                              f"numLanes={num_lanes}"))
        speed = el.get("speed")
        if speed is not None:
            try:
                if float(speed) <= 0:
                    errors.append(ValidationError("InvalidEnum", "edge",
                                                  f"speed={speed}"))
            except ValueError:
                errors.append(ValidationError("MalformedKeyword", "edge",
                                              f"speed={speed}"))
        for child in el:
            if child.tag != "lane":
                errors.append(ValidationError("UndeclaredAttribute", "edge",
                                              f"unexpected child <{child.tag}>"))
                continue
            for attr in child.attrib:
                if attr not in _LANE_ATTRS:
                    errors.append(ValidationError("UndeclaredAttribute", "lane",
                                                  attr))
            if "shape" not in child.attrib:
                errors.append(ValidationError("MissingAttribute", "lane", "shape"))
            else:
                pts = _parse_shape(child.get("shape"))
                if pts is None or len(pts) < 2:
                    errors.append(ValidationError("MalformedKeyword", "lane",
                                                  f"shape={child.get('shape')}"))
            if "index" not in child.attrib:
                errors.append(ValidationError("MissingAttribute", "lane", "index"))

    if n_edges == 0:
        errors.append(ValidationError("EmptyNetwork", "document", "no edges"))
    return errors


def _parse_shape(text: str):
    try:
        pts = []
        for chunk in text.split():
            x, y = chunk.split(",")
            pts.append((float(x), float(y)))
        return pts
    except (ValueError, AttributeError):
        return None


# ---------------------------------------------------------------------------
# XML serialization

# '&' goes first so later references are not escaped again; whitespace other
# than a space must be a character reference, or parsers normalize it to a
# space inside attribute values
_ATTR_ESCAPES = (("&", "&amp;"), ("<", "&lt;"), ('"', "&quot;"),
                 ("\t", "&#9;"), ("\n", "&#10;"), ("\r", "&#13;"))


def _attr(value: str) -> str:
    for char, ref in _ATTR_ESCAPES:
        value = value.replace(char, ref)
    return value


def serialize_sumo_xml(net: RoadNetwork) -> tuple[str, str]:
    """(nodes document, edges document) in SUMO plain XML."""
    nodes_lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<nodes>"]
    for n in net.nodes:
        nodes_lines.append(
            f'    <node id="{_attr(n.id)}" x="{_fmt(n.x)}" y="{_fmt(n.y)}" '
            f'type="{_attr(n.node_type)}"/>')
    nodes_lines.append("</nodes>")

    edges_lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<edges>"]
    for e in net.edges:
        head = (f'    <edge id="{_attr(e.id)}" from="{_attr(e.from_node)}" '
                f'to="{_attr(e.to_node)}" '
                f'numLanes="{e.num_lanes}" speed="{_fmt(e.speed)}" '
                f'spreadType="{_attr(e.spread_type)}"')
        if not e.lanes:
            edges_lines.append(head + "/>")
        else:
            edges_lines.append(head + ">")
            for lane in e.lanes:
                shape = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in lane.shape)
                edges_lines.append(
                    f'        <lane index="{lane.index}" shape="{shape}"/>')
            edges_lines.append("    </edge>")
    edges_lines.append("</edges>")
    return "\n".join(nodes_lines) + "\n", "\n".join(edges_lines) + "\n"


def write_sumo_xml(net: RoadNetwork, prefix: str) -> tuple[str, str]:
    """Write <prefix>.nod.xml and <prefix>.edg.xml; return their paths."""
    paths = (prefix + ".nod.xml", prefix + ".edg.xml")
    for path, doc in zip(paths, net.sumo_xml):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
    return paths


def parse_sumo_xml(xml_nodes: str, xml_edges: str) -> RoadNetwork:
    """Parse and validate a nodes/edges document pair.

    Raises NetworkValidationError carrying every violation found.
    """
    errors = validate_network(xml_nodes, xml_edges)
    if errors:
        raise NetworkValidationError(errors)
    nodes = tuple(
        Node(id=el.get("id"), x=float(el.get("x")), y=float(el.get("y")),
             node_type=el.get("type", "priority"))
        for el in ET.fromstring(xml_nodes))
    edges = []
    for el in ET.fromstring(xml_edges):
        lanes = tuple(
            Lane(index=int(c.get("index")),
                 shape=tuple(_parse_shape(c.get("shape"))))
            for c in el)
        edges.append(Edge(
            id=el.get("id"), from_node=el.get("from"), to_node=el.get("to"),
            num_lanes=int(el.get("numLanes", "1")),
            speed=float(el.get("speed", str(DEFAULT_SPEED))),
            spread_type=el.get("spreadType", "right"),
            lanes=lanes))
    edges = tuple(edges)
    return RoadNetwork(nodes=nodes, edges=edges,
                       connections=derive_connections(nodes, edges))


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
    the farthest node it reaches, found without a Dijkstra from every node.
    Each node v keeps an upper bound ub[v] >= ecc(v), infinite at first. The
    node with the largest bound runs a forward Dijkstra, giving ecc(u), and a
    backward one, giving d(v, u). A node that u reaches and that reaches u is
    in u's strongly connected component, so it reaches the same node set as
    u, and ecc(v) <= d(v, u) + ecc(u) bounds it. The search stops once the
    largest bound left, scaled by 1 + 1e-9, is below the best ecc found: the
    factor covers float rounding in a bound, so the value returned is always
    the farthest distance of a Dijkstra that ran from the arg-max source.
    """
    adj: dict[str, set] = {n.id: set() for n in net.nodes}
    for e in net.edges:
        adj.setdefault(e.from_node, set()).add(e.to_node)
        adj.setdefault(e.to_node, set()).add(e.from_node)

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
    route_length = 0.0
    while n:
        # the largest bound, of equal ones the lowest index; -inf marks done
        u = max(range(n), key=ub.__getitem__)
        if ub[u] * (1 + 1e-9) < route_length:
            break
        fwd, ecc = _dijkstra(succ, u)
        route_length = max(route_length, ecc)
        bwd, _ = _dijkstra(pred, u)
        for v in range(n):
            if fwd[v] < math.inf and bwd[v] < math.inf:
                ub[v] = min(ub[v], bwd[v] + ecc)
        ub[u] = -math.inf
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
    return sum(ds) / len(ds) if ds else 0.0


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
    return RoadNetwork(tuple(nodes), tuple(edges),
                       derive_connections(nodes, edges))


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
    return RoadNetwork(tuple(nodes), tuple(edges),
                       derive_connections(nodes, edges))


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
    return RoadNetwork(nodes, edges, derive_connections(nodes, edges))


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
    return RoadNetwork(tuple(nodes), tuple(edges),
                       derive_connections(nodes, edges))


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


def compile_network(road: RoadDescription, kb, provider,
                    max_retries: int = 3, seed: int = 0) -> RoadNetwork:
    """Compile a road description into a validated network via the provider.

    The provider is prompted for SUMO plain-XML nodes/edges documents; its
    output is validated against the failure taxonomy and re-prompted with the
    validation errors appended, up to max_retries times.
    """
    from .interpreter import render_net_prompt

    prompt = render_net_prompt(kb, road, seed)
    last_errors = None
    for _ in range(max_retries + 1):
        text = provider.complete(prompt)
        if NET_RESPONSE_SEPARATOR not in text:
            last_errors = [ValidationError("MalformedDocument", "document",
                                           "missing nodes/edges separator")]
        else:
            xml_nodes, xml_edges = text.split(NET_RESPONSE_SEPARATOR, 1)
            try:
                return parse_sumo_xml(xml_nodes.strip(), xml_edges.strip())
            except NetworkValidationError as exc:
                last_errors = exc.errors
        prompt = prompt + "\n### PREVIOUS ERRORS:\n" + \
            "\n".join(str(e) for e in last_errors)
    raise CompileFailed(last_errors)


# ---------------------------------------------------------------------------
# OpenStreetMap ingestion

DRIVABLE_HIGHWAY = {
    "motorway", "trunk", "primary", "secondary", "tertiary", "unclassified",
    "residential", "living_street", "service", "motorway_link", "trunk_link",
    "primary_link", "secondary_link", "tertiary_link",
}

_EARTH_RADIUS = 6_371_000.0

OVERPASS_URL = "https://overpass-api.de/api/interpreter"


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
    become a directed edge pair. Coordinates are projected to local meters
    (equirectangular about the bbox center).
    """
    lat0 = (bbox.min_lat + bbox.max_lat) / 2.0
    lon0 = (bbox.min_lon + bbox.max_lon) / 2.0
    try:
        root = ET.fromstring(source)
    except ET.ParseError as exc:
        raise EmptyExtract(f"unparseable extract: {exc}")

    coords = {}
    for el in root.findall("node"):
        coords[el.get("id")] = _project(float(el.get("lat")),
                                        float(el.get("lon")), lat0, lon0)

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
            except ValueError:
                pass
        oneway = tags.get("oneway") in ("yes", "true", "1") or \
            tags.get("highway") == "motorway"

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
            shape = tuple(coords[r] for r in part)
            eid = f"w{way_id}s{k}"
            lane_geom = tuple(Lane(index=i, shape=shape) for i in range(lanes))
            edges.append(Edge(eid, f"osm{a}", f"osm{b}", num_lanes=lanes,
                              speed=speed, spread_type="right",
                              lanes=lane_geom))
            if not oneway:
                rev = tuple(reversed(shape))
                edges.append(Edge(
                    eid + "r", f"osm{b}", f"osm{a}", num_lanes=lanes,
                    speed=speed, spread_type="right",
                    lanes=tuple(Lane(index=i, shape=rev)
                                for i in range(lanes))))

    node_tuple = tuple(nodes.values())
    edge_tuple = tuple(edges)
    net = RoadNetwork(node_tuple, edge_tuple,
                      derive_connections(node_tuple, edge_tuple))
    errors = validate_network(*net.sumo_xml)
    if errors:
        raise NetworkValidationError(errors)
    return net
