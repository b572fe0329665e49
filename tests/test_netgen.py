import math
import os
import random
import urllib.parse

import pytest
from hypothesis import example, given, settings, strategies as st

from scenarioforge import ir, netgen
from scenarioforge.interpreter import MockProvider, default_knowledge_base

from conftest import random_network
from oracles import (connections_brute_force, network_stats_networkx,
                     point_along_scan, stats_oracle, successors_scan)
from validator_cases import CASES, GOOD_EDGES, GOOD_NODES


def straight_road(length=100.0, fwd=2, back=0, speed=13.89):
    return ir.RoadDescription(
        layout="Straight", segments=(ir.RoadSegment(length, fwd, back, speed),))


# ---------------------------------------------------------------------------
# layout blueprints

def test_straight_blueprint():
    net = netgen.build_network_blueprint(straight_road())
    assert len(net.nodes) == 2
    assert len(net.edges) == 1
    edge = net.edges[0]
    assert edge.num_lanes == 2
    assert net.lane_graph.edge_length[edge.id] == pytest.approx(100.0)
    stats = netgen.network_stats(net)
    assert stats.total_lanes == 2
    assert stats.total_edges == 1
    assert stats.route_length == pytest.approx(100.0)
    assert netgen.junction_distance(net) == 0.0


def test_straight_two_way_has_edge_pair():
    net = netgen.build_network_blueprint(straight_road(fwd=1, back=1))
    assert len(net.edges) == 2
    dirs = {(e.from_node, e.to_node) for e in net.edges}
    assert dirs == {("n0", "n1"), ("n1", "n0")}


def test_cross_intersection_blueprint():
    road = ir.RoadDescription(
        layout="CrossIntersection",
        segments=(ir.RoadSegment(50.0, 1, 1, 13.89),))
    net = netgen.build_network_blueprint(road)
    assert len(net.nodes) == 5
    assert len(net.edges) == 8
    assert net.lane_graph.nodes["c"].node_type == "traffic_light"
    stats = netgen.network_stats(net)
    # arm -> center -> opposite arm
    assert stats.route_length == pytest.approx(100.0)
    # the single junction contributes no pairwise distance
    assert netgen.junction_distance(net) == 0.0


def test_tjunction_blueprint():
    road = ir.RoadDescription(
        layout="TJunction", segments=(ir.RoadSegment(40.0, 1, 1, 10.0),))
    net = netgen.build_network_blueprint(road)
    assert len(net.nodes) == 4
    assert len(net.edges) == 6
    assert net.lane_graph.nodes["c"].node_type == "priority"


def test_merge_blueprint_joins_two_ramps():
    road = ir.RoadDescription(
        layout="Merge", segments=(ir.RoadSegment(60.0, 1, 0, 20.0),
                                  ir.RoadSegment(80.0, 1, 0, 20.0)))
    net = netgen.build_network_blueprint(road)
    incoming = [e for e in net.edges if e.to_node == "m"]
    outgoing = [e for e in net.edges if e.from_node == "m"]
    assert len(incoming) == 2 and len(outgoing) == 1
    conns = {(c.from_edge, c.to_edge) for c in net.connections}
    assert ("ramp_a", "main") in conns and ("ramp_b", "main") in conns


def test_roundabout_blueprint_ring_is_cyclic():
    road = ir.RoadDescription(
        layout="Roundabout", segments=(ir.RoadSegment(100.0, 1, 1, 8.0),))
    net = netgen.build_network_blueprint(road)
    ring = [e for e in net.edges if e.id.startswith("ring")]
    assert len(ring) == 4
    conns = {(c.from_edge, c.to_edge) for c in net.connections}
    for i in range(4):
        assert (f"ring{i}", f"ring{(i + 1) % 4}") in conns


def test_every_layout_builds_a_valid_network():
    for layout in ir.ROAD_LAYOUTS:
        road = ir.RoadDescription(
            layout=layout, segments=(ir.RoadSegment(60.0, 1, 1, 13.89),))
        net = netgen.build_network_blueprint(road)
        xml_nodes, xml_edges = netgen.serialize_sumo_xml(net)
        assert netgen.validate_network(xml_nodes, xml_edges) == [], layout


def test_connections_skip_uturns():
    road = ir.RoadDescription(
        layout="Straight", segments=(ir.RoadSegment(50.0, 1, 1, 13.89),
                                     ir.RoadSegment(50.0, 1, 1, 13.89)))
    net = netgen.build_network_blueprint(road)
    conns = {(c.from_edge, c.to_edge) for c in net.connections}
    assert ("e0f", "e1f") in conns
    assert ("e1b", "e0b") in conns
    assert ("e0f", "e0b") not in conns
    assert ("e1b", "e1f") not in conns


def grid_network(size=6):
    """An OSM-style street grid: rows one-way with 3 lanes, columns two-way
    with 2 lanes, so every crossing joins 3 to 4 edges."""
    nodes = tuple(netgen.Node(f"g{r}_{c}", 100.0 * c, 100.0 * r)
                  for r in range(size) for c in range(size))
    edges = []
    for r in range(size):
        for c in range(size - 1):
            edges.append(netgen.Edge(f"r{r}_{c}", f"g{r}_{c}", f"g{r}_{c + 1}",
                                     num_lanes=3))
    for c in range(size):
        for r in range(size - 1):
            a, b = f"g{r}_{c}", f"g{r + 1}_{c}"
            edges.append(netgen.Edge(f"c{c}_{r}", a, b, num_lanes=2))
            edges.append(netgen.Edge(f"c{c}_{r}r", b, a, num_lanes=2))
    edges = tuple(edges)
    return netgen.RoadNetwork(nodes, edges,
                              netgen.derive_connections(nodes, edges))


def test_derive_connections_matches_brute_force(rng):
    nets = [random_network(rng) for _ in range(60)] + [grid_network()]
    for net in nets:
        got = [(c.from_edge, c.to_edge, c.from_lane, c.to_lane)
               for c in netgen.derive_connections(net.nodes, net.edges)]
        assert got == connections_brute_force(net.edges)
    assert len(nets[-1].connections) > 200


def test_lane_graph_matches_per_call_geometry(rng):
    for net in [random_network(rng) for _ in range(30)] + [grid_network()]:
        graph = net.lane_graph
        assert net.lane_graph is graph  # compiled once per network
        # first wins: a dict built from the reversed nodes keeps the first
        assert graph.nodes == {n.id: n for n in reversed(net.nodes)}
        assert [(e, li) for e, li, _ in graph.inventory] == \
            [(e, li) for e in net.edges for li in range(e.num_lanes)]
        for e, li, path in graph.inventory:
            line = netgen.lane_centerline(net, e, li)
            assert path.points == line
            assert path.length == netgen._polyline_length(line)
            assert graph.lanes[(e.id, li)] is path
        for e in net.edges:
            assert graph.edges[e.id] is e
            assert graph.edge_length[e.id] == \
                netgen._polyline_length(netgen.edge_polyline(net, e))
            assert list(graph.successors[e.id]) == successors_scan(net, e.id)


# ---------------------------------------------------------------------------
# geometry

def test_point_along_midpoint_and_heading():
    poly = ((0.0, 0.0), (100.0, 0.0))
    x, y, heading = netgen.point_along(poly, 50.0)
    assert (x, y) == (50.0, 0.0)
    assert heading == 0.0
    x, y, heading = netgen.point_along(tuple(reversed(poly)), 50.0)
    assert (x, y) == (50.0, 0.0)
    assert heading == 180.0


def test_point_along_clamps_to_ends():
    poly = ((0.0, 0.0), (10.0, 0.0))
    assert netgen.point_along(poly, -5.0)[:2] == (0.0, 0.0)
    assert netgen.point_along(poly, 50.0)[:2] == (10.0, 0.0)


def test_heading_range_open_at_minus_180():
    # due west travel must report +180, never -180
    poly = ((10.0, 0.0), (0.0, 0.0))
    _, _, heading = netgen.point_along(poly, 1.0)
    assert heading == 180.0
    assert -180.0 < heading <= 180.0


COORD = st.one_of(st.sampled_from([0.0, 1.0, -3.5]),
                  st.floats(-1e4, 1e4, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(COORD, COORD), min_size=2, max_size=6),
       data=st.data())
def test_lane_path_lookup_matches_linear_scan(points, data):
    path = netgen.LanePath.measure(points)
    # exact vertex arc lengths, the ends and beyond, and anywhere between
    s = data.draw(st.one_of(st.sampled_from(path.cum),
                            st.sampled_from([-1.0, path.length,
                                             path.length + 1.0]),
                            st.floats(0.0, max(path.length, 1.0))))
    assert path.point_at(s) == point_along_scan(points, s)
    assert netgen.point_along(points, s) == point_along_scan(points, s)


def test_lane_centerline_right_spread_offsets():
    net = netgen.build_network_blueprint(straight_road(fwd=2))
    edge = net.edges[0]
    lane0 = netgen.lane_centerline(net, edge, 0)
    lane1 = netgen.lane_centerline(net, edge, 1)
    # travel along +x: right side is -y
    assert lane0[0][1] == pytest.approx(-0.5 * netgen.DEFAULT_LANE_WIDTH)
    assert lane1[0][1] == pytest.approx(-1.5 * netgen.DEFAULT_LANE_WIDTH)


def test_lane_centerline_center_spread_is_symmetric():
    net = netgen.RoadNetwork(
        (netgen.Node("a", 0, 0), netgen.Node("b", 100, 0)),
        (netgen.Edge("e", "a", "b", num_lanes=2, spread_type="center"),))
    lane0 = netgen.lane_centerline(net, net.edges[0], 0)
    lane1 = netgen.lane_centerline(net, net.edges[0], 1)
    assert lane0[0][1] == pytest.approx(-lane1[0][1])


# ---------------------------------------------------------------------------
# validation taxonomy

@pytest.mark.parametrize("name,kind,bad_n,bad_e,good_n,good_e", CASES,
                         ids=[c[0] for c in CASES])
def test_validator_taxonomy(name, kind, bad_n, bad_e, good_n, good_e):
    errors = netgen.validate_network(bad_n, bad_e)
    assert kind in {e.kind for e in errors}, name
    assert netgen.validate_network(good_n, good_e) == []


def test_validator_clean_baseline():
    assert netgen.validate_network(GOOD_NODES, GOOD_EDGES) == []


def test_validator_unparseable_xml():
    errors = netgen.validate_network("<nodes><node", GOOD_EDGES)
    assert errors[0].kind == "MalformedDocument"


def test_parse_raises_with_all_errors():
    bad = GOOD_EDGES.replace('spreadType="right"',
                             'spreadType="left" function="internal"')
    with pytest.raises(netgen.NetworkValidationError) as exc:
        netgen.parse_sumo_xml(GOOD_NODES, bad)
    kinds = {e.kind for e in exc.value.errors}
    assert {"InvalidEnum", "UndeclaredAttribute"} <= kinds


# ---------------------------------------------------------------------------
# serialization round trip

def test_serialize_attribute_spelling():
    net = netgen.build_network_blueprint(straight_road())
    xml_nodes, xml_edges = netgen.serialize_sumo_xml(net)
    assert "<nodes>" in xml_nodes and 'type="priority"' in xml_nodes
    assert 'numLanes="2"' in xml_edges
    assert 'spreadType="right"' in xml_edges
    assert 'from="n0" to="n1"' in xml_edges


def test_round_trip_simple():
    net = netgen.build_network_blueprint(straight_road())
    xml_nodes, xml_edges = netgen.serialize_sumo_xml(net)
    assert netgen.parse_sumo_xml(xml_nodes, xml_edges) == net


def test_round_trip_random_networks():
    rng = random.Random(11)
    for _ in range(60):
        net = random_network(rng)
        xml_nodes, xml_edges = netgen.serialize_sumo_xml(net)
        parsed = netgen.parse_sumo_xml(xml_nodes, xml_edges)
        assert parsed == net
        # serialize again: byte identical
        assert netgen.serialize_sumo_xml(parsed) == (xml_nodes, xml_edges)


# ids mixing XML-special characters (attribute delimiters, entity and tag
# starts, whitespace that parsers normalize) with plain ones; '#' stays out
# because the validator rejects it as a malformed keyword
XML_SPECIAL_IDS = st.text(alphabet="&<>\"'\t\n\r ;n1", min_size=1,
                          max_size=6)


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(XML_SPECIAL_IDS, min_size=3, max_size=3, unique=True))
def test_round_trip_xml_special_ids(ids):
    a, b, edge_id = ids
    nodes = (netgen.Node(a, 0, 0), netgen.Node(b, 50, 0))
    edges = (netgen.Edge(edge_id, a, b, num_lanes=2),
             netgen.Edge(edge_id + "r", b, a))
    net = netgen.RoadNetwork(nodes, edges,
                             netgen.derive_connections(nodes, edges))
    xml_nodes, xml_edges = netgen.serialize_sumo_xml(net)
    assert netgen.parse_sumo_xml(xml_nodes, xml_edges) == net


def test_lane_shapes_survive_round_trip():
    lane = netgen.Lane(0, ((0.0, 0.0), (30.5, 4.25), (61.0, 0.0)))
    net = netgen.RoadNetwork(
        (netgen.Node("a", 0, 0), netgen.Node("b", 61, 0)),
        (netgen.Edge("e", "a", "b", num_lanes=1, lanes=(lane,)),))
    xml_nodes, xml_edges = netgen.serialize_sumo_xml(net)
    parsed = netgen.parse_sumo_xml(xml_nodes, xml_edges)
    assert parsed.edges[0].lanes[0].shape == lane.shape


# ---------------------------------------------------------------------------
# statistics

def test_stats_match_floyd_warshall_oracle():
    rng = random.Random(23)
    for _ in range(40):
        net = random_network(rng)
        stats = netgen.network_stats(net)
        lanes, edges, route, pjd = stats_oracle(net)
        assert stats.total_lanes == lanes
        assert stats.total_edges == edges
        assert stats.route_length == pytest.approx(route, abs=1e-9)
        assert netgen.junction_distance(net) == pytest.approx(pjd, abs=1e-9)


# few distinct values make coincident nodes and zero-length edges likely
STATS_COORD = st.one_of(st.sampled_from([0.0, 0.1, 2.7]),
                        st.floats(-500.0, 500.0, allow_nan=False))


@st.composite
def stats_networks(draw):
    """Networks with isolated nodes, equally large components, parallel and
    zero-length edges, self-loops, lane shapes, and endpoints that only
    lane-shaped edges name ("u0" to "u3"). In half of them every edge
    points to a later id or loops, so most nodes of a component cannot
    reach one another."""
    n_nodes = draw(st.integers(0, 9))
    nodes = tuple(netgen.Node(f"n{i}", draw(STATS_COORD), draw(STATS_COORD))
                  for i in range(n_nodes))
    ids = [n.id for n in nodes] + ["u0", "u1", "u2", "u3"]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids),
                                    st.sampled_from(ids)), max_size=14))
    if draw(st.booleans()):
        pairs = [tuple(sorted(pair, key=ids.index)) for pair in pairs]
    edges = []
    for k, (a, b) in enumerate(pairs):
        lanes = ()
        if "u" in a + b or draw(st.booleans()):
            shape = draw(st.lists(st.tuples(STATS_COORD, STATS_COORD),
                                  min_size=2, max_size=4))
            lanes = (netgen.Lane(0, shape),)
        edges.append(netgen.Edge(f"e{k}", a, b,
                                 num_lanes=draw(st.integers(1, 3)),
                                 lanes=lanes))
    return netgen.RoadNetwork(nodes, tuple(edges))


def _shaped(eid, a, b, length):
    lane = netgen.Lane(0, ((0.0, 0.0), (length, 0.0)))
    return netgen.Edge(eid, a, b, lanes=(lane,))


# two equally large components with different route lengths: one with
# declared nodes, one whose endpoints only the edges name
@settings(max_examples=300, deadline=None)
@example(net=netgen.RoadNetwork(
    (netgen.Node("a", 0, 0), netgen.Node("b", 10, 0),
     netgen.Node("c", 0, 9), netgen.Node("d", 30, 9)),
    (netgen.Edge("e0", "c", "d"), netgen.Edge("e1", "a", "b"))))
@example(net=netgen.RoadNetwork(
    (), (_shaped("e0", "u0", "u1", 5.0), _shaped("e1", "u2", "u3", 9.0))))
# a sink: no node reaches "a" or "c", and "b" reaches nothing
@example(net=netgen.RoadNetwork(
    (), (_shaped("e0", "a", "b", 5.0), _shaped("e1", "c", "b", 9.0))))
# the 10 m entry for "b" is stale when it is popped last
@example(net=netgen.RoadNetwork(
    (), (_shaped("e0", "a", "b", 10.0), _shaped("e1", "a", "c", 1.0),
         _shaped("e2", "c", "b", 1.0))))
@given(net=stats_networks())
def test_stats_equal_networkx_reference(net):
    stats = netgen.network_stats(net)
    assert (stats.total_lanes, stats.total_edges, stats.route_length,
            netgen.junction_distance(net)) == network_stats_networkx(net)


def test_stats_use_largest_component():
    nodes = (netgen.Node("a", 0, 0), netgen.Node("b", 100, 0),
             netgen.Node("c", 0, 500), netgen.Node("d", 10, 500),
             netgen.Node("e", 20, 500))
    edges = (netgen.Edge("e0", "a", "b"),
             netgen.Edge("e1", "c", "d"), netgen.Edge("e2", "d", "e"))
    net = netgen.RoadNetwork(nodes, edges)
    # largest component is c-d-e with total length 20, not the 100 m edge
    assert netgen.network_stats(net).route_length == pytest.approx(20.0)
    # of two equally large components, the first in node order wins
    tied = netgen.RoadNetwork(nodes[:4], (edges[1], edges[0]))
    assert netgen.network_stats(tied).route_length == pytest.approx(100.0)


def test_stats_relabel_invariance(rng):
    net = random_network(rng)
    mapping = {n.id: f"node-{i}" for i, n in enumerate(reversed(net.nodes))}
    nodes = tuple(netgen.Node(mapping[n.id], n.x, n.y, n.node_type)
                  for n in net.nodes)
    edges = tuple(
        netgen.Edge(f"edge-{i}", mapping[e.from_node], mapping[e.to_node],
                    e.num_lanes, e.speed, e.spread_type, e.lanes)
        for i, e in enumerate(net.edges))
    relabeled = netgen.RoadNetwork(nodes, edges)
    s1, s2 = netgen.network_stats(net), netgen.network_stats(relabeled)
    assert s1.route_length == pytest.approx(s2.route_length)
    assert s1.total_lanes == s2.total_lanes
    assert netgen.junction_distance(net) == \
        pytest.approx(netgen.junction_distance(relabeled))


def test_parallel_edges_use_shorter():
    nodes = (netgen.Node("a", 0, 0), netgen.Node("b", 100, 0))
    lane = netgen.Lane(0, ((0.0, 0.0), (50.0, 80.0), (100.0, 0.0)))
    edges = (netgen.Edge("straight", "a", "b"),
             netgen.Edge("detour", "a", "b", lanes=(lane,)))
    net = netgen.RoadNetwork(nodes, edges)
    assert netgen.network_stats(net).route_length == pytest.approx(100.0)


# few distinct values make zero-length edges and float rounding likely
GRID_SPACING = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 10.0]),
                         st.floats(0.0, 200.0))


@st.composite
def grid_networks(draw):
    """Street grids of 10 to 40 nodes, declared in a drawn order. Streets
    are two-way but for about one in eight; only one-way streets cross the
    drawn column cuts, so the blocks between cuts form separate strongly
    connected components. One-way spurs lead into and out of dead ends,
    spacings of 0 make zero-length edges, and some streets get a parallel
    lane-shaped edge of a drawn length."""
    rows = draw(st.integers(2, 5))
    cols = draw(st.integers(-(-10 // rows), 40 // rows))
    xs, ys = [0.0], [0.0]
    for _ in range(cols - 1):
        xs.append(xs[-1] + draw(GRID_SPACING))
    for _ in range(rows - 1):
        ys.append(ys[-1] + draw(GRID_SPACING))
    cuts = draw(st.sets(st.integers(1, cols - 1), max_size=3)) \
        if cols > 1 else set()
    nodes = [netgen.Node(f"g{r}_{c}", xs[c], ys[r])
             for r in range(rows) for c in range(cols)]
    edges = []

    def street(a, b, one_way):
        if one_way and draw(st.booleans()):
            a, b = b, a
        pairs = [(a, b)] if one_way else [(a, b), (b, a)]
        for u, v in pairs:
            edges.append(netgen.Edge(f"e{len(edges)}", u, v))
            if draw(st.integers(0, 5)) == 0:
                edges.append(_shaped(f"e{len(edges)}", u, v,
                                     draw(GRID_SPACING)))

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                street(f"g{r}_{c}", f"g{r}_{c + 1}",
                       c + 1 in cuts or draw(st.integers(0, 7)) == 0)
            if r + 1 < rows:
                street(f"g{r}_{c}", f"g{r + 1}_{c}",
                       draw(st.integers(0, 7)) == 0)
    for k in range(draw(st.integers(0, 4))):
        at = draw(st.sampled_from(nodes))
        nodes.append(netgen.Node(f"s{k}", at.x + draw(GRID_SPACING), at.y))
        street(at.id, f"s{k}", True)
    return netgen.RoadNetwork(tuple(draw(st.permutations(nodes))),
                              tuple(edges))


def _two_way_path(order, lengths):
    """A two-way path p0 - p1 - ... with the given edge lengths, its nodes
    declared in the given order of path positions."""
    edges = []
    for i, length in enumerate(lengths):
        edges += [_shaped(f"f{i}", f"p{i}", f"p{i + 1}", length),
                  _shaped(f"b{i}", f"p{i + 1}", f"p{i}", length)]
    return netgen.RoadNetwork(
        tuple(netgen.Node(f"p{i}", 0, 0) for i in order), tuple(edges))


# p3 runs first, with ecc 1.4, and bounds p5 by 0.4 + 1.4, which rounds to
# 1.7999999999999998; p0 then finds its route to p5 of 1.8, while p5's own
# route to p0 sums to 1.8000000000000003 in the other order
@example(net=_two_way_path([3, 2, 1, 5, 0, 4], [0.6, 0.6, 0.2, 0.1, 0.3]))
@settings(max_examples=200, deadline=None)
@given(net=grid_networks())
def test_stats_route_length_equals_all_sources(net):
    assert netgen.network_stats(net).route_length == \
        network_stats_networkx(net)[2]


# ---------------------------------------------------------------------------
# provider-backed compilation

def test_compile_network_happy_path():
    kb = default_knowledge_base()
    net = netgen.compile_network(straight_road(), kb, MockProvider())
    assert len(net.nodes) == 2 and len(net.edges) == 1
    assert net.edges[0].num_lanes == 2


def test_compile_network_persistent_fault_fails():
    kb = default_knowledge_base()
    with pytest.raises(netgen.CompileFailed) as exc:
        netgen.compile_network(straight_road(), kb,
                               MockProvider(fault="bad_spread"),
                               max_retries=2)
    assert any(e.kind == "InvalidEnum" and "spreadType=left" in e.detail
               for e in exc.value.errors)


def test_compile_network_hash_ids_reported_as_malformed_keyword():
    kb = default_knowledge_base()
    with pytest.raises(netgen.CompileFailed) as exc:
        netgen.compile_network(straight_road(), kb,
                               MockProvider(fault="hash_ids"), max_retries=1)
    assert any(e.kind == "MalformedKeyword" for e in exc.value.errors)


def test_compile_network_recovers_from_prose_once():
    kb = default_knowledge_base()
    provider = MockProvider(fault="prose_once")
    net = netgen.compile_network(straight_road(), kb, provider)
    assert len(net.edges) == 1
    assert provider._calls == 2


# ---------------------------------------------------------------------------
# OSM ingestion

OSM_FIXTURE = """<osm version="0.6">
  <node id="1" lat="0.000" lon="0.000"/>
  <node id="2" lat="0.001" lon="0.000"/>
  <node id="3" lat="0.002" lon="0.000"/>
  <node id="4" lat="0.001" lon="0.001"/>
  <way id="10">
    <nd ref="1"/><nd ref="2"/><nd ref="3"/>
    <tag k="highway" v="residential"/>
    <tag k="lanes" v="2"/>
    <tag k="maxspeed" v="50"/>
  </way>
  <way id="11">
    <nd ref="4"/><nd ref="2"/>
    <tag k="highway" v="residential"/>
    <tag k="oneway" v="yes"/>
  </way>
  <way id="12">
    <nd ref="1"/><nd ref="4"/>
    <tag k="highway" v="footway"/>
  </way>
</osm>"""

BBOX = ir.GpsBoundingBox(-0.001, -0.001, 0.003, 0.002)


def test_ingest_osm_counts():
    net = netgen.ingest_osm(BBOX, OSM_FIXTURE)
    assert len(net.nodes) == 4
    # way 10 splits at the shared node and is two-way: 4 directed edges;
    # way 11 is one-way: 1 edge; the footway is dropped
    assert len(net.edges) == 5
    assert sum(e.num_lanes for e in net.edges) == 9


def test_ingest_osm_geometry_and_tags():
    net = netgen.ingest_osm(BBOX, OSM_FIXTURE)
    two_lane = [e for e in net.edges if e.num_lanes == 2]
    assert len(two_lane) == 4
    assert two_lane[0].speed == pytest.approx(50 / 3.6)
    # 0.001 deg of latitude is ~111 m
    length = net.lane_graph.edge_length[two_lane[0].id]
    assert 100.0 < length < 120.0
    # output passes its own validation
    xml_nodes, xml_edges = netgen.serialize_sumo_xml(net)
    assert netgen.validate_network(xml_nodes, xml_edges) == []


def test_ingest_osm_rejects_undrivable_extract():
    only_footway = """<osm><node id="1" lat="0" lon="0.0005"/>
      <node id="2" lat="0.001" lon="0.0005"/>
      <way id="9"><nd ref="1"/><nd ref="2"/>
      <tag k="highway" v="footway"/></way></osm>"""
    with pytest.raises(netgen.EmptyExtract):
        netgen.ingest_osm(BBOX, only_footway)


def test_ingest_osm_rejects_garbage():
    with pytest.raises(netgen.EmptyExtract):
        netgen.ingest_osm(BBOX, "not xml at all <<")


@pytest.mark.parametrize("old, new, errors", [
    ('<way id="11">', '<way id="11#x">',
     [("MalformedKeyword", "edge", "w11#xs0")]),
    ('<way id="11">', '<way id="10">', [("DuplicateId", "edge", "w10s0")]),
    ('<tag k="maxspeed" v="50"/>', '<tag k="maxspeed" v="0"/>',
     [("InvalidEnum", "edge", "speed=0.0")] * 4),
], ids=["hash_in_way_id", "repeated_way_id", "zero_maxspeed"])
def test_ingest_osm_rejects_invalid_ways(old, new, errors):
    with pytest.raises(netgen.NetworkValidationError) as exc:
        netgen.ingest_osm(BBOX, OSM_FIXTURE.replace(old, new))
    assert exc.value.errors == [netgen.ValidationError(*e) for e in errors]


def test_fetch_osm_extract_uses_cache(tmp_path):
    import hashlib
    key = hashlib.sha256(
        f"{BBOX.min_lat},{BBOX.min_lon},{BBOX.max_lat},{BBOX.max_lon}"
        .encode()).hexdigest()[:16]
    cached = tmp_path / f"osm-{key}.xml"
    cached.write_text(OSM_FIXTURE, encoding="utf-8")
    # no network access happens on a cache hit
    assert netgen.fetch_osm_extract(BBOX, str(tmp_path)) == OSM_FIXTURE


def test_fetch_osm_extract_posts_query_and_caches(tmp_path, http_server,
                                                  monkeypatch):
    monkeypatch.setattr(netgen, "OVERPASS_URL", http_server.url)
    extract = OSM_FIXTURE.replace("</osm>", "<!-- Stra\u00dfe --></osm>")
    http_server.replies.append((200, extract.encode("iso-8859-1"),
                                "application/xml; charset=iso-8859-1", 0.0))
    assert netgen.fetch_osm_extract(BBOX, str(tmp_path)) == extract
    (_, body), = http_server.posts
    assert urllib.parse.parse_qs(body.decode()) == {"data": [
        "[out:xml];(way[highway](-0.001,-0.001,0.003,0.002););"
        "(._;>;);out body;"]}
    # the cache answers the next call
    assert netgen.fetch_osm_extract(BBOX, str(tmp_path)) == extract
    assert len(http_server.posts) == 1


def test_fetch_osm_extract_http_error_is_fetch_failed(tmp_path, http_server,
                                                      monkeypatch):
    monkeypatch.setattr(netgen, "OVERPASS_URL", http_server.url)
    http_server.replies.append((500, b"overloaded", "text/plain", 0.0))
    with pytest.raises(netgen.FetchFailed):
        netgen.fetch_osm_extract(BBOX, str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_fetch_osm_extract_failed_write_leaves_no_cache(tmp_path, http_server,
                                                        monkeypatch):
    monkeypatch.setattr(netgen, "OVERPASS_URL", http_server.url)
    http_server.replies += [(200, OSM_FIXTURE.encode(), "application/xml",
                             0.0)] * 2
    failures, real_replace = [OSError("disk full")], os.replace

    def replace_failing_once(src, dst):
        if failures:
            raise failures.pop()
        real_replace(src, dst)
    monkeypatch.setattr(os, "replace", replace_failing_once)
    with pytest.raises(OSError, match="disk full"):
        netgen.fetch_osm_extract(BBOX, str(tmp_path))
    # neither an osm-*.xml cache entry nor the temp file is left
    assert list(tmp_path.iterdir()) == []
    # the next call fetches again, and a complete write is cached
    assert netgen.fetch_osm_extract(BBOX, str(tmp_path)) == OSM_FIXTURE
    assert len(http_server.posts) == 2
    cached, = tmp_path.iterdir()
    assert cached.name.startswith("osm-") and cached.suffix == ".xml"
    assert netgen.fetch_osm_extract(BBOX, str(tmp_path)) == OSM_FIXTURE
    assert len(http_server.posts) == 2
