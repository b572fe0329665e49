import math
import os
import random
import urllib.parse

import pytest
from hypothesis import example, given, settings, strategies as st

from scenarioforge import ir, netgen
from scenarioforge.interpreter import (MockProvider, UnparseableAfterRetries,
                                      default_knowledge_base)

from conftest import _random_edge, random_network, street_grid_network
from oracles import (connections_brute_force, lane_graph_reference,
                     network_stats_networkx, point_along_scan,
                     route_length_argmax, serialize_sumo_xml_reference,
                     stats_oracle, successors_scan)
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
    succ = netgen.derive_connections(net.edges)
    assert succ["ramp_a"] == succ["ramp_b"] == ("main",)


def test_roundabout_blueprint_ring_is_cyclic():
    road = ir.RoadDescription(
        layout="Roundabout", segments=(ir.RoadSegment(100.0, 1, 1, 8.0),))
    net = netgen.build_network_blueprint(road)
    ring = [e for e in net.edges if e.id.startswith("ring")]
    assert len(ring) == 4
    succ = netgen.derive_connections(net.edges)
    for i in range(4):
        assert f"ring{(i + 1) % 4}" in succ[f"ring{i}"]


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
    succ = netgen.derive_connections(net.edges)
    assert succ["e0f"] == ("e1f",)
    assert succ["e1b"] == ("e0b",)


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
    return netgen.RoadNetwork(nodes, edges)


def test_derive_connections_matches_brute_force(rng):
    nets = [random_network(rng) for _ in range(60)] + [grid_network()]
    for net in nets:
        assert netgen.derive_connections(net.edges) == \
            connections_brute_force(net.edges)
    grid = nets[-1]
    # the 6x6 grid joins 172 edge pairs
    assert sum(map(len, netgen.derive_connections(grid.edges).values())) \
        > 150


def loops_and_dead_ends(rng):
    """A random network plus self-loops, U-turn pairs and dead-end spurs:
    the cases the connection rule treats apart."""
    net = random_network(rng)
    nodes, edges = list(net.nodes), list(net.edges)
    by_id = {n.id: n for n in nodes}
    for k in range(rng.randint(1, 4)):
        a = rng.choice(net.nodes)
        kind = rng.randrange(3)
        if kind == 0:
            edges.append(_random_edge(rng, f"loop{k}", a, a))
        elif kind == 1:
            e = rng.choice(net.edges)
            edges.append(_random_edge(rng, f"back{k}", by_id[e.to_node],
                                      by_id[e.from_node]))
        else:
            spur = netgen.Node(f"d{k}", a.x + 50.0, a.y)
            nodes.append(spur)
            edges.append(_random_edge(rng, f"spur{k}", a, spur))
    return netgen.RoadNetwork(nodes, edges)


def test_lane_graph_matches_per_call_geometry(rng):
    nets = [random_network(rng) for _ in range(30)] + \
        [loops_and_dead_ends(rng) for _ in range(30)] + [grid_network()]
    for net in nets:
        graph = net.lane_graph
        assert net.lane_graph is graph  # compiled once per network
        # first wins: a dict built from the reversed nodes keeps the first
        assert graph.nodes == {n.id: n for n in reversed(net.nodes)}
        assert list(graph.inventory) == \
            [(e, li) for e in net.edges for li in range(e.num_lanes)]
        assert len(graph.lanes) == 0  # no lane is measured before a lookup
        for e, li in graph.inventory:
            path = graph.lanes[(e.id, li)]
            line = netgen.lane_centerline(net, e, li)
            assert path.points == line
            assert path.length == netgen._polyline_length(line)
            assert graph.lanes[(e.id, li)] is path
            with pytest.raises(KeyError):
                graph.lanes[(e.id, e.num_lanes)]
        for e in net.edges:
            assert graph.edges[e.id] is e
            assert graph.edge_length[e.id] == \
                netgen._polyline_length(netgen.edge_polyline(net, e))
            assert list(graph.successors[e.id]) == successors_scan(net, e.id)
        ends = [(e.from_node, e.to_node) for e in net.edges]
        assert list(graph.neighbors) == list(dict.fromkeys(
            [n.id for n in net.nodes] + [v for end in ends for v in end]))
        for v, adj in graph.neighbors.items():
            assert adj == {b if a == v else a for a, b in ends if v in (a, b)}


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


# few distinct values make signed zeros, zero-length segments and repeated
# points likely
SHAPE_COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.25]),
                        st.floats(-1e4, 1e4, allow_nan=False))
SHAPES = st.lists(st.tuples(SHAPE_COORD, SHAPE_COORD), min_size=2,
                  max_size=5).map(tuple)
# edge shapes: none, a single point (which no valid document holds, and
# which the axis ignores), or a drawn multi-segment line
EDGE_SHAPES = st.just(()) | st.tuples(st.tuples(SHAPE_COORD, SHAPE_COORD)) \
    | SHAPES


@st.composite
def shaped_networks(draw):
    """Networks with unique edge ids, every spread type, 1 to 4 lanes, and
    axes that are node-to-node or a drawn multi-segment edge shape."""
    nodes = tuple(netgen.Node(f"n{i}", draw(SHAPE_COORD), draw(SHAPE_COORD))
                  for i in range(draw(st.integers(1, 4))))
    ids = st.sampled_from([n.id for n in nodes])
    edges = tuple(netgen.Edge(
        f"e{k}", draw(ids), draw(ids), num_lanes=draw(st.integers(1, 4)),
        spread_type=draw(st.sampled_from(netgen.SPREAD_TYPES)),
        shape=draw(EDGE_SHAPES))
        for k in range(draw(st.integers(1, 5))))
    return netgen.RoadNetwork(nodes, edges)


@settings(max_examples=200, deadline=None)
@given(net=shaped_networks(), data=st.data())
def test_lane_graph_equals_per_lane_reference(net, data):
    """Lanes measured on lookup, from normals computed once per edge, are
    bit for bit the lanes the eager per-lane build made, in any lookup
    order."""
    lanes, edge_length = lane_graph_reference(net)
    graph = net.lane_graph
    assert repr(graph.edge_length) == repr(edge_length)
    keys = [(e.id, li) for e, li in graph.inventory]
    for key in data.draw(st.permutations(keys)):
        path = graph.lanes[key]
        assert repr((path.points, path.cum, path.length)) == repr(lanes[key])
    assert len(graph.lanes) == len(lanes)


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


# strings of characters XML 1.0 allows, with the ones the validator or the
# serializer treat specially; short, so that ids repeat
XML_TEXT = st.text(alphabet="&<>\"'\t\n\r ;#n1\u00e9", max_size=3)
COORDS = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def typed_networks(draw):
    node_ids = draw(st.lists(XML_TEXT, max_size=4))
    kinds = st.sampled_from(netgen.NODE_TYPES + ("bogus", "&<\t"))
    nodes = tuple(netgen.Node(nid, draw(COORDS), draw(COORDS), draw(kinds))
                  for nid in node_ids)
    ends = st.sampled_from(node_ids) | XML_TEXT if node_ids else XML_TEXT
    edges = tuple(netgen.Edge(
        draw(XML_TEXT), draw(ends), draw(ends),
        num_lanes=draw(st.integers(-1, 3)),
        speed=draw(COORDS | st.sampled_from([0.0, -0.0, math.nan, math.inf])),
        spread_type=draw(st.sampled_from(netgen.SPREAD_TYPES + ("left",))),
        shape=draw(st.lists(st.tuples(COORDS, COORDS), max_size=3)))
        for _ in range(draw(st.integers(0, 4))))
    return netgen.RoadNetwork(nodes, edges)


@settings(max_examples=150, deadline=None)
@given(net=typed_networks())
@example(net=netgen.build_network_blueprint(ir.RoadDescription(
    "CrossIntersection", (ir.RoadSegment(80.0, 1, 1, 13.89),))))
@example(net=netgen.RoadNetwork(
    (netgen.Node("a", math.nan, -0.0), netgen.Node("b", 1.0, math.inf)),
    (netgen.Edge("e", "a", "b", shape=((0.0, -0.0),)),
     netgen.Edge("f", "b", "a", shape=((0.0, 1.0), (math.inf, 2.0))))))
def test_network_errors_equal_validator_on_serialized_network(net):
    assert netgen.network_errors(net) == \
        netgen.validate_network(*netgen.serialize_sumo_xml(net))


@pytest.mark.parametrize("speed", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_validator_rejects_a_non_finite_speed(speed):
    edges = GOOD_EDGES.replace('speed="13.89"', f'speed="{speed}"')
    assert netgen.validate_network(GOOD_NODES, edges) == [
        netgen.ValidationError("InvalidEnum", "edge", f"speed={speed}")]
    with pytest.raises(netgen.NetworkValidationError):
        netgen.parse_sumo_xml(GOOD_NODES, edges)


def test_parse_rejects_a_non_integer_lane_index():
    edges = GOOD_EDGES.replace(
        'spreadType="right"/>',
        'spreadType="right"><lane index="first" shape="0,0 100,0"/></edge>')
    with pytest.raises(netgen.NetworkValidationError) as exc:
        netgen.parse_sumo_xml(GOOD_NODES, edges)
    assert exc.value.errors == [
        netgen.ValidationError("MalformedKeyword", "lane", "index=first")]


def test_provider_lane_shape_is_the_axis():
    """An edges document with lane children, as a provider may write it: the
    first lane's curved shape is the edge's axis, and every lane, the second
    one too, is offset from it."""
    nodes = GOOD_NODES.replace('x="100.0"', 'x="61.0"')
    edges = GOOD_EDGES.replace('numLanes="1"', 'numLanes="2"').replace(
        'spreadType="right"/>',
        'spreadType="center">\n'
        '        <lane index="0" shape="0.0,0.0 30.5,4.25 61.0,0.0"/>\n'
        '        <lane index="1" shape="0.0,-3.2 61.0,-3.2"/>\n'
        '    </edge>')
    net = netgen.parse_sumo_xml(nodes, edges)
    assert net.edges[0].shape == ((0.0, 0.0), (30.5, 4.25), (61.0, 0.0))
    graph = net.lane_graph
    assert graph.edge_length["e0"] == 61.58936596523786
    assert graph.lanes[("e0", 0)].points == (
        (-0.220817340572658, 1.5846891499920164),
        (30.72081734057266, 5.834689149992016),
        (61.22081734057266, 1.5846891499920164))
    assert graph.lanes[("e0", 1)].points == (
        (0.220817340572658, -1.5846891499920164),
        (30.27918265942734, 2.665310850007984),
        (60.77918265942734, -1.5846891499920164))
    # written back, the axis is the edge's shape and the lanes are gone
    xml_edges = netgen.serialize_sumo_xml(net)[1]
    assert '<lane' not in xml_edges
    assert 'shape="0.0,0.0 30.5,4.25 61.0,0.0"/>' in xml_edges
    assert netgen.parse_sumo_xml(nodes, xml_edges) == net


def test_edge_shape_wins_over_lane_children():
    edges = GOOD_EDGES.replace(
        'spreadType="right"/>',
        'spreadType="right" shape="0.0,0.0 50.0,9.0 100.0,0.0">'
        '<lane index="0" shape="0.0,0.0 100.0,0.0"/></edge>')
    net = netgen.parse_sumo_xml(GOOD_NODES, edges)
    assert net.edges[0].shape == ((0.0, 0.0), (50.0, 9.0), (100.0, 0.0))


@pytest.mark.parametrize("shape", ["", "1.0,2.0", "0,0 1", "0,0 nan,1",
                                   "0,0 1e999,1"])
def test_parse_rejects_an_edge_shape_that_is_no_line(shape):
    edges = GOOD_EDGES.replace('spreadType="right"',
                               f'spreadType="right" shape="{shape}"')
    with pytest.raises(netgen.NetworkValidationError) as exc:
        netgen.parse_sumo_xml(GOOD_NODES, edges)
    assert exc.value.errors == [
        netgen.ValidationError("MalformedKeyword", "edge", f"shape={shape}")]


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
@example(ids=["a", "b", "e"], shape=((-0.0, 0.0), (50.0, -0.0)))
@example(ids=["a", "b", "e"], shape=((1.5, -0.0),))
@given(ids=st.lists(XML_SPECIAL_IDS, min_size=3, max_size=3, unique=True),
       shape=EDGE_SHAPES)
def test_round_trip_xml_special_ids(ids, shape):
    a, b, edge_id = ids
    nodes = (netgen.Node(a, 0, 0), netgen.Node(b, 50, 0))
    edges = (netgen.Edge(edge_id, a, b, num_lanes=2, shape=shape),
             netgen.Edge(edge_id + "r", b, a))
    net = netgen.RoadNetwork(nodes, edges)
    xml_nodes, xml_edges = netgen.serialize_sumo_xml(net)
    if len(shape) == 1:
        with pytest.raises(netgen.NetworkValidationError) as exc:
            netgen.parse_sumo_xml(xml_nodes, xml_edges)
        (x, y), = shape
        assert exc.value.errors == [netgen.ValidationError(
            "MalformedKeyword", "edge", f"shape={x!r},{y!r}")]
        return
    parsed = netgen.parse_sumo_xml(xml_nodes, xml_edges)
    assert parsed == net
    # the signs of zeros, which == does not see, survive too
    assert repr(parsed.edges[0].shape) == repr(net.edges[0].shape)


@settings(max_examples=200, deadline=None)
@given(net=st.builds(
    netgen.RoadNetwork,
    st.lists(st.builds(netgen.Node, XML_SPECIAL_IDS, SHAPE_COORD,
                       SHAPE_COORD, st.sampled_from(netgen.NODE_TYPES)),
             max_size=3),
    st.lists(st.builds(netgen.Edge, XML_SPECIAL_IDS, XML_SPECIAL_IDS,
                       XML_SPECIAL_IDS, st.integers(1, 4), SHAPE_COORD,
                       st.sampled_from(netgen.SPREAD_TYPES), EDGE_SHAPES),
             min_size=1, max_size=4)))
def test_serialize_equals_reference(net):
    """The escape fast path and repr without float() give the bytes of the
    serializer that escaped every attribute and converted every number."""
    assert netgen.serialize_sumo_xml(net) == serialize_sumo_xml_reference(net)


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
    zero-length edges, self-loops, edge shapes, and endpoints that only
    shaped edges name ("u0" to "u3"). In half of them every edge
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
        shape = ()
        if "u" in a + b or draw(st.booleans()):
            shape = draw(st.lists(st.tuples(STATS_COORD, STATS_COORD),
                                  min_size=2, max_size=4))
        edges.append(netgen.Edge(f"e{k}", a, b,
                                 num_lanes=draw(st.integers(1, 3)),
                                 shape=shape))
    return netgen.RoadNetwork(nodes, tuple(edges))


def _shaped(eid, a, b, length):
    return netgen.Edge(eid, a, b, shape=((0.0, 0.0), (length, 0.0)))


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
                    e.num_lanes, e.speed, e.spread_type, e.shape)
        for i, e in enumerate(net.edges))
    relabeled = netgen.RoadNetwork(nodes, edges)
    s1, s2 = netgen.network_stats(net), netgen.network_stats(relabeled)
    assert s1.route_length == pytest.approx(s2.route_length)
    assert s1.total_lanes == s2.total_lanes
    assert netgen.junction_distance(net) == \
        pytest.approx(netgen.junction_distance(relabeled))


def test_parallel_edges_use_shorter():
    nodes = (netgen.Node("a", 0, 0), netgen.Node("b", 100, 0))
    edges = (netgen.Edge("straight", "a", "b"),
             netgen.Edge("detour", "a", "b",
                         shape=((0.0, 0.0), (50.0, 80.0), (100.0, 0.0))))
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
    shaped edge of a drawn length."""
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


@settings(max_examples=200, deadline=None)
@given(net=grid_networks() | stats_networks())
def test_stats_route_length_equals_argmax_sources(net):
    """Sources chosen by lower bounds too, on networks with several strongly
    connected components, give bit for bit the route length of the loop
    that always runs the largest upper bound."""
    assert repr(netgen.network_stats(net).route_length) == \
        repr(route_length_argmax(net)[0])


def test_stats_on_street_grid_take_fewer_dijkstras(rng, monkeypatch):
    net = street_grid_network(rng)
    route_length, argmax_runs = route_length_argmax(net)
    calls = []
    dijkstra = netgen._dijkstra
    monkeypatch.setattr(netgen, "_dijkstra",
                        lambda graph, source: calls.append(source) or
                        dijkstra(graph, source))
    assert netgen.network_stats(net).route_length == route_length
    # a forward and a backward Dijkstra per source
    assert len(calls) // 2 < argmax_runs


# ---------------------------------------------------------------------------
# provider-backed compilation

def test_compile_network_happy_path():
    kb = default_knowledge_base()
    net = netgen.compile_network(straight_road(), kb, MockProvider())
    assert len(net.nodes) == 2 and len(net.edges) == 1
    assert net.edges[0].num_lanes == 2


def test_compile_network_persistent_fault_fails():
    kb = default_knowledge_base()
    with pytest.raises(UnparseableAfterRetries) as exc:
        netgen.compile_network(straight_road(), kb,
                               MockProvider(fault="bad_spread"))
    assert any(e.kind == "InvalidEnum" and "spreadType=left" in e.detail
               for e in exc.value.last_error.errors)


def test_compile_network_hash_ids_reported_as_malformed_keyword():
    kb = default_knowledge_base()
    with pytest.raises(UnparseableAfterRetries) as exc:
        netgen.compile_network(straight_road(), kb,
                               MockProvider(fault="hash_ids"))
    assert any(e.kind == "MalformedKeyword"
               for e in exc.value.last_error.errors)


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


@pytest.mark.parametrize("tag, edges", [
    ('<tag k="oneway" v="yes"/>', [("w11s0", "osm4", "osm2")]),
    ('<tag k="oneway" v="-1"/>', [("w11s0r", "osm2", "osm4")]),
    ('<tag k="junction" v="roundabout"/>', [("w11s0", "osm4", "osm2")]),
    ("", [("w11s0", "osm4", "osm2"), ("w11s0r", "osm2", "osm4")]),
], ids=["oneway", "oneway_reverse", "roundabout", "two_way"])
def test_ingest_osm_way_direction(tag, edges):
    net = netgen.ingest_osm(BBOX, OSM_FIXTURE.replace(
        '<tag k="oneway" v="yes"/>', tag))
    way = [e for e in net.edges if e.id.startswith("w11")]
    assert [(e.id, e.from_node, e.to_node) for e in way] == edges
    # each axis runs from the edge's from-node to its to-node
    ends = {n.id: (n.x, n.y) for n in net.nodes}
    for e in way:
        assert e.shape == (ends[e.from_node], ends[e.to_node])


ONE_WAY = [("w11s0", "osm4", "osm2")]
TWO_WAY = ONE_WAY + [("w11s0r", "osm2", "osm4")]


@pytest.mark.parametrize("tags, edges", [
    ('<tag k="highway" v="motorway"/><tag k="oneway" v="no"/>', TWO_WAY),
    ('<tag k="highway" v="residential"/><tag k="junction" v="roundabout"/>'
     '<tag k="oneway" v="no"/>', TWO_WAY),
    ('<tag k="highway" v="motorway"/>', ONE_WAY),
    ('<tag k="highway" v="residential"/><tag k="junction" v="roundabout"/>',
     ONE_WAY),
], ids=["motorway_oneway_no", "roundabout_oneway_no", "motorway",
        "roundabout"])
def test_ingest_osm_oneway_no_gives_both_directions(tags, edges):
    way_11 = '<tag k="highway" v="residential"/>\n    ' \
        '<tag k="oneway" v="yes"/>'
    assert OSM_FIXTURE.count(way_11) == 1
    net = netgen.ingest_osm(BBOX, OSM_FIXTURE.replace(way_11, tags))
    assert [(e.id, e.from_node, e.to_node) for e in net.edges
            if e.id.startswith("w11")] == edges


@pytest.mark.parametrize("blank", ["", " "])
def test_ingest_osm_blank_maxspeed_is_absent(blank):
    net = netgen.ingest_osm(BBOX, OSM_FIXTURE.replace(
        '<tag k="maxspeed" v="50"/>', f'<tag k="maxspeed" v="{blank}"/>'))
    assert {e.speed for e in net.edges} == {netgen.DEFAULT_SPEED}


def test_ingested_grid_writes_each_axis_once(rng):
    net = street_grid_network(rng, size=6)
    xml_nodes, xml_edges = netgen.serialize_sumo_xml(net)
    assert "<lane" not in xml_edges
    assert xml_edges.count(" shape=") == len(net.edges)
    parsed = netgen.parse_sumo_xml(xml_nodes, xml_edges)
    assert parsed == net
    assert [e.shape for e in parsed.edges] == [e.shape for e in net.edges]


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
    ('<tag k="maxspeed" v="50"/>', '<tag k="maxspeed" v="nan"/>',
     [("InvalidEnum", "edge", "speed=nan")] * 4),
    ('<tag k="maxspeed" v="50"/>', '<tag k="maxspeed" v="inf mph"/>',
     [("InvalidEnum", "edge", "speed=inf")] * 4),
    # node 4 fails, and the axis of way 11, which starts there, is not read
    ('<node id="4" lat="0.001"', '<node id="4" lat="nan"',
     [("InvalidEnum", "node", "y=nan")]),
    ('lon="0.001"/>', 'lon="-inf"/>', [("InvalidEnum", "node", "x=-inf")]),
    # an unparseable or absent coordinate reads as NaN
    ('<node id="4" lat="0.001"', '<node id="4" lat="abc"',
     [("InvalidEnum", "node", "y=nan")]),
    ('<node id="4" lat="0.001"', '<node id="4"',
     [("InvalidEnum", "node", "y=nan")]),
    ('<node id="4" lat="0.001" lon="0.001"', '<node id="4" lat="0.001"',
     [("InvalidEnum", "node", "x=nan")]),
], ids=["hash_in_way_id", "repeated_way_id", "zero_maxspeed",
        "nan_maxspeed", "inf_maxspeed", "nan_lat", "inf_lon", "text_lat",
        "absent_lat", "absent_lon"])
def test_ingest_osm_rejects_invalid_ways(old, new, errors):
    with pytest.raises(netgen.NetworkValidationError) as exc:
        netgen.ingest_osm(BBOX, OSM_FIXTURE.replace(old, new))
    assert exc.value.errors == [netgen.ValidationError(*e) for e in errors]


@pytest.mark.parametrize("node", ['<node id="9" lat="abc" lon="0.0"/>',
                                  '<node id="9" lon="0.0"/>'],
                         ids=["text_lat", "absent_lat"])
def test_ingest_osm_ignores_bad_unused_node(node):
    extract = OSM_FIXTURE.replace("</osm>", f"{node}</osm>")
    assert netgen.ingest_osm(BBOX, extract) == \
        netgen.ingest_osm(BBOX, OSM_FIXTURE)


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
