import http.server
import math
import os
import random
import threading
import time

import pytest

from scenarioforge import ir, netgen


def random_description(rng: random.Random) -> ir.ScenarioDescription:
    layout = rng.choice(ir.ROAD_LAYOUTS)
    segments = tuple(
        ir.RoadSegment(length=round(rng.uniform(20.0, 400.0), 2),
                       lanes_forward=rng.randint(0, 3),
                       lanes_backward=rng.randint(1, 2),
                       speed_limit=round(rng.uniform(5.0, 33.0), 2))
        for _ in range(rng.randint(1, 3)))
    road = ir.RoadDescription(layout=layout, segments=segments,
                              junction_notes=rng.choice(["", "yield", "stop"]))

    agents = []
    n_agents = rng.randint(0, 5)
    av_used = False
    for _ in range(n_agents):
        kind = rng.choice(ir.AGENT_KINDS)
        if kind in ir.VRU_KINDS:
            role = "VRU"
        elif not av_used and rng.random() < 0.4:
            role, av_used = "AV", True
        else:
            role = "BV"
        agents.append(ir.AgentDescription(
            kind=kind, role=role,
            intent=rng.choice(["cruise", "cut-in", "left turn", ""]),
            approx_speed=round(rng.uniform(0.0, 25.0), 2),
            relative_position=rng.choice(["ahead", "behind", ""]),
            color=rng.choice([None, "red", "white", "black", "blue"])))

    objects = tuple(
        ir.ObjectDescription(kind=rng.choice(ir.OBJECT_KINDS),
                             count=rng.randint(1, 8),
                             placement_hint=rng.choice(["", "taper", "edge"]))
        for _ in range(rng.randint(0, 3)))

    weather = ir.WeatherDescription(
        precipitation=round(rng.random(), 3),
        fog_density=round(rng.random(), 3),
        sun_altitude=round(rng.uniform(-90.0, 90.0), 2),
        time_of_day=round(rng.uniform(0.0, 23.99), 2))

    return ir.ScenarioDescription(
        road=road, objects=objects, agents=tuple(agents), weather=weather,
        narrative=" ".join(rng.choices(["car", "road", "rain", "turn",
                                        "cone", "fast"], k=rng.randint(0, 6))),
        scene_type=rng.choice(ir.SCENE_TYPES))


def random_network(rng: random.Random, max_nodes: int = 12
                   ) -> netgen.RoadNetwork:
    n_nodes = rng.randint(2, max_nodes)
    nodes = tuple(
        netgen.Node(id=f"n{i}", x=round(rng.uniform(-500.0, 500.0), 2),
                    y=round(rng.uniform(-500.0, 500.0), 2),
                    node_type=rng.choice(netgen.NODE_TYPES))
        for i in range(n_nodes))
    edges = []
    # spanning chain keeps at least one edge reachable, extras add cycles
    order = list(range(n_nodes))
    rng.shuffle(order)
    for k in range(1, n_nodes):
        a, b = order[k - 1], order[k]
        edges.append(_random_edge(rng, f"e{len(edges)}", nodes[a], nodes[b]))
    for _ in range(rng.randint(0, n_nodes)):
        a, b = rng.sample(range(n_nodes), 2)
        edges.append(_random_edge(rng, f"e{len(edges)}", nodes[a], nodes[b]))
    edges = tuple(edges)
    return netgen.RoadNetwork(nodes, edges,
                              netgen.derive_connections(nodes, edges))


def _random_edge(rng, eid, a, b):
    lanes = ()
    num_lanes = rng.randint(1, 3)
    if rng.random() < 0.3:
        # explicit lane geometry with a midpoint wiggle
        mx = (a.x + b.x) / 2 + round(rng.uniform(-10, 10), 2)
        my = (a.y + b.y) / 2 + round(rng.uniform(-10, 10), 2)
        lanes = tuple(netgen.Lane(index=i, shape=((a.x, a.y), (mx, my),
                                                  (b.x, b.y)))
                      for i in range(num_lanes))
    return netgen.Edge(id=eid, from_node=a.id, to_node=b.id,
                       num_lanes=num_lanes,
                       speed=round(rng.uniform(5.0, 33.0), 2),
                       spread_type=rng.choice(netgen.SPREAD_TYPES),
                       lanes=lanes)


@pytest.fixture
def rng():
    return random.Random(20240817)


def polyline_len(points):
    return sum(math.dist(points[i], points[i + 1])
               for i in range(len(points) - 1))


class _ReplyHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        body = self.rfile.read(int(self.headers["Content-Length"]))
        server.posts.append((self.headers, body))
        status, reply, content_type, delay = server.replies.pop(0)
        time.sleep(delay)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server(monkeypatch):
    """An HTTP server on 127.0.0.1, reached without any proxy.

    Each POST is recorded in ``posts`` as (headers, body) and answered with
    the next ``replies`` entry: (status, body bytes, content type, delay s).
    """
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    server = http.server.HTTPServer(("127.0.0.1", 0), _ReplyHandler)
    server.posts, server.replies = [], []
    server.url = f"http://127.0.0.1:{server.server_port}/"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()
