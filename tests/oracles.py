"""Independent reference implementations used to check the package's math.

These deliberately avoid the library's own helpers: lengths are recomputed
from raw geometry and shortest paths use Floyd-Warshall over dense matrices,
or networkx where a result must match the library bit for bit.
"""
import hashlib
import json
import math


def _edge_len(net, edge) -> float:
    if len(edge.shape) >= 2:
        pts = edge.shape
    else:
        by_id = {n.id: n for n in net.nodes}
        a, b = by_id[edge.from_node], by_id[edge.to_node]
        pts = ((a.x, a.y), (b.x, b.y))
    return sum(math.hypot(pts[i + 1][0] - pts[i][0], pts[i + 1][1] - pts[i][1])
               for i in range(len(pts) - 1))


def _largest_component(net) -> set:
    adj: dict = {n.id: set() for n in net.nodes}
    for e in net.edges:
        adj[e.from_node].add(e.to_node)
        adj[e.to_node].add(e.from_node)
    best: set = set()
    seen: set = set()
    for start in adj:
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v] - comp)
        seen |= comp
        if len(comp) > len(best):
            best = comp
    return best


def _segments_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if abs(v) < 1e-12 else (1 if v > 0 else -1)

    def on_seg(a, b, c):
        return (min(a[0], b[0]) - 1e-12 <= c[0] <= max(a[0], b[0]) + 1e-12 and
                min(a[1], b[1]) - 1e-12 <= c[1] <= max(a[1], b[1]) + 1e-12)

    o1, o2 = orient(p1, p2, p3), orient(p1, p2, p4)
    o3, o4 = orient(p3, p4, p1), orient(p3, p4, p2)
    if o1 != o2 and o3 != o4:
        return True
    for (a, b, c, o) in ((p1, p2, p3, o1), (p1, p2, p4, o2),
                         (p3, p4, p1, o3), (p3, p4, p2, o4)):
        if o == 0 and on_seg(a, b, c):
            return True
    return False


def _point_in_convex(poly, pt) -> bool:
    sign = 0
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        cross = (b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0])
        if abs(cross) < 1e-12:
            continue
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def quads_overlap_oracle(qa, qb) -> bool:
    """Ground-truth convex-quad intersection: edge crossings or containment."""
    for i in range(4):
        for j in range(4):
            if _segments_intersect(qa[i], qa[(i + 1) % 4],
                                   qb[j], qb[(j + 1) % 4]):
                return True
    return _point_in_convex(qb, qa[0]) or _point_in_convex(qa, qb[0])


def stats_oracle(net):
    """(total_lanes, total_edges, route_length, pairwise_junction_distance)."""
    total_lanes = sum(e.num_lanes for e in net.edges)
    total_edges = len(net.edges)

    comp = sorted(_largest_component(net))
    idx = {nid: i for i, nid in enumerate(comp)}
    n = len(comp)
    inf = math.inf
    dist = [[0.0 if i == j else inf for j in range(n)] for i in range(n)]
    for e in net.edges:
        if e.from_node in idx and e.to_node in idx:
            i, j = idx[e.from_node], idx[e.to_node]
            dist[i][j] = min(dist[i][j], _edge_len(net, e))
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    route = 0.0
    for i in range(n):
        for j in range(n):
            if dist[i][j] != inf:
                route = max(route, dist[i][j])

    degree: dict = {}
    for e in net.edges:
        degree[e.from_node] = degree.get(e.from_node, 0) + 1
        degree[e.to_node] = degree.get(e.to_node, 0) + 1
    junctions = [n_ for n_ in net.nodes if degree.get(n_.id, 0) >= 3]
    if len(junctions) < 2:
        pjd = 0.0
    else:
        pairs = [math.hypot(a.x - b.x, a.y - b.y)
                 for i, a in enumerate(junctions) for b in junctions[i + 1:]]
        pjd = sum(pairs) / len(pairs)
    return total_lanes, total_edges, route, pjd


def network_stats_networkx(net):
    """(total_lanes, total_edges, route_length, pairwise_junction_distance)
    as network_stats computed them with networkx: the largest connected
    component, all-pairs Dijkstra, and edge lengths from a first-wins linear
    node scan."""
    import networkx as nx

    def node(node_id):
        return next(n for n in net.nodes if n.id == node_id)

    def edge_length(e):
        if len(e.shape) >= 2:
            pts = e.shape
        else:
            a, b = node(e.from_node), node(e.to_node)
            pts = ((a.x, a.y), (b.x, b.y))
        return sum(math.dist(pts[i], pts[i + 1]) for i in range(len(pts) - 1))

    und = nx.Graph()
    und.add_nodes_from(n.id for n in net.nodes)
    und.add_edges_from((e.from_node, e.to_node) for e in net.edges)
    comp = max(nx.connected_components(und), key=len) if und else set()
    g = nx.DiGraph()
    g.add_nodes_from(n.id for n in net.nodes if n.id in comp)
    for e in net.edges:
        if e.from_node in comp and e.to_node in comp:
            length = edge_length(e)
            if not g.has_edge(e.from_node, e.to_node) or \
                    g[e.from_node][e.to_node]["weight"] > length:
                g.add_edge(e.from_node, e.to_node, weight=length)
    route_length = 0.0
    for _, dists in nx.all_pairs_dijkstra_path_length(g, weight="weight"):
        for d in dists.values():
            route_length = max(route_length, d)

    degree: dict = {}
    for e in net.edges:
        for nid in (e.from_node, e.to_node):
            degree[nid] = degree.get(nid, 0) + 1
    junctions = [n for n in net.nodes if degree.get(n.id, 0) >= 3]
    if len(junctions) < 2:
        pjd = 0.0
    else:
        ds = [math.dist((a.x, a.y), (b.x, b.y))
              for i, a in enumerate(junctions) for b in junctions[i + 1:]]
        pjd = sum(ds) / len(ds)
    return (sum(e.num_lanes for e in net.edges), len(net.edges),
            route_length, pjd)


def point_along_scan(polyline, s):
    """(x, y, heading_deg) at arc length s by a linear scan over segments,
    clamped to the ends: the lookup the compiled lane geometry replaces."""
    total = sum(math.dist(polyline[i], polyline[i + 1])
                for i in range(len(polyline) - 1))
    s = min(max(s, 0.0), total)
    acc = 0.0
    for i in range(len(polyline) - 1):
        seg = math.dist(polyline[i], polyline[i + 1])
        if acc + seg >= s or i == len(polyline) - 2:
            t = 0.0 if seg == 0 else (s - acc) / seg
            x = polyline[i][0] + t * (polyline[i + 1][0] - polyline[i][0])
            y = polyline[i][1] + t * (polyline[i + 1][1] - polyline[i][1])
            heading = math.degrees(math.atan2(
                polyline[i + 1][1] - polyline[i][1],
                polyline[i + 1][0] - polyline[i][0]))
            if heading <= -180.0:
                heading += 360.0
            return x, y, heading
        acc += seg
    raise AssertionError("unreachable")


def connections_brute_force(edges):
    """Edge id -> sorted ids of the edges it connects to, over every ordered
    edge pair meeting at a node, U-turns excluded."""
    out = {}
    for e_in in edges:
        to = out.setdefault(e_in.id, set())
        for e_out in edges:
            if e_in.id == e_out.id or e_in.to_node != e_out.from_node:
                continue
            if e_out.to_node == e_in.from_node and \
                    e_in.from_node != e_in.to_node:
                continue
            to.add(e_out.id)
    return {eid: tuple(sorted(to)) for eid, to in out.items()}


# The successor reference takes the package's connections, which have their
# own brute-force oracle (connections_brute_force).

def successors_scan(net, edge_id):
    """Edges a vehicle may take after edge_id: the connected ones, else every
    edge leaving its end node that does not lead straight back."""
    from scenarioforge import netgen
    edge = next(e for e in net.edges if e.id == edge_id)
    out = list(netgen.derive_connections(net.edges)[edge_id])
    if out:
        return out
    return sorted(e.id for e in net.edges
                  if e.from_node == edge.to_node and
                  e.to_node != edge.from_node)


# The collision reference checks only the broad phase in front of the exact
# pair test, so it calls the package's exact test, which has its own oracle.

def all_pairs_collisions(states, step=0):
    """(step, id_a, id_b, penetration) from the exact test on every pair."""
    from scenarioforge import simcore
    boxes = [simcore.obb_corners(a.x, a.y, a.heading, a.length, a.width)
             for a in states]
    out = []
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            pen = simcore.obb_overlap(boxes[i], boxes[j])
            if pen > 0:
                out.append((step, states[i].id, states[j].id, pen))
    return out


def idm_accel_reference(params, speed, gap, speed_delta):
    """IDM acceleration with the braking term 2 sqrt(a b) and both clamps
    evaluated in place, by the builtin max: the formula simcore.idm_accel
    must equal bit for bit."""
    p = params
    free = (speed / p.desired_speed) ** p.accel_exponent
    if math.isinf(gap):
        interaction = 0.0
    else:
        s_star = p.min_gap + max(0.0, speed * p.time_headway +
                                 speed * speed_delta /
                                 (2.0 * math.sqrt(p.max_accel *
                                                  p.comfortable_decel)))
        gap = max(gap, 0.1)
        interaction = (s_star / gap) ** 2
    return p.max_accel * (1.0 - free - interaction)


def leader_gap_scan(world, me, edge_id, lane_index, s):
    """(bumper gap, leader speed) by scanning every vehicle and obstacle on
    the lane, then on the vehicle's next edge; the first candidate wins
    ties."""
    next_edge = None
    if me.route and me.edge_id in me.route:
        i = me.route.index(me.edge_id)
        if i + 1 < len(me.route):
            next_edge = me.route[i + 1]
    else:
        succ = successors_scan(world.net, me.edge_id)
        next_edge = succ[0] if succ else None
    best_gap, best_speed = math.inf, 0.0

    def consider(center_dist, other_len, other_speed):
        nonlocal best_gap, best_speed
        gap = center_dist - (me.length + other_len) / 2.0
        if gap < best_gap:
            best_gap, best_speed = gap, other_speed

    for other in world.vehicles.values():
        if other.id != me.id and other.active and other.edge_id == edge_id \
                and other.lane_index == lane_index and other.s > s:
            consider(other.s - s, other.length, other.speed)
    for eid, li, obj_s, obj in world.obstacles:
        if eid == edge_id and li == lane_index and obj_s > s:
            consider(obj_s - s, max(obj.footprint), 0.0)

    by_id = {}
    for e in world.net.edges:
        by_id.setdefault(e.id, e)
    edge = by_id[edge_id]
    lane = _lane_line(world.net, edge, lane_index)
    remaining = sum(math.dist(lane[i], lane[i + 1])
                    for i in range(len(lane) - 1)) - s
    if next_edge is not None and remaining < 150.0:
        li2 = min(lane_index, by_id[next_edge].num_lanes - 1)
        for other in world.vehicles.values():
            if other.id != me.id and other.active and \
                    other.edge_id == next_edge and other.lane_index == li2:
                consider(remaining + other.s, other.length, other.speed)
        for eid, li, obj_s, obj in world.obstacles:
            if eid == next_edge and li == li2:
                consider(remaining + obj_s, max(obj.footprint), 0.0)
    return best_gap, best_speed


def bv_control_scan(world, lanes, veh):
    """(accel, lane change) of a background vehicle by evaluating every lane
    option: the first whose IDM acceleration beats the current lane's by the
    threshold, with room behind and no follower forced to brake harder than
    it comfortably can. Leader gaps and options come from the package, which
    has its own oracles for them."""
    from scenarioforge import simcore
    me, p = veh, veh.params
    graph = world.net.lane_graph
    gap, lead_v = simcore._leader_gap(graph, lanes, veh, me.lane_index)
    accel_here = simcore.idm_accel(p, me.speed, gap, me.speed - lead_v)
    if veh.lane_change_cooldown > 0:
        return accel_here, 0
    for opt in simcore._lane_options(graph, lanes, veh):
        accel_there = simcore.idm_accel(p, me.speed, opt["gap"],
                                        me.speed - opt["leader_speed"])
        if accel_there - accel_here < p.lane_change_threshold or \
                opt["rear_gap"] < p.min_gap:
            continue
        follower = opt["follower"]
        if follower is not None and simcore.idm_accel(
                follower.params, follower.speed, opt["rear_gap"],
                follower.speed - me.speed) < \
                -follower.params.comfortable_decel:
            continue
        return accel_there, opt["direction"]
    return accel_here, 0


def follower_scan(world, me_id, edge_id, lane_index, s):
    """The active vehicle with the largest s <= s on the lane, first in world
    order on ties."""
    best = None
    for other in world.vehicles.values():
        if other.id == me_id or not other.active:
            continue
        if other.edge_id == edge_id and other.lane_index == lane_index and \
                other.s <= s and (best is None or other.s > best.s):
            best = other
    return best


def _lane_line(net, edge, lane_index, lane_width=3.2):
    if len(edge.shape) >= 2:
        axis = edge.shape
    else:
        by_id = {n.id: n for n in net.nodes}
        a, b = by_id[edge.from_node], by_id[edge.to_node]
        axis = ((a.x, a.y), (b.x, b.y))
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
        out.append((x + dy / norm * off, y - dx / norm * off))
    return out


def hand_trace(steps, start, dt=0.1, collisions=()):
    """A trace written by hand: a namespace of dt, steps (one AgentState
    list per step), start (id -> AgentState before step 0) and collisions,
    which the references below read, and trace, the SimulationTrace that
    records those steps."""
    from types import SimpleNamespace

    from scenarioforge import simcore
    trace = simcore.SimulationTrace(dt=dt, collisions=list(collisions),
                                    start=dict(start))
    for states in steps:
        trace.record(states)
    return SimpleNamespace(dt=dt, steps=steps, start=start,
                           collisions=list(collisions), trace=trace)


def _records_json(steps, accel):
    """One json.dumps(..., sort_keys=True) per state, accel(k, state) giving
    the accel of the state at step k. A trace holds its numbers as doubles,
    so each is spelled as float(v)."""
    lines = []
    for k, states in enumerate(steps):
        for a in states:
            lines.append(json.dumps({
                "step": k, "id": a.id, "x": round(float(a.x), 4),
                "y": round(float(a.y), 4), "speed": round(float(a.speed), 4),
                "heading": round(float(a.heading), 4),
                "accel": round(accel(k, a), 4)}, sort_keys=True))
    return "\n".join(lines) + "\n"


def export_trace_json(ref):
    """Trace records with one json.dumps(..., sort_keys=True) per record: the
    encoding export_trace formats directly. A record's accel is the speed
    change per dt since the agent's previous record, or since its start
    speed."""
    last = {agent_id: a.speed for agent_id, a in ref.start.items()}

    def accel(k, a):
        acc = (a.speed - last[a.id]) / ref.dt
        last[a.id] = a.speed
        return acc
    return _records_json(ref.steps, accel)


def trace_hash_json(ref):
    """SimulationTrace.hash as one json.dumps(..., sort_keys=True) over every
    step, with each number rounded by round(float(v), 6)."""
    payload = []
    for states in ref.steps:
        payload.append([(a.id, *(round(float(v), 6)
                                 for v in (a.x, a.y, a.speed, a.heading)))
                        for a in states])
    blob = json.dumps({"dt": ref.dt, "steps": payload,
                       "collisions": [(c.step, c.agent_a, c.agent_b)
                                      for c in ref.collisions]},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# The references below are the network code without the lazy lane geometry
# and the serializer's fast paths, kept to pin the new code to their bytes
# and floats.

_ATTR_ESCAPES = (("&", "&amp;"), ("<", "&lt;"), ('"', "&quot;"),
                 ("\t", "&#9;"), ("\n", "&#10;"), ("\r", "&#13;"))


def _attr(value):
    for char, ref in _ATTR_ESCAPES:
        value = value.replace(char, ref)
    return value


def _fmt(v):
    return repr(float(v))


def serialize_sumo_xml_reference(net):
    """(nodes document, edges document): every attribute escaped with six
    replace calls, every number through repr(float(v)), and an edge's shape
    written as its last attribute when it has one."""
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
        if len(e.shape) > 0:
            shape = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in e.shape)
            head += f' shape="{shape}"'
        edges_lines.append(head + "/>")
    edges_lines.append("</edges>")
    return "\n".join(nodes_lines) + "\n", "\n".join(edges_lines) + "\n"


def _fold_length(points):
    total = 0
    for i in range(len(points) - 1):
        total += math.dist(points[i], points[i + 1])
    return total


def _offset_axis(axis, edge, lane_index, lane_width=3.2):
    """One lane's centerline, with the segment normals computed anew for
    every lane."""
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
        rx, ry = dy / norm, -dx / norm
        out.append((x + rx * off, y + ry * off))
    return tuple(out)


def lane_graph_reference(net):
    """(lanes, edge_length) of the eager LaneGraph build: lanes maps
    (edge id, lane index) to (points, vertex arc lengths, length) for every
    lane, each offset on its own; the first edge with an id wins."""
    nodes = {}
    for n in net.nodes:
        nodes.setdefault(n.id, n)
    lanes, edge_length = {}, {}
    for e in net.edges:
        if len(e.shape) >= 2:
            axis = e.shape
        else:
            a, b = nodes[e.from_node], nodes[e.to_node]
            axis = ((a.x, a.y), (b.x, b.y))
        edge_length.setdefault(e.id, _fold_length(axis))
        for li in range(e.num_lanes):
            points = _offset_axis(axis, e, li)
            cum = [0.0]
            for i in range(len(points) - 1):
                cum.append(cum[-1] + math.dist(points[i], points[i + 1]))
            lanes.setdefault((e.id, li),
                             (points, tuple(cum), _fold_length(points)))
    return lanes, edge_length


def route_length_argmax(net):
    """(route_length, Dijkstra count) of network_stats when every source is
    the node with the largest upper bound: the loop without lower bounds."""
    from scenarioforge import netgen
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
    index = {v: i for i, v in enumerate(v for v in adj if v in comp)}
    shortest = [{} for _ in index]
    edge_length = net.lane_graph.edge_length
    for e in net.edges:
        if e.from_node in comp:
            out, to = shortest[index[e.from_node]], index[e.to_node]
            length = edge_length[e.id]
            if to not in out or out[to] > length:
                out[to] = length
    succ = [tuple(out.items()) for out in shortest]
    pred = [[] for _ in index]
    for v, out in enumerate(succ):
        for to, length in out:
            pred[to].append((v, length))

    n = len(succ)
    ub = [math.inf] * n
    route_length = 0.0
    runs = 0
    while n:
        u = max(range(n), key=ub.__getitem__)
        if ub[u] * (1 + 1e-9) < route_length:
            break
        fwd, ecc = netgen._dijkstra(succ, u)
        route_length = max(route_length, ecc)
        bwd, _ = netgen._dijkstra(pred, u)
        runs += 1
        for v in range(n):
            if fwd[v] < math.inf and bwd[v] < math.inf:
                ub[v] = min(ub[v], bwd[v] + ecc)
        ub[u] = -math.inf
    return route_length, runs


def run_comparison_reference(cfg, n_networks, n_inits):
    """The comparison report from direct calls of the layer functions, the
    way the harness ran before it went through the pipeline's stage chain:
    each network interpreted and built once, each init placed by both arms,
    and the AV scored along its planned route."""
    from scenarioforge import (compgen, evalkit, interpreter, ir, netgen,
                               pipeline, simcore)

    def score_av(bundle, trace):
        net = bundle.network
        av = next(a for a in bundle.agents if a.role == "AV")
        route = simcore.plan_route(net, av.edge_id)
        return evalkit.performance(
            trace, simcore.route_length(net, route),
            max(e.speed for e in net.edges), av_id=av.id)

    kb = interpreter.default_knowledge_base()
    provider = pipeline.make_provider(cfg)
    fixtures = pipeline._COMPARISON_FIXTURES
    ours, baseline = [], []
    for ni in range(n_networks):
        text = fixtures[ni % len(fixtures)]
        desc = interpreter.interpret(ir.TextRequest(text), kb, provider,
                                     seed=ni)
        net = netgen.compile_network(desc.road, kb, provider, seed=ni)
        for vi in range(n_inits):
            seed = cfg.global_seed + ni * 100 + vi
            constraints = compgen.PlacementConstraints(
                min_gap=cfg.min_gap, max_agents=cfg.max_agents, seed=seed)
            objects = tuple(compgen.generate_objects(desc, net, constraints))
            for runs, agents in (
                    (ours, compgen.generate_agents(desc, net, constraints)),
                    (baseline, compgen.random_trip_placement(
                        net, len(desc.agents), seed=seed))):
                bundle = ir.ScenarioBundle(
                    description=desc, network=net, agents=tuple(agents),
                    objects=objects, seed=seed)
                trace = simcore.run(bundle, cfg.duration, cfg.dt)
                runs.append(score_av(bundle, trace))
    return evalkit.compare_pipelines(ours, baseline)


# The simulator once rebuilt a frozen AgentState for every vehicle at every
# step. That integration is kept here verbatim, on a vehicle that holds the
# state and lends its fields to the package's control functions, as the
# reference that the in-place update must equal by repr.

class StateVehicle:
    """A vehicle whose state is an AgentState, replaced every step. Reads of
    the agent fields (id, edge_id, s, speed, ...) go to the state."""

    def __init__(self, state, params, route=()):
        self.state, self.params, self.route = state, params, route
        self.active, self.lane_change_cooldown = True, 0.0

    def __getattr__(self, name):
        return getattr(self.state, name)


def _advance_vehicle(world, veh, accel, lane_change, dt):
    from scenarioforge import simcore
    from scenarioforge.compgen import AgentState
    graph = world.net.lane_graph
    me = veh.state
    edge_id = me.edge_id
    lane_index = me.lane_index
    if lane_change != 0:
        li = lane_index + lane_change
        if 0 <= li < graph.edges[edge_id].num_lanes:
            lane_index = li
            veh.lane_change_cooldown = 2.0
    accel = max(-8.0, min(accel, veh.params.max_accel))
    v_new = max(0.0, me.speed + accel * dt)
    s_new = me.s + v_new * dt

    path = graph.lanes[(edge_id, lane_index)]
    while s_new > path.length:
        nxt = simcore._next_edge(graph, veh.route, edge_id)
        if nxt is None:
            veh.active = False
            s_new = path.length
            v_new = 0.0
            break
        s_new -= path.length
        edge_id = nxt
        lane_index = min(lane_index, graph.edges[edge_id].num_lanes - 1)
        path = graph.lanes[(edge_id, lane_index)]
    x, y, heading = path.point_at(s_new)
    veh.lane_change_cooldown = max(0.0, veh.lane_change_cooldown - dt)
    veh.state = AgentState(me.id, me.kind, me.role, edge_id, lane_index,
                           s_new, v_new, heading, x, y, me.length, me.width,
                           me.color)


def _advance_vru(veh, dt):
    from scenarioforge.compgen import AgentState
    me = veh.state
    rad = math.radians(me.heading)
    veh.state = AgentState(me.id, me.kind, me.role, me.edge_id,
                           me.lane_index, me.s, me.speed, me.heading,
                           me.x + me.speed * math.cos(rad) * dt,
                           me.y + me.speed * math.sin(rad) * dt,
                           me.length, me.width, me.color)


def av_policy(observation: dict) -> tuple[float, int]:
    """Rule policy for the vehicle under test.

    observation: speed, desired_speed, gap, leader_speed, max_accel,
    comfortable_decel, min_gap, lane_options (list of lane-change candidates
    with their gaps). Returns (accel, lane_change in {-1, 0, +1}).
    """
    from scenarioforge import simcore
    v = observation["speed"]
    v0 = observation["desired_speed"]
    gap = observation["gap"]
    lead_v = observation["leader_speed"]
    a_max = observation["max_accel"]
    b = observation["comfortable_decel"]
    s0 = observation["min_gap"]

    closing = v - lead_v
    ttc = gap / closing if (closing > 0 and not math.isinf(gap)) else math.inf

    lane_change = 0
    if not math.isinf(gap) and gap < 3.0 * s0 + v * 2.0:
        options = observation.get("lane_options", [])
        prefer = [o for o in options if o["gap"] > gap + 2.0 * s0
                  and o["rear_gap"] > s0]
        if prefer and (gap < 2.0 * s0 + v * 1.0 or
                       ttc < simcore.TTC_BRAKE_THRESHOLD):
            prefer.sort(key=lambda o: -o["gap"])
            lane_change = prefer[0]["direction"]

    if ttc < simcore.TTC_BRAKE_THRESHOLD or (not math.isinf(gap) and gap < s0):
        return -b, lane_change
    accel = simcore.idm_accel(simcore._policy_params(v0, a_max, b, s0), v, gap,
                              closing)
    return max(-b, min(a_max, accel)), lane_change


def av_control_eager(graph, lanes, veh):
    """The AV's control as the simulator once computed it: an observation of
    the vehicle's speed and four parameters, its leader and its lane options,
    built every step, handed to av_policy."""
    from scenarioforge import simcore
    gap, lead_v = simcore._leader_gap(graph, lanes, veh, veh.lane_index)
    return av_policy({"speed": veh.speed,
                      "desired_speed": veh.params.desired_speed,
                      "gap": gap, "leader_speed": lead_v,
                      "max_accel": veh.params.max_accel,
                      "comfortable_decel": veh.params.comfortable_decel,
                      "min_gap": veh.params.min_gap,
                      "lane_options": simcore._lane_options(graph, lanes,
                                                            veh)})


def step_reference(world, dt):
    """simcore.step on a world of StateVehicles: the package's background
    vehicle control, the AV rule above on eagerly built lane options, then
    the AgentState integration above."""
    from scenarioforge import simcore
    lanes = simcore._LaneIndex(world)
    controls = {}
    for vid, veh in world.vehicles.items():
        if not veh.active:
            continue
        me = veh.state
        if me.kind in simcore.VRU_KINDS:
            controls[vid] = None
        elif me.role == "AV":
            controls[vid] = av_control_eager(world.net.lane_graph, lanes, veh)
        else:
            controls[vid] = simcore._bv_control(world.net.lane_graph, lanes,
                                                veh)

    for vid, veh in world.vehicles.items():
        if not veh.active:
            continue
        ctl = controls[vid]
        if ctl is None:
            _advance_vru(veh, dt)
        else:
            accel, lane_change = ctl
            if veh.lane_change_cooldown > 0:
                lane_change = 0
            _advance_vehicle(world, veh, accel, lane_change, dt)


def build_world_reference(bundle):
    """simcore.build_world with a StateVehicle per agent."""
    from scenarioforge import simcore
    net = bundle.network
    vehicles = {}
    for a in bundle.agents:
        edge = net.lane_graph.edges[a.edge_id]
        vehicles[a.id] = StateVehicle(
            a, simcore._default_params(a.kind, edge.speed),
            simcore.plan_route(net, a.edge_id) if a.role == "AV" else ())
    return simcore.World(net=net, vehicles=vehicles,
                         obstacles=simcore._project_objects(net,
                                                            bundle.objects))


# The simulator also once kept these series for every vehicle at every step,
# and the trace export and the AV scoring read them. They are kept here as
# the reference that both, which now derive everything from the trace's
# speeds, must equal bit for bit.

def run_with_series(bundle, duration, dt):
    """simcore.run on the AgentState reference above, plus the per-vehicle
    bookkeeping: a namespace of dt, steps (AgentState lists), start (id ->
    state before step 0), collisions, odometry (id -> m), accel_series (id
    -> m/s^2 per step) and jerk_series (id -> m/s^3 from the second step
    on). A vehicle that left the network counts 0.0 m/s at every later
    step."""
    from types import SimpleNamespace

    from scenarioforge import simcore
    world = build_world_reference(bundle)
    ref = SimpleNamespace(dt=dt, steps=[], collisions=[],
                          start={vid: v.state
                                 for vid, v in world.vehicles.items()},
                          odometry=dict.fromkeys(world.vehicles, 0.0),
                          accel_series={vid: [] for vid in world.vehicles},
                          jerk_series={vid: [] for vid in world.vehicles})
    prev_speed = {vid: v.state.speed for vid, v in world.vehicles.items()}
    prev_accel = {}
    seen = set()
    for k in range(math.ceil(duration / dt)):
        step_reference(world, dt)
        states = [v.state for v in world.vehicles.values() if v.active]
        ref.steps.append(states)
        for ev in simcore.detect_collisions(states, step=k):
            if (ev.agent_a, ev.agent_b) not in seen:
                seen.add((ev.agent_a, ev.agent_b))
                ref.collisions.append(ev)
        for vid, veh in world.vehicles.items():
            v_now = veh.state.speed if veh.active else 0.0
            ref.odometry[vid] += v_now * dt
            accel = (v_now - prev_speed[vid]) / dt
            ref.accel_series[vid].append(accel)
            if vid in prev_accel:
                ref.jerk_series[vid].append((accel - prev_accel[vid]) / dt)
            prev_accel[vid] = accel
            prev_speed[vid] = v_now
    return ref


def export_series_json(ref):
    """The trace records of a run_with_series run, accel read from its
    series."""
    return _records_json(ref.steps, lambda k, a: ref.accel_series[a.id][k])


def performance_series(ref, route_len, speed_limit, av_id):
    """evalkit.performance read from the series of a run_with_series run:
    distance from the odometry, jerks from the jerk series, and the route
    finished at the first step whose summed distance reaches it."""
    from scenarioforge import evalkit
    from scenarioforge.ir import fold_sum
    distance = ref.odometry[av_id]
    route_completion = max(0.0, min(1.0, distance / route_len)) \
        if route_len > 0 else 0.0
    min_ttc = math.inf
    for states in ref.steps:
        av = next((a for a in states if a.id == av_id), None)
        if av is None:
            continue
        rad = math.radians(av.heading)
        fx, fy = math.cos(rad), math.sin(rad)
        for other in states:
            if other.id == av_id:
                continue
            dx, dy = other.x - av.x, other.y - av.y
            ahead = dx * fx + dy * fy
            lateral = abs(-dx * fy + dy * fx)
            if ahead <= 0 or lateral > 2.0:
                continue
            gap = ahead - (av.length + other.length) / 2.0
            closing = av.speed - other.speed
            if gap > 0 and closing > 0:
                min_ttc = min(min_ttc, gap / closing)
    safety = 1.0 if math.isinf(min_ttc) else min(1.0,
                                                  min_ttc / evalkit.TTC_REF)
    speeds = [a.speed for states in ref.steps for a in states
              if a.id == av_id]
    mean_speed = fold_sum(speeds) / len(speeds) if speeds else 0.0
    efficiency = min(1.0, mean_speed / speed_limit) if speed_limit > 0 else 0.0
    jerks = ref.jerk_series[av_id]
    mean_jerk = fold_sum(abs(j) for j in jerks) / len(jerks) if jerks else 0.0
    comfort = 1.0 - min(1.0, mean_jerk / evalkit.JERK_REF)
    w_s, w_e, w_c = evalkit.SCORE_WEIGHTS
    driving_score = 100.0 * (w_s * safety + w_e * efficiency + w_c * comfort)
    collision = any(av_id in (c.agent_a, c.agent_b) for c in ref.collisions)
    completed = route_len > 0 and distance >= route_len - 1e-9
    n_steps = len(ref.steps)
    if completed:
        acc = 0.0
        for k, states in enumerate(ref.steps):
            av = next((a for a in states if a.id == av_id), None)
            acc += (av.speed if av else 0.0) * ref.dt
            if acc >= route_len - 1e-9:
                n_steps = k + 1
                break
    return evalkit.PerformanceReport(
        route_completion=route_completion, driving_score=driving_score,
        total_score=driving_score * route_completion,
        use_time=n_steps * ref.dt, success=completed and not collision,
        collision=collision)


# The batch once kept every run's bundle and scored the batch from
# (description, bundle) pairs at its end. These are that fold, kept as the
# reference the row fold (evalkit.scenario_row, conformity, diversity) must
# equal by repr.

def conformity_pairs(pairs, outcomes=None):
    """evalkit.conformity over (ScenarioDescription, ScenarioBundle) pairs
    of the runs that produced a bundle."""
    from scenarioforge import evalkit
    from scenarioforge.ir import fold_sum

    if outcomes is None:
        outcomes = [{"ok": True}] * len(pairs)
    scene_hits, veh_accs, obj_accs = [], [], []
    for desc, bundle in pairs:
        scene_hits.append(1.0 if evalkit.classify_bundle(bundle)
                          == desc.scene_type else 0.0)
        veh_accs.append(evalkit._vehicle_attr_acc(desc, bundle))
        obj_accs.append(evalkit._static_attr_acc(desc, bundle))
    taxonomy = {k: 0 for k in evalkit.FAILURE_KINDS}
    ok = 0
    for rec in outcomes:
        if rec.get("ok"):
            ok += 1
        else:
            kind = rec.get("failure", "RuntimeError")
            taxonomy[kind if kind in taxonomy else "RuntimeError"] += 1

    def avg(vals):
        return fold_sum(vals) / len(vals) if vals else 1.0

    return evalkit.ConformityReport(
        scene_type_acc=avg(scene_hits),
        vehicle_attr_acc=avg(veh_accs),
        static_obj_attr_acc=avg(obj_accs),
        success_rate=ok / len(outcomes) if outcomes else 1.0,
        failure_taxonomy_counts=taxonomy)


def diversity_from_bundles_reference(bundles):
    """evalkit.diversity over scenario dicts read off the bundles."""
    from scenarioforge import evalkit

    rows = []
    for b in bundles:
        stats = b.network.stats
        rows.append({"lanes": stats.total_lanes, "edges": stats.total_edges,
                     "route_length": stats.route_length,
                     "agents": list(b.agents), "objects": len(b.objects)})
    return evalkit.diversity(rows)


def project_objects_scan(net, objects):
    """simcore._project_objects measuring every lane of the network: each
    cone or barrier snaps to the nearest 2 m sample of any lane, the first
    in inventory order on ties, when that sample is within 2.5 m."""
    out = []
    graph = net.lane_graph
    for obj in objects:
        if obj.kind not in ("Cone", "Barrier"):
            continue
        best = None
        for e, li in graph.inventory:
            path = graph.lanes[(e.id, li)]
            L = path.length
            n_samples = max(2, int(L / 2.0))
            for k in range(n_samples + 1):
                s = L * k / n_samples
                x, y, _ = path.point_at(s)
                d = math.dist((x, y), (obj.x, obj.y))
                if best is None or d < best[0]:
                    best = (d, e.id, li, s)
        if best is not None and best[0] <= 2.5:
            out.append((best[1], best[2], best[3], obj))
    return out
