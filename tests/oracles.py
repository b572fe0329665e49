"""Independent reference implementations used to check the package's math.

These deliberately avoid the library's own helpers: lengths are recomputed
from raw geometry and shortest paths use Floyd-Warshall over dense matrices,
or networkx where a result must match the library bit for bit.
"""
import json
import math


def _edge_len(net, edge) -> float:
    if edge.lanes and len(edge.lanes[0].shape) >= 2:
        pts = edge.lanes[0].shape
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
        if e.lanes and len(e.lanes[0].shape) >= 2:
            pts = e.lanes[0].shape
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
    """(from_edge, to_edge, from_lane, to_lane) for every ordered edge pair
    meeting at a node, U-turns excluded, lanes paired by index."""
    out = []
    for e_in in edges:
        for e_out in edges:
            if e_in.id == e_out.id or e_in.to_node != e_out.from_node:
                continue
            if e_out.to_node == e_in.from_node and \
                    e_in.from_node != e_in.to_node:
                continue
            for li in range(min(e_in.num_lanes, e_out.num_lanes)):
                out.append((e_in.id, e_out.id, li, li))
    return out


def successors_scan(net, edge_id):
    """Edges a vehicle may take after edge_id: the connected ones, else every
    edge leaving its end node that does not lead straight back."""
    edge = next(e for e in net.edges if e.id == edge_id)
    out = sorted({c.to_edge for c in net.connections
                  if c.from_edge == edge_id})
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


def leader_gap_scan(world, veh, edge_id, lane_index, s):
    """(bumper gap, leader speed) by scanning every vehicle and obstacle on
    the lane, then on the vehicle's next edge; the first candidate wins
    ties."""
    me = veh.state
    next_edge = None
    if veh.route and me.edge_id in veh.route:
        i = veh.route.index(me.edge_id)
        if i + 1 < len(veh.route):
            next_edge = veh.route[i + 1]
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
        st = other.state
        if st.id != me.id and other.active and st.edge_id == edge_id \
                and st.lane_index == lane_index and st.s > s:
            consider(st.s - s, st.length, st.speed)
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
            st = other.state
            if st.id != me.id and other.active and \
                    st.edge_id == next_edge and st.lane_index == li2:
                consider(remaining + st.s, st.length, st.speed)
        for eid, li, obj_s, obj in world.obstacles:
            if eid == next_edge and li == li2:
                consider(remaining + obj_s, max(obj.footprint), 0.0)
    return best_gap, best_speed


def follower_scan(world, me_id, edge_id, lane_index, s):
    """The active vehicle with the largest s <= s on the lane, first in world
    order on ties."""
    best = None
    for other in world.vehicles.values():
        st = other.state
        if st.id == me_id or not other.active:
            continue
        if st.edge_id == edge_id and st.lane_index == lane_index and \
                st.s <= s and (best is None or st.s > best.state.s):
            best = other
    return best


def _lane_line(net, edge, lane_index, lane_width=3.2):
    if edge.lanes and len(edge.lanes[0].shape) >= 2:
        axis = edge.lanes[0].shape
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


def export_trace_json(trace):
    """Trace records with one json.dumps(..., sort_keys=True) per record: the
    encoding export_trace formats directly."""
    lines = []
    for k, states in enumerate(trace.steps):
        for a in states:
            accel = trace.accel_series.get(a.id, [])
            acc = accel[k] if k < len(accel) else 0.0
            lines.append(json.dumps({
                "step": k, "id": a.id, "x": round(a.x, 4), "y": round(a.y, 4),
                "speed": round(a.speed, 4), "heading": round(a.heading, 4),
                "accel": round(acc, 4)}, sort_keys=True))
    return "\n".join(lines) + "\n"
