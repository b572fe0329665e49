"""Deterministic closed-loop micro-simulation.

Background vehicles follow an IDM car-following law with a threshold-based
lane-change rule; the vehicle under test runs a rule policy with a TTC-based
braking onset that hint tags can move earlier. Collisions are oriented
bounding-box overlaps (separating axis test) recorded per step.

Lane geometry comes from the network's compiled LaneGraph. Each step indexes
the active vehicles by lane, sorted by arc length, so leader and follower
lookups bisect one lane instead of scanning every vehicle, and a broad phase
on the boxes' axis-aligned extents runs before the exact overlap test. Both
return exactly what the full scans return, ties included.
"""
from __future__ import annotations

import bisect
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

from . import netgen
from .compgen import AgentState, PlacedObject
from .ir import ScenarioBundle

DEFAULT_DT = 0.1
TTC_BRAKE_THRESHOLD = 3.0   # s; AV braking onset
LOOKAHEAD_HORIZON = 150.0   # m


@dataclass(frozen=True)
class BehaviorParams:
    desired_speed: float = 13.89
    max_accel: float = 1.5
    comfortable_decel: float = 2.0
    min_gap: float = 2.0
    time_headway: float = 1.5
    accel_exponent: float = 4.0
    lane_change_threshold: float = 0.3  # m/s^2 advantage

    def __post_init__(self):
        if min(self.desired_speed, self.max_accel, self.comfortable_decel,
               self.min_gap, self.time_headway,
               self.lane_change_threshold) <= 0:
            raise ValueError("behavior parameters must be positive")
        if self.accel_exponent < 1:
            raise ValueError("accel_exponent must be >= 1")


@dataclass(frozen=True)
class CollisionEvent:
    step: int
    agent_a: str
    agent_b: str
    penetration: float


@dataclass
class SimulationTrace:
    dt: float
    steps: list = field(default_factory=list)        # list[list[AgentState]]
    collisions: list = field(default_factory=list)   # list[CollisionEvent]
    odometry: dict = field(default_factory=dict)     # id -> meters
    accel_series: dict = field(default_factory=dict)  # id -> list[m/s^2]
    jerk_series: dict = field(default_factory=dict)   # id -> list[m/s^3]

    def hash(self) -> str:
        payload = []
        for states in self.steps:
            payload.append([(a.id, round(a.x, 6), round(a.y, 6),
                             round(a.speed, 6), round(a.heading, 6))
                            for a in states])
        blob = json.dumps({"dt": self.dt, "steps": payload,
                           "collisions": [(c.step, c.agent_a, c.agent_b)
                                          for c in self.collisions]},
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# IDM

def idm_accel(params: BehaviorParams, speed: float, gap: float,
              speed_delta: float) -> float:
    """IDM acceleration for the given bumper gap and approach rate.

    gap may be math.inf (free road). speed_delta = own speed - leader speed.
    """
    p = params
    free = (speed / p.desired_speed) ** p.accel_exponent \
        if p.desired_speed > 0 else 0.0
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


# ---------------------------------------------------------------------------
# oriented-rectangle collision (separating axis test)

def obb_corners(x, y, heading_deg, length, width):
    rad = math.radians(heading_deg)
    c, s = math.cos(rad), math.sin(rad)
    hl, hw = length / 2.0, width / 2.0
    return [(x + c * dx - s * dy, y + s * dx + c * dy)
            for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))]


def obb_overlap(corners_a, corners_b) -> float:
    """Penetration depth of two convex quads; 0.0 when separated."""
    min_overlap = math.inf
    for corners in (corners_a, corners_b):
        for i in range(4):
            ex = corners[(i + 1) % 4][0] - corners[i][0]
            ey = corners[(i + 1) % 4][1] - corners[i][1]
            norm = math.hypot(ex, ey)
            if norm == 0:
                continue
            ax, ay = -ey / norm, ex / norm
            pa = [ax * px + ay * py for px, py in corners_a]
            pb = [ax * px + ay * py for px, py in corners_b]
            overlap = min(max(pa), max(pb)) - max(min(pa), min(pb))
            if overlap <= 0:
                return 0.0
            min_overlap = min(min_overlap, overlap)
    return min_overlap


# Boxes whose axis-aligned extents are further apart than this are separated
# along one of their own edge normals by at least BROAD_PHASE_MARGIN / sqrt(2)
# (the normals of two rectangles are at most 90 degrees apart), which is far
# above the rounding of the exact test at map coordinates, so skipping them
# drops no event the exact test would report.
BROAD_PHASE_MARGIN = 1e-3   # m


def detect_collisions(states, step: int = 0) -> list[CollisionEvent]:
    """Pairwise OBB overlap events among the given agent states, in (i, j)
    order.

    A sort-and-sweep over the boxes' x-extents, then a y-extent check, picks
    the pairs that get the exact separating axis test.
    """
    boxes, extents = [], []
    for a in states:
        box = obb_corners(a.x, a.y, a.heading, a.length, a.width)
        xs = [p[0] for p in box]
        ys = [p[1] for p in box]
        boxes.append(box)
        extents.append((min(xs), max(xs), min(ys), max(ys)))
    by_x = sorted(range(len(states)), key=lambda i: extents[i][0])
    pairs = []
    for k, i in enumerate(by_x):
        _, x_hi, y_lo, y_hi = extents[i]
        for j in by_x[k + 1:]:
            o_x_lo, _, o_y_lo, o_y_hi = extents[j]
            if o_x_lo > x_hi + BROAD_PHASE_MARGIN:
                break
            if o_y_lo > y_hi + BROAD_PHASE_MARGIN or \
                    y_lo > o_y_hi + BROAD_PHASE_MARGIN:
                continue
            pairs.append((i, j) if i < j else (j, i))
    events = []
    for i, j in sorted(pairs):
        pen = obb_overlap(boxes[i], boxes[j])
        if pen > 0:
            events.append(CollisionEvent(step, states[i].id, states[j].id,
                                         pen))
    return events


# ---------------------------------------------------------------------------
# world model

@dataclass
class _Vehicle:
    state: AgentState
    params: BehaviorParams
    active: bool = True
    hints: tuple[str, ...] = ()
    route: tuple[str, ...] = ()
    lane_change_cooldown: float = 0.0


@dataclass
class World:
    net: netgen.RoadNetwork
    vehicles: dict            # id -> _Vehicle
    obstacles: list           # (edge_id, lane_index, s, PlacedObject)
    time: float = 0.0
    step_index: int = 0


class _LaneIndex:
    """Active vehicles bucketed by (edge_id, lane_index) and sorted by s, and
    the obstacles bucketed alike.

    Built at the start of a step from the vehicle states, so it stays valid
    for the whole control phase, which changes no state.
    """

    def __init__(self, world: World):
        buckets: dict = {}
        self.longest = 0.0
        for order, veh in enumerate(world.vehicles.values()):
            if veh.active:
                st = veh.state
                buckets.setdefault((st.edge_id, st.lane_index), []).append(
                    (st.s, order, veh))
                self.longest = max(self.longest, st.length)
        # (s values, (s, world order, vehicle) entries) per lane
        self.vehicles = {}
        for key, bucket in buckets.items():
            bucket.sort(key=lambda entry: entry[:2])
            self.vehicles[key] = ([entry[0] for entry in bucket], bucket)
        self.obstacles: dict = {}
        for eid, li, obj_s, obj in world.obstacles:
            self.obstacles.setdefault((eid, li), []).append(
                (obj_s, max(obj.footprint)))

    def nearest_vehicle(self, me: AgentState, key, after: float,
                        offset: float) -> tuple[float, float]:
        """(bumper gap, speed) of the vehicle with the smallest gap among
        those on lane key with s > after, at center distance s + offset.
        Ties go to the first vehicle in world order.

        IEEE subtraction is addition of the negated operand, so an offset of
        -s_me gives exactly the center distance s - s_me.
        """
        best_gap, best_speed, best_order = math.inf, 0.0, -1
        if key not in self.vehicles:
            return best_gap, best_speed
        s_values, bucket = self.vehicles[key]
        # a vehicle at center distance c has a gap of at least c - reach, and
        # c only grows along the bucket: once c - reach exceeds the best gap,
        # no later vehicle can win or tie
        reach = (me.length + self.longest) / 2.0
        for k in range(bisect.bisect_right(s_values, after), len(bucket)):
            s, order, other = bucket[k]
            center = s + offset
            if center - reach > best_gap:
                break
            st = other.state
            if st.id == me.id:
                continue
            gap = center - (me.length + st.length) / 2.0
            if gap < best_gap or (gap == best_gap and order < best_order):
                best_gap, best_speed, best_order = gap, st.speed, order
        return best_gap, best_speed

    def nearest_obstacle(self, me: AgentState, key, after: float,
                         offset: float) -> float:
        """nearest_vehicle for the obstacles, which have speed 0."""
        best_gap = math.inf
        for obj_s, size in self.obstacles.get(key, ()):
            if obj_s > after:
                gap = (obj_s + offset) - (me.length + size) / 2.0
                if gap < best_gap:
                    best_gap = gap
        return best_gap

    def follower(self, me_id: str, key, s: float) -> Optional[_Vehicle]:
        """The vehicle with the largest s <= s on lane key, first in world
        order on ties."""
        if key not in self.vehicles:
            return None
        s_values, bucket = self.vehicles[key]
        best = None
        for k in range(bisect.bisect_right(s_values, s) - 1, -1, -1):
            other_s, _, other = bucket[k]
            if other.state.id == me_id:
                continue
            if best is not None and other_s != best_s:
                break
            best, best_s = other, other_s
        return best


def _next_edge(graph: netgen.LaneGraph, route: tuple[str, ...],
               edge_id: str) -> Optional[str]:
    if route and edge_id in route:
        i = route.index(edge_id)
        return route[i + 1] if i + 1 < len(route) else None
    succ = graph.successors[edge_id]
    return succ[0] if succ else None


def _project_objects(net: netgen.RoadNetwork, objects) -> list:
    """Snap blocking objects (cones, barriers) onto the nearest lane point."""
    out = []
    for obj in objects:
        if obj.kind not in ("Cone", "Barrier"):
            continue
        best = None
        for e, li, path in net.lane_graph.inventory:
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


def _leader_gap(world: World, lanes: _LaneIndex, veh: _Vehicle,
                edge_id: str, lane_index: int, s: float
                ) -> tuple[float, float]:
    """(bumper gap, leader speed) ahead on the given lane, one edge lookahead.

    The smallest gap wins. Ties go to the first candidate in this order:
    vehicles in world order, then obstacles, on this edge, then the same on
    the next edge.
    """
    me = veh.state
    graph = world.net.lane_graph
    best_gap, best_speed = lanes.nearest_vehicle(me, (edge_id, lane_index),
                                                 s, -s)
    obj_gap = lanes.nearest_obstacle(me, (edge_id, lane_index), s, -s)
    if obj_gap < best_gap:
        best_gap, best_speed = obj_gap, 0.0

    remaining = graph.lanes[(edge_id, lane_index)].length - s
    nxt = _next_edge(graph, veh.route, me.edge_id)
    if nxt is not None and remaining < LOOKAHEAD_HORIZON:
        key = (nxt, min(lane_index, graph.edges[nxt].num_lanes - 1))
        gap, speed = lanes.nearest_vehicle(me, key, -math.inf, remaining)
        if gap < best_gap:
            best_gap, best_speed = gap, speed
        obj_gap = lanes.nearest_obstacle(me, key, -math.inf, remaining)
        if obj_gap < best_gap:
            best_gap, best_speed = obj_gap, 0.0
    return best_gap, best_speed


def av_policy(observation: dict, hints: tuple[str, ...] = ()
              ) -> tuple[float, int]:
    """Rule policy for the vehicle under test.

    observation: speed, desired_speed, gap, leader_speed, max_accel,
    comfortable_decel, min_gap, lane_options (list of lane-change candidates
    with their gaps). Returns (accel, lane_change in {-1, 0, +1}).
    """
    v = observation["speed"]
    v0 = observation["desired_speed"]
    gap = observation["gap"]
    lead_v = observation["leader_speed"]
    a_max = observation["max_accel"]
    b = observation["comfortable_decel"]
    s0 = observation["min_gap"]

    ttc_threshold = TTC_BRAKE_THRESHOLD
    if "DecelerateEarlier" in hints:
        ttc_threshold *= 2.0

    closing = v - lead_v
    ttc = gap / closing if (closing > 0 and not math.isinf(gap)) else math.inf

    lane_change = 0
    if not math.isinf(gap) and gap < 3.0 * s0 + v * 2.0:
        options = observation.get("lane_options", [])
        prefer = [o for o in options if o["gap"] > gap + 2.0 * s0
                  and o["rear_gap"] > s0]
        if prefer and ("SaferLane" in hints or gap < 2.0 * s0 + v * 1.0
                       or ttc < ttc_threshold):
            prefer.sort(key=lambda o: -o["gap"])
            lane_change = prefer[0]["direction"]

    if ttc < ttc_threshold or (not math.isinf(gap) and gap < s0):
        return -b, lane_change
    accel = idm_accel(BehaviorParams(desired_speed=v0, max_accel=a_max,
                                     comfortable_decel=b, min_gap=s0),
                      v, gap, closing)
    return max(-b, min(a_max, accel)), lane_change


def _lane_options(world: World, lanes: _LaneIndex, veh: _Vehicle
                  ) -> list[dict]:
    me = veh.state
    edge = world.net.lane_graph.edges[me.edge_id]
    options = []
    for direction in (-1, 1):
        li = me.lane_index + direction
        if not (0 <= li < edge.num_lanes):
            continue
        gap, lead_v = _leader_gap(world, lanes, veh, me.edge_id, li, me.s)
        follower = lanes.follower(me.id, (me.edge_id, li), me.s)
        if follower is None:
            rear_gap = math.inf
        else:
            rear_gap = me.s - follower.state.s - \
                (me.length + follower.state.length) / 2.0
        options.append({"direction": direction, "lane_index": li,
                        "gap": gap, "leader_speed": lead_v,
                        "rear_gap": rear_gap, "follower": follower})
    return options


def _bv_control(world: World, lanes: _LaneIndex, veh: _Vehicle
                ) -> tuple[float, int]:
    me = veh.state
    gap, lead_v = _leader_gap(world, lanes, veh, me.edge_id, me.lane_index,
                              me.s)
    accel_here = idm_accel(veh.params, me.speed, gap, me.speed - lead_v)

    lane_change = 0
    if veh.lane_change_cooldown <= 0:
        for opt in _lane_options(world, lanes, veh):
            accel_there = idm_accel(veh.params, me.speed, opt["gap"],
                                    me.speed - opt["leader_speed"])
            if accel_there - accel_here < veh.params.lane_change_threshold:
                continue
            if opt["rear_gap"] < veh.params.min_gap:
                continue
            follower = opt["follower"]
            if follower is not None:
                f_acc = idm_accel(follower.params, follower.state.speed,
                                  opt["rear_gap"],
                                  follower.state.speed - me.speed)
                if f_acc < -follower.params.comfortable_decel:
                    continue
            lane_change = opt["direction"]
            accel_here = accel_there
            break
    return accel_here, lane_change


def _advance_vehicle(world: World, veh: _Vehicle, accel: float,
                     lane_change: int, dt: float) -> None:
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
        nxt = _next_edge(graph, veh.route, edge_id)
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
    # the constructor, not dataclasses.replace, which costs about twice as
    # much on every agent-step; __post_init__ still validates the state
    veh.state = AgentState(me.id, me.kind, me.role, edge_id, lane_index,
                           s_new, v_new, heading, x, y, me.length, me.width,
                           me.color)


def _advance_vru(veh: _Vehicle, dt: float) -> None:
    me = veh.state
    rad = math.radians(me.heading)
    veh.state = AgentState(me.id, me.kind, me.role, me.edge_id,
                           me.lane_index, me.s, me.speed, me.heading,
                           me.x + me.speed * math.cos(rad) * dt,
                           me.y + me.speed * math.sin(rad) * dt,
                           me.length, me.width, me.color)


def step(world: World, dt: float) -> World:
    """One simulation tick: controls for all agents, then semi-implicit
    integration (velocity first, then position). Mutates and returns world."""
    if not (0 < dt <= 0.5):
        raise ValueError("dt must be in (0, 0.5]")
    lanes = _LaneIndex(world)
    controls = {}
    for vid, veh in world.vehicles.items():
        if not veh.active:
            continue
        me = veh.state
        if me.kind in ("Pedestrian", "Cyclist"):
            controls[vid] = None
        elif me.role == "AV":
            gap, lead_v = _leader_gap(world, lanes, veh, me.edge_id,
                                      me.lane_index, me.s)
            obs = {"speed": me.speed, "desired_speed": veh.params.desired_speed,
                   "gap": gap, "leader_speed": lead_v,
                   "max_accel": veh.params.max_accel,
                   "comfortable_decel": veh.params.comfortable_decel,
                   "min_gap": veh.params.min_gap,
                   "lane_options": _lane_options(world, lanes, veh)}
            controls[vid] = av_policy(obs, veh.hints)
        else:
            controls[vid] = _bv_control(world, lanes, veh)

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

    world.time += dt
    world.step_index += 1
    return world


def _default_params(kind: str, edge_speed: float) -> BehaviorParams:
    if kind in ("Truck", "Bus"):
        return BehaviorParams(desired_speed=edge_speed * 0.9, max_accel=1.0,
                              comfortable_decel=1.5, time_headway=1.8)
    return BehaviorParams(desired_speed=max(edge_speed, 0.5))


def build_world(bundle: ScenarioBundle,
                params_overrides: Optional[dict] = None,
                hints: tuple[str, ...] = ()) -> World:
    net = bundle.network
    vehicles = {}
    for a in bundle.agents:
        edge = net.lane_graph.edges[a.edge_id]
        params = (params_overrides or {}).get(a.id) or \
            _default_params(a.kind, edge.speed)
        route = ()
        if a.role == "AV":
            route = plan_route(net, a.edge_id)
        vehicles[a.id] = _Vehicle(state=a, params=params, route=route,
                                  hints=hints if a.role == "AV" else ())
    return World(net=net, vehicles=vehicles,
                 obstacles=_project_objects(net, bundle.objects))


def plan_route(net: netgen.RoadNetwork, start_edge: str) -> tuple[str, ...]:
    """Greedy depth route from start_edge, longest continuation first."""
    graph = net.lane_graph
    route = [start_edge]
    seen = {start_edge}
    while True:
        succ = [e for e in graph.successors[route[-1]] if e not in seen]
        if not succ:
            return tuple(route)
        succ.sort(key=lambda eid: -graph.edge_length[eid])
        route.append(succ[0])
        seen.add(succ[0])


def route_length(net: netgen.RoadNetwork, route) -> float:
    return sum(net.lane_graph.edge_length[eid] for eid in route)


def run(bundle: ScenarioBundle, duration: float, dt: float = DEFAULT_DT,
        params_overrides: Optional[dict] = None,
        hints: tuple[str, ...] = ()) -> SimulationTrace:
    """Closed-loop run: ceil(duration/dt) steps, deterministic per bundle."""
    world = build_world(bundle, params_overrides, hints)
    n_steps = math.ceil(duration / dt)
    trace = SimulationTrace(dt=dt)
    prev_speed = {vid: v.state.speed for vid, v in world.vehicles.items()}
    prev_accel: dict = {}
    for vid in world.vehicles:
        trace.odometry[vid] = 0.0
        trace.accel_series[vid] = []
        trace.jerk_series[vid] = []

    seen_contacts: set = set()
    for k in range(n_steps):
        step(world, dt)
        states = [v.state for v in world.vehicles.values() if v.active]
        trace.steps.append(list(states))
        for ev in detect_collisions(states, step=k):
            key = (ev.agent_a, ev.agent_b)
            if key not in seen_contacts:
                seen_contacts.add(key)
                trace.collisions.append(ev)
        for vid, veh in world.vehicles.items():
            v_now = veh.state.speed if veh.active else 0.0
            trace.odometry[vid] += v_now * dt
            accel = (v_now - prev_speed[vid]) / dt
            trace.accel_series[vid].append(accel)
            if vid in prev_accel:
                trace.jerk_series[vid].append((accel - prev_accel[vid]) / dt)
            prev_accel[vid] = accel
            prev_speed[vid] = v_now
    return trace


def export_trace(trace: SimulationTrace) -> str:
    """Line-delimited trace records: step, id, x, y, speed, heading, accel.

    Each line is the JSON object json.dumps(record, sort_keys=True) writes,
    formatted directly: repr is the float encoding json uses, and each id is
    quoted once. A record holding a non-finite value goes through json.dumps,
    which spells those NaN and Infinity.
    """
    lines = []
    quoted: dict = {}
    for k, states in enumerate(trace.steps):
        for a in states:
            accel = trace.accel_series.get(a.id, [])
            acc = round(accel[k] if k < len(accel) else 0.0, 4)
            x, y = round(a.x, 4), round(a.y, 4)
            speed, heading = round(a.speed, 4), round(a.heading, 4)
            # NaN unless all five are finite (a sum that overflows only
            # sends a finite record the slow way)
            if 0 * (acc + x + y + speed + heading) == 0:
                if a.id not in quoted:
                    quoted[a.id] = json.dumps(a.id)
                lines.append(
                    f'{{"accel": {acc!r}, "heading": {heading!r}, '
                    f'"id": {quoted[a.id]}, "speed": {speed!r}, '
                    f'"step": {k}, "x": {x!r}, "y": {y!r}}}')
            else:
                lines.append(json.dumps({
                    "step": k, "id": a.id, "x": x, "y": y, "speed": speed,
                    "heading": heading, "accel": acc}, sort_keys=True))
    return "\n".join(lines) + "\n"
