"""Deterministic closed-loop micro-simulation.

Background vehicles follow an IDM car-following law with a threshold-based
lane-change rule; the vehicle under test runs a rule policy with a TTC-based
braking onset. Collisions are oriented bounding-box overlaps (separating axis
test) recorded per step. Each vehicle holds its own state, which a step
updates in place; the trace and the collision test read the vehicles.

Lane geometry comes from the network's compiled LaneGraph. Each step indexes
the active vehicles by lane, sorted by arc length, so leader and follower
lookups bisect one lane instead of scanning every vehicle, and a broad phase
on the boxes' closed-form axis-aligned extents runs before the exact overlap
test, which alone builds the corners. A background vehicle weighs lane
changes only when the free-road acceleration, the bound on any lane, beats
the current lane by the threshold. The AV is controlled from its vehicle as a
background vehicle is, and builds its lane options only when its gap rule
reads them. BehaviorParams holds its IDM braking term. All of this matches
full scans and evaluations exactly, ties included; clamps compare as min and
max do.

The trace file and hash spell each number as json.dumps(round(v, n)) does
(n = 4 and 6) from one '%.nf' conversion: round makes the same correctly
rounded, half-even conversion, then parses it back and takes the shortest
repr. Below 1e9 in magnitude an ulp is under 1.2e-7, so the n-place decimal
names one double and, with trailing zeros stripped to one decimal, is its
shortest repr. NaN, infinities, values outside (-1e9, 1e9) and values that
round to 0 < |x| < 1e-4, which repr spells with an exponent, take round.
"""
from __future__ import annotations

import bisect
import functools
import hashlib
import json
import math
from array import array
from dataclasses import dataclass, field, fields
from typing import Optional

from . import netgen
from .compgen import AgentState, check_motion
from .ir import VRU_KINDS, ScenarioBundle, fold_sum

DEFAULT_DT = 0.1
TTC_BRAKE_THRESHOLD = 3.0   # s; AV braking onset
LOOKAHEAD_HORIZON = 150.0   # m
MAX_STEPS = 100_000         # per run; 10^4 s at the default dt


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
        # not v > 0, so that NaN fails too
        if not all(v > 0 for v in (
                self.desired_speed, self.max_accel, self.comfortable_decel,
                self.min_gap, self.time_headway, self.lane_change_threshold)):
            raise ValueError("behavior parameters must be positive")
        if not self.accel_exponent >= 1:
            raise ValueError("accel_exponent must be >= 1")
        # the IDM braking term, once per parameter set; not a field
        object.__setattr__(self, "brake_term", 2.0 * math.sqrt(
            self.max_accel * self.comfortable_decel))


@dataclass(frozen=True)
class CollisionEvent:
    step: int
    agent_a: str
    agent_b: str
    penetration: float


@dataclass
class SimulationTrace:
    """What the simulator observed: each agent's state before step 0 (its
    start speed and length), the active agents after every step (an agent
    that left the network is absent from then on) and the first contact of
    each pair. A step is the active ids in world order, one tuple while they
    do not change, and an array of their x, y, speed and heading doubles, 32
    bytes a state. Distances, accelerations and jerks derive from speeds."""
    dt: float
    steps: list = field(default_factory=list)        # list[(ids, array)]
    collisions: list = field(default_factory=list)   # list[CollisionEvent]
    start: dict = field(default_factory=dict)        # id -> AgentState

    def record(self, states) -> None:
        """Append a step holding the given agent states."""
        ids = tuple([a.id for a in states])
        if self.steps and self.steps[-1][0] == ids:
            ids = self.steps[-1][0]
        self.steps.append((ids, array("d", [
            v for a in states for v in (a.x, a.y, a.speed, a.heading)])))

    def states(self):
        """Per step, the list of (id, x, y, speed, heading) of its agents."""
        for ids, values in self.steps:
            yield list(zip(ids, *[iter(values)] * 4))

    def hash(self) -> str:
        """sha256 of json.dumps({"dt", "steps": [[id, x, y, speed, heading] per
        state, to 6 decimals], "collisions"}, sort_keys=True), fed in batches."""
        collisions = [(c.step, c.agent_a, c.agent_b) for c in self.collisions]
        digest = hashlib.sha256(f'{{"collisions": {json.dumps(collisions)}, '
                                f'"dt": {json.dumps(self.dt)}, "steps": ['
                                .encode())
        quote = functools.cache(json.dumps)
        for first, batch in _batches(self.steps):
            n = iter(_decimals([v for _, row in batch for v in row], 6))
            text = "], [".join(", ".join([
                f"[{quote(i)}, {next(n)}, {next(n)}, {next(n)}, {next(n)}]"
                for i in ids]) for ids, _ in batch)
            digest.update(f"{', ' if first else ''}[{text}]".encode())
        digest.update(b"]}")
        return digest.hexdigest()


# ---------------------------------------------------------------------------
# IDM

def idm_accel(params: BehaviorParams, speed: float, gap: float,
              speed_delta: float) -> float:
    """IDM acceleration for the given bumper gap and approach rate.

    gap may be math.inf (free road). speed_delta = own speed - leader speed.
    """
    return _idm_accel(params, speed, gap, speed_delta,
                      (speed / params.desired_speed) ** params.accel_exponent)


def _idm_accel(p: BehaviorParams, speed: float, gap: float,
               speed_delta: float, free: float) -> float:
    """idm_accel from its free-road term; the clamps compare as max does."""
    if math.isinf(gap):
        interaction = 0.0
    else:
        push = speed * p.time_headway + speed * speed_delta / p.brake_term
        s_star = p.min_gap + (push if push > 0.0 else 0.0)
        interaction = (s_star / (0.1 if 0.1 > gap else gap)) ** 2
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
# drops no event the exact test would report. The extents are closed-form
# (half extents |cos|*L/2 + |sin|*W/2 and |sin|*L/2 + |cos|*W/2); they differ
# from the extremes of obb_corners only by rounding, many orders below the
# margin, so at most they add pairs that the exact test rejects.
BROAD_PHASE_MARGIN = 1e-3   # m


def detect_collisions(states, step: int = 0) -> list[CollisionEvent]:
    """Pairwise OBB overlap events among the given agent states, in (i, j)
    order.

    A sort-and-sweep over the boxes' x-extents, then a y-extent check, picks
    the pairs that get the exact separating axis test; only those pairs have
    their corners built.
    """
    extents = []
    for a in states:
        rad = math.radians(a.heading)
        c, s = abs(math.cos(rad)), abs(math.sin(rad))
        hl, hw = a.length / 2.0, a.width / 2.0
        hx, hy = c * hl + s * hw, s * hl + c * hw
        extents.append((a.x - hx, a.x + hx, a.y - hy, a.y + hy))
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
        a, b = states[i], states[j]
        pen = obb_overlap(obb_corners(a.x, a.y, a.heading, a.length, a.width),
                          obb_corners(b.x, b.y, b.heading, b.length, b.width))
        if pen > 0:
            events.append(CollisionEvent(step, a.id, b.id, pen))
    return events


# ---------------------------------------------------------------------------
# world model

class _Vehicle:
    """One agent: its start AgentState's fields, of which edge_id, lane_index,
    s, speed, heading, x and y change in place every step, and its control
    state. The trace and the collision test read it as an AgentState."""
    _AGENT_FIELDS = tuple(f.name for f in fields(AgentState))
    __slots__ = _AGENT_FIELDS + ("params", "active", "route",
                                 "lane_change_cooldown")

    def __init__(self, state: AgentState, params: BehaviorParams,
                 route: tuple[str, ...] = ()):
        for name in self._AGENT_FIELDS:
            setattr(self, name, getattr(state, name))
        self.params, self.route = params, route
        self.active, self.lane_change_cooldown = True, 0.0


@dataclass
class World:
    net: netgen.RoadNetwork
    vehicles: dict            # id -> _Vehicle
    obstacles: list           # (edge_id, lane_index, s, PlacedObject)


class _LaneIndex:
    """Active vehicles bucketed by (edge_id, lane_index) and sorted by s, and
    the obstacles bucketed alike.

    Built at the start of a step from the vehicle states, so it stays valid
    for the whole control phase, which changes no state.
    """

    def __init__(self, world: World):
        buckets: dict = {}
        longest = 0.0
        for order, veh in enumerate(world.vehicles.values()):
            if veh.active:
                buckets.setdefault((veh.edge_id, veh.lane_index), []).append(
                    (veh.s, order, veh))
                longest = veh.length if veh.length > longest else longest
        self.longest = longest
        # (s values, (s, world order, vehicle) entries) per lane
        self.vehicles = {}
        for key, bucket in buckets.items():
            bucket.sort()   # (s, order) is unique: vehicles never compare
            self.vehicles[key] = ([entry[0] for entry in bucket], bucket)
        self.obstacles: dict = {}
        for eid, li, obj_s, obj in world.obstacles:
            self.obstacles.setdefault((eid, li), []).append(
                (obj_s, max(obj.footprint)))

    def nearest(self, me: _Vehicle, key, after: float,
                offset: float) -> tuple[float, float]:
        """(bumper gap, speed) of the vehicle or obstacle (speed 0) with the
        smallest gap among those on lane key with s > after, at center distance
        s + offset. Ties go to vehicles in world order, then to obstacles.

        IEEE subtraction is addition of the negated operand, so an offset of
        -s_me gives exactly the center distance s - s_me.
        """
        best_gap, best_speed, best_order = math.inf, 0.0, -1
        s_values, bucket = self.vehicles.get(key, ((), ()))
        # a vehicle at center distance c has a gap of at least c - reach, and
        # c only grows along the bucket: once c - reach exceeds the best gap,
        # no later vehicle can win or tie
        reach = (me.length + self.longest) / 2.0
        for k in range(bisect.bisect_right(s_values, after), len(bucket)):
            s, order, other = bucket[k]
            center = s + offset
            if center - reach > best_gap:
                break
            if other.id == me.id:
                continue
            gap = center - (me.length + other.length) / 2.0
            if gap < best_gap or (gap == best_gap and order < best_order):
                best_gap, best_speed, best_order = gap, other.speed, order
        if key in self.obstacles:   # most lanes hold none
            for obj_s, size in self.obstacles[key]:
                if obj_s > after:
                    gap = (obj_s + offset) - (me.length + size) / 2.0
                    if gap < best_gap:
                        best_gap, best_speed = gap, 0.0
        return best_gap, best_speed

    def follower(self, me_id: str, key, s: float) -> Optional[_Vehicle]:
        """The vehicle with the largest s <= s on lane key, first in world
        order on ties."""
        if key not in self.vehicles:
            return None
        s_values, bucket = self.vehicles[key]
        best = None
        for k in range(bisect.bisect_right(s_values, s) - 1, -1, -1):
            other_s, _, other = bucket[k]
            if other.id == me_id:
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
    """Snap blocking objects (cones, barriers) onto the nearest 2 m lane
    sample within 2.5 m, the first in inventory order on ties. A lane's
    vertices are its axis's moved by its offset, so a lane whose axis box,
    grown by the offset, 2.5 m and an epsilon, excludes the object is skipped."""
    out = []
    graph = net.lane_graph
    boxes = {}      # edge id -> (min x, min y, max x, max y) of its axis
    for obj in objects:
        if obj.kind not in ("Cone", "Barrier"):
            continue
        best = None
        for e, li in graph.inventory:
            edge = graph.edges[e.id]
            if e.id not in boxes:
                xs, ys = zip(*netgen.edge_polyline(net, edge))
                boxes[e.id] = min(xs), min(ys), max(xs), max(ys)
            x0, y0, x1, y1 = boxes[e.id]
            r = abs(netgen.lane_offset(edge, li)) + 2.5 + 1e-6
            if not (x0 - r <= obj.x <= x1 + r and y0 - r <= obj.y <= y1 + r):
                continue
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


def _leader_gap(graph: netgen.LaneGraph, lanes: _LaneIndex, veh: _Vehicle,
                lane_index: int) -> tuple[float, float]:
    """(bumper gap, leader speed) ahead of veh on the given lane of its edge,
    one edge lookahead.

    The smallest gap wins. Ties go to the first candidate in this order:
    vehicles in world order, then obstacles, on this edge, then the same on
    the next edge.
    """
    key = (veh.edge_id, lane_index)
    best_gap, best_speed = lanes.nearest(veh, key, veh.s, -veh.s)
    remaining = graph.lanes[key].length - veh.s
    if remaining >= LOOKAHEAD_HORIZON:
        return best_gap, best_speed
    nxt = _next_edge(graph, veh.route, veh.edge_id)
    if nxt is not None:
        key = (nxt, min(lane_index, graph.edges[nxt].num_lanes - 1))
        gap, speed = lanes.nearest(veh, key, -math.inf, remaining)
        if gap < best_gap:
            best_gap, best_speed = gap, speed
    return best_gap, best_speed


def _av_control(graph: netgen.LaneGraph, lanes: _LaneIndex, veh: _Vehicle
                ) -> tuple[float, int]:
    """Rule policy for the vehicle under test: (accel, lane_change in
    {-1, 0, +1}). The lane options are built only when the gap rule reads
    them. The IDM term takes desired_speed, max_accel, comfortable_decel and
    min_gap from veh.params and every other BehaviorParams field at its
    default (so a Truck or Bus AV keeps a 1.5 s headway); followers still
    read veh.params itself."""
    p, v = veh.params, veh.speed
    a_max, b, s0 = p.max_accel, p.comfortable_decel, p.min_gap
    gap, lead_v = _leader_gap(graph, lanes, veh, veh.lane_index)
    closing = v - lead_v
    ttc = gap / closing if (closing > 0 and not math.isinf(gap)) else math.inf

    lane_change = 0
    if not math.isinf(gap) and gap < 3.0 * s0 + v * 2.0:
        prefer = [o for o in _lane_options(graph, lanes, veh)
                  if o["gap"] > gap + 2.0 * s0 and o["rear_gap"] > s0]
        if prefer and (gap < 2.0 * s0 + v * 1.0 or ttc < TTC_BRAKE_THRESHOLD):
            prefer.sort(key=lambda o: -o["gap"])
            lane_change = prefer[0]["direction"]

    if ttc < TTC_BRAKE_THRESHOLD or (not math.isinf(gap) and gap < s0):
        return -b, lane_change
    accel = idm_accel(_policy_params(p.desired_speed, a_max, b, s0), v, gap,
                      closing)
    return max(-b, min(a_max, accel)), lane_change


# one validated BehaviorParams per parameter set
_policy_params = functools.lru_cache(maxsize=64)(BehaviorParams)


def _lane_options(graph: netgen.LaneGraph, lanes: _LaneIndex, veh: _Vehicle
                  ) -> list[dict]:
    edge = graph.edges[veh.edge_id]
    options = []
    for direction in (-1, 1):
        li = veh.lane_index + direction
        if not (0 <= li < edge.num_lanes):
            continue
        gap, lead_v = _leader_gap(graph, lanes, veh, li)
        follower = lanes.follower(veh.id, (veh.edge_id, li), veh.s)
        if follower is None:
            rear_gap = math.inf
        else:
            rear_gap = veh.s - follower.s - \
                (veh.length + follower.length) / 2.0
        options.append({"direction": direction, "gap": gap,
                        "leader_speed": lead_v, "rear_gap": rear_gap,
                        "follower": follower})
    return options


def _bv_control(graph: netgen.LaneGraph, lanes: _LaneIndex, veh: _Vehicle
                ) -> tuple[float, int]:
    p, speed = veh.params, veh.speed
    gap, lead_v = _leader_gap(graph, lanes, veh, veh.lane_index)
    free = (speed / p.desired_speed) ** p.accel_exponent
    accel_here = _idm_accel(p, speed, gap, speed - lead_v, free)
    if veh.lane_change_cooldown > 0:
        return accel_here, 0
    # the IDM interaction term is never negative, so no lane accelerates more
    # than the free road: when even that misses the threshold, every option
    # does (a NaN comparison is false and keeps the full evaluation)
    if _idm_accel(p, speed, math.inf, 0.0, free) - accel_here < \
            p.lane_change_threshold:
        return accel_here, 0

    for opt in _lane_options(graph, lanes, veh):
        accel_there = _idm_accel(p, speed, opt["gap"],
                                 speed - opt["leader_speed"], free)
        if accel_there - accel_here < p.lane_change_threshold:
            continue
        if opt["rear_gap"] < p.min_gap:
            continue
        follower = opt["follower"]
        if follower is not None:
            f_acc = idm_accel(follower.params, follower.speed,
                              opt["rear_gap"], follower.speed - veh.speed)
            if f_acc < -follower.params.comfortable_decel:
                continue
        return accel_there, opt["direction"]
    return accel_here, 0


def _advance_vehicle(graph: netgen.LaneGraph, veh: _Vehicle, accel: float,
                     lane_change: int, dt: float) -> None:
    edge_id = veh.edge_id
    lane_index = veh.lane_index
    if lane_change != 0:
        li = lane_index + lane_change
        if 0 <= li < graph.edges[edge_id].num_lanes:
            lane_index = li
            veh.lane_change_cooldown = 2.0
    a_max = veh.params.max_accel
    accel = a_max if a_max < accel else accel
    accel = accel if accel > -8.0 else -8.0
    v_new = veh.speed + accel * dt
    v_new = v_new if v_new > 0.0 else 0.0
    s_new = veh.s + v_new * dt

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
    veh.x, veh.y, veh.heading = path.point_at(s_new)
    cooldown = veh.lane_change_cooldown - dt
    veh.lane_change_cooldown = cooldown if cooldown > 0.0 else 0.0
    check_motion(v_new, veh.heading)
    veh.edge_id, veh.lane_index, veh.s, veh.speed = (edge_id, lane_index,
                                                     s_new, v_new)


def _advance_vru(veh: _Vehicle, dt: float) -> None:
    rad = math.radians(veh.heading)
    veh.x, veh.y = (veh.x + veh.speed * math.cos(rad) * dt,
                    veh.y + veh.speed * math.sin(rad) * dt)


def step(world: World, dt: float) -> World:
    """One simulation tick: controls for all agents, then semi-implicit
    integration (velocity first, then position). Mutates and returns world."""
    if not (0 < dt <= 0.5):
        raise ValueError("dt must be in (0, 0.5]")
    graph = world.net.lane_graph
    lanes = _LaneIndex(world)
    controls = {}
    for vid, veh in world.vehicles.items():
        if not veh.active:
            continue
        if veh.kind in VRU_KINDS:
            controls[vid] = None
        elif veh.role == "AV":
            controls[vid] = _av_control(graph, lanes, veh)
        else:
            controls[vid] = _bv_control(graph, lanes, veh)

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
            _advance_vehicle(graph, veh, accel, lane_change, dt)
    return world


def _default_params(kind: str, edge_speed: float) -> BehaviorParams:
    if kind in ("Truck", "Bus"):
        return BehaviorParams(desired_speed=edge_speed * 0.9, max_accel=1.0,
                              comfortable_decel=1.5, time_headway=1.8)
    return BehaviorParams(desired_speed=max(edge_speed, 0.5))


def build_world(bundle: ScenarioBundle) -> World:
    net = bundle.network
    vehicles = {}
    for a in bundle.agents:
        edge = net.lane_graph.edges[a.edge_id]
        vehicles[a.id] = _Vehicle(
            a, params=_default_params(a.kind, edge.speed),
            route=plan_route(net, a.edge_id) if a.role == "AV" else ())
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
    return fold_sum(net.lane_graph.edge_length[eid] for eid in route)


def check_steps(duration: float, dt: float, error=ValueError) -> None:
    """Raise error unless ceil(duration / dt) <= MAX_STEPS (NaN is not)."""
    if not duration / dt <= MAX_STEPS:
        raise error(f"duration / dt must be at most {MAX_STEPS} steps")


def run(bundle: ScenarioBundle, duration: float, dt: float = DEFAULT_DT
        ) -> SimulationTrace:
    """Closed-loop run: ceil(duration/dt) steps, deterministic per bundle."""
    check_steps(duration, dt)
    world = build_world(bundle)
    trace = SimulationTrace(dt=dt, start={a.id: a for a in bundle.agents})
    seen_contacts: set = set()
    for k in range(math.ceil(duration / dt)):
        step(world, dt)
        active = [v for v in world.vehicles.values() if v.active]
        trace.record(active)
        for ev in detect_collisions(active, step=k):
            key = (ev.agent_a, ev.agent_b)
            if key not in seen_contacts:
                seen_contacts.add(key)
                trace.collisions.append(ev)
    return trace


# ---------------------------------------------------------------------------
# trace encoding

def _batches(steps: list, size: int = 256):
    """(first step index, steps) for runs of steps with at least size states
    (the last run may have fewer): one _decimals call and text per run."""
    start = count = 0
    for stop, (ids, _) in enumerate(steps, 1):
        count += len(ids)
        if count >= size or stop == len(steps):
            yield start, steps[start:stop]
            start, count = stop, 0


def _decimals(values, n: int) -> list[str]:
    """json.dumps(round(v, n)) for each of the floats values, n being 4 or 6,
    from one '%.nf' operation (the module docstring says why)."""
    text = (" " + f"%.{n}f " * len(values)) % tuple(values)
    # strip up to n - 1 (odd) trailing zeros: two at a time, then one
    for _ in range((n - 1) // 2):
        text = text.replace("00 ", " ")
    text = text.replace("0 ", " ")
    spellings = text.split()
    if "n" not in text and " 0.0000" not in text and " -0.0000" not in text \
            and -1e9 < min(values, default=0) and max(values, default=0) < 1e9:
        return spellings
    return [s if -1e9 < v < 1e9 and not s.startswith(("0.0000", "-0.0000"))
            else json.dumps(round(v, n)) for v, s in zip(values, spellings)]


def export_trace(trace: SimulationTrace, out) -> None:
    """Write the line-delimited trace records (step, id, x, y, speed,
    heading, accel) to the text stream out, one _batches run at a time: one
    out.write per run of its lines, each ending in a newline, so the text of
    the whole trace is never held at once. A trace with no states writes a
    single newline.

    A state's accel is (speed - previous speed) / dt, the previous speed
    being the agent's speed in the step before, or its start speed at step 0.
    Each line is what json.dumps(record, sort_keys=True) writes with the five
    numbers rounded to 4 decimals, spelled by _decimals. Each id is quoted
    once.
    """
    if not any(ids for ids, _ in trace.steps):
        out.write("\n")
        return
    quote = functools.cache(json.dumps)
    last_speed = {i: a.speed for i, a in trace.start.items()}
    for first, batch in _batches(trace.steps):
        values = []
        for ids, row in batch:
            for i, x, y, speed, heading in zip(ids, *[iter(row)] * 4):
                values += ((speed - last_speed[i]) / trace.dt, heading, speed,
                           x, y)
                last_speed[i] = speed
        if not values:   # a last run of empty steps
            continue
        n = iter(_decimals(values, 4))
        out.write("".join([
            f'{{"accel": {next(n)}, "heading": {next(n)}, '
            f'"id": {quote(i)}, "speed": {next(n)}, '
            f'"step": {k}, "x": {next(n)}, "y": {next(n)}}}\n'
            for k, (ids, _) in enumerate(batch, first) for i in ids]))
