"""Agent and object generators: seeded placement at the critical moment.

Placement is deterministic constraint satisfaction over lane geometry: a
seeded random search keeps agents a minimum center gap apart, except one
intent-encoded conflict pair which is tightened into [min_gap/2, min_gap] to
seed criticality. When the search fails, an even-spacing fallback guarantees
only min_gap/2. The RandomTrip-style baseline places uniformly with no gap
guarantee.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Optional

from . import netgen
from .ir import ScenarioDescription

VEHICLE_DIMS = {
    "Car": (4.5, 1.8),
    "Truck": (8.0, 2.5),
    "Bus": (11.0, 2.5),
    "Motorcycle": (2.2, 0.8),
    "Cyclist": (1.8, 0.6),
    "Pedestrian": (0.5, 0.5),
}

OBJECT_FOOTPRINTS = {"Cone": (0.4, 0.4), "WarningSign": (0.5, 0.5),
                     "Barrier": (2.0, 0.5), "Fence": (2.0, 0.2),
                     "LaneMarking": (3.0, 0.15)}

CONFLICT_KEYWORDS = ("cut-in", "cut in", "conflict", "rear-end", "rear end",
                     "collide", "collision", "merge into", "overtake",
                     "left turn", "cross road")


class PlacementInfeasible(RuntimeError):
    pass


def check_motion(speed: float, heading: float) -> None:
    """An agent's heading lies in (-180, 180] degrees and its speed is >= 0."""
    if not (-180.0 < heading <= 180.0):
        raise ValueError(f"heading out of range: {heading}")
    if not speed >= 0:      # false for NaN too
        raise ValueError("speed must be >= 0")


@dataclass(frozen=True)
class AgentState:
    id: str
    kind: str
    role: str
    edge_id: str
    lane_index: int
    s: float
    speed: float
    heading: float
    x: float
    y: float
    length: float
    width: float
    color: Optional[str] = None

    def __post_init__(self):
        check_motion(self.speed, self.heading)


@dataclass(frozen=True)
class PlacedObject:
    kind: str
    x: float
    y: float
    yaw: float
    footprint: tuple[float, float]


@dataclass(frozen=True)
class PlacementConstraints:
    min_gap: float = 4.0
    max_agents: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.min_gap <= 0:
            raise ValueError("min_gap must be > 0")


def _wrap_heading(deg: float) -> float:
    deg = (deg + 180.0) % 360.0 - 180.0
    return 180.0 if deg == -180.0 else deg


def _make_state(agent_id, desc_agent, edge, lane_index,
                path: netgen.LanePath, s: float) -> AgentState:
    x, y, heading = path.point_at(s)
    length, width = VEHICLE_DIMS[desc_agent.kind]
    speed = min(desc_agent.approx_speed, 1.5 * edge.speed)
    return AgentState(id=agent_id, kind=desc_agent.kind, role=desc_agent.role,
                      edge_id=edge.id, lane_index=lane_index, s=s,
                      speed=speed, heading=_wrap_heading(heading), x=x, y=y,
                      length=length, width=width, color=desc_agent.color)


def min_pair_distance(states) -> float:
    """The shortest center distance between two of states (inf for fewer
    than two)."""
    best = math.inf
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            best = min(best, math.dist((a.x, a.y), (b.x, b.y)))
    return best


def _conflict_pair(agents) -> Optional[tuple[int, int]]:
    av = next((i for i, a in enumerate(agents) if a.role == "AV"), None)
    for i, a in enumerate(agents):
        if i == av:
            continue
        intent = (a.intent or "").lower()
        if any(k in intent for k in CONFLICT_KEYWORDS):
            return (av, i) if av is not None else (0, i) if i != 0 else None
    return None


def generate_agents(desc: ScenarioDescription, net: netgen.RoadNetwork,
                    constraints: PlacementConstraints) -> list[AgentState]:
    """Place one AgentState per described agent onto the network.

    A seeded random search keeps pairwise center distances >= min_gap, except
    the intent-encoded conflict pair, which is drawn from [min_gap/2,
    min_gap]. If the search fails, the deterministic even-spacing fallback
    runs instead; it guarantees only min_gap/2 for every pair, because agents
    at the same arc length on adjacent lanes sit one lane width apart. Raises
    PlacementInfeasible when the network cannot host the agents even at
    min_gap/2.
    """
    if not desc.agents:
        raise PlacementInfeasible("description has no agents")
    agents = list(desc.agents)
    if not any(a.role == "AV" for a in agents):
        # promote the first vehicle to AV so the bundle has exactly one
        for i, a in enumerate(agents):
            if a.role != "VRU":
                agents[i] = replace(a, role="AV")
                break
        else:
            raise PlacementInfeasible("no vehicle available to act as AV")
    if len(agents) > constraints.max_agents:
        raise PlacementInfeasible(
            f"{len(agents)} agents exceeds max_agents={constraints.max_agents}")

    graph = net.lane_graph
    inv = graph.inventory
    if not inv:
        raise PlacementInfeasible("network has no lanes")
    # a float sum of lengths >= 0 never falls: stop measuring once they fit
    need, total_len = len(agents) * constraints.min_gap, 0.0
    for e, li in inv:
        total_len += graph.lanes[(e.id, li)].length
        if not total_len < need:
            break
    else:
        raise PlacementInfeasible(
            f"capacity {total_len:.1f} m < {len(agents)} agents "
            f"x min_gap {constraints.min_gap} m")

    rng = random.Random(constraints.seed)
    gap = constraints.min_gap
    conflict = _conflict_pair(agents)

    for _ in range(300):
        states: list[AgentState] = []
        ok = True
        partner_of = {}
        if conflict:
            partner_of[conflict[1]] = conflict[0]
        for idx, agent in enumerate(agents):
            placed = None
            if idx in partner_of and partner_of[idx] < len(states):
                anchor = states[partner_of[idx]]
                edge = graph.edges[anchor.edge_id]
                path = graph.lanes[(anchor.edge_id, anchor.lane_index)]
                g = rng.uniform(gap / 2.0, gap)
                for s in (anchor.s + g, anchor.s - g):
                    if 0.0 <= s <= path.length:
                        cand = _make_state(f"agent{idx}", agent, edge,
                                           anchor.lane_index, path, s)
                        d = [math.dist((cand.x, cand.y), (st.x, st.y))
                             for st in states]
                        if all(v >= gap for j, v in enumerate(d)
                               if states[j].id != anchor.id):
                            placed = cand
                            break
            else:
                for _try in range(40):
                    edge, li = inv[rng.randrange(len(inv))]
                    path = graph.lanes[(edge.id, li)]
                    margin = min(2.0, path.length / 4.0)
                    s = rng.uniform(margin, path.length - margin)
                    cand = _make_state(f"agent{idx}", agent, edge, li, path,
                                       s)
                    if all(math.dist((cand.x, cand.y), (st.x, st.y)) >= gap
                           for st in states):
                        placed = cand
                        break
            if placed is None:
                ok = False
                break
            states.append(placed)
        if ok:
            return states
    return _even_spacing(agents, graph, gap)


def _even_spacing(agents, graph, gap) -> list[AgentState]:
    """Deterministic fallback: even spacing along concatenated lane arc
    length. Pairs on adjacent lanes may sit closer than gap; every pair keeps
    at least gap/2, or PlacementInfeasible is raised."""
    states = []
    spacing = gap * 1.25
    inv, path = iter(graph.inventory), None
    for idx, agent in enumerate(agents):
        while path is None or cursor > path.length - 1.0:
            cursor = gap / 2.0
            edge, li = next(inv, (None, None))
            if edge is None:
                raise PlacementInfeasible("could not satisfy gap constraints")
            path = graph.lanes[(edge.id, li)]
        states.append(_make_state(f"agent{idx}", agent, edge, li, path,
                                  cursor))
        cursor += spacing
    if min_pair_distance(states) < gap / 2.0:
        raise PlacementInfeasible("fallback violated the hard gap floor")
    return states


def generate_objects(desc: ScenarioDescription, net: netgen.RoadNetwork,
                     constraints: PlacementConstraints) -> list[PlacedObject]:
    """Place static objects; cone taper hints produce an equally spaced,
    monotone-lateral-offset line closing one lane."""
    graph = net.lane_graph
    if not graph.inventory:
        raise PlacementInfeasible("network has no lanes")
    if not desc.objects:
        return []
    rng = random.Random(constraints.seed ^ 0x5EED)
    # prefer a multi-lane edge for closures: (-lanes, edge id, lane index)
    ranked = sorted((-e.num_lanes, e.id, li) for e, li in graph.inventory)
    out: list[PlacedObject] = []
    taper_anchor = None

    for obj in desc.objects:
        fp = OBJECT_FOOTPRINTS[obj.kind]
        if obj.kind == "Cone" and any(k in obj.placement_hint.lower()
                                      for k in ("taper", "closure")):
            path = graph.lanes[ranked[0][1:]]
            L = path.length
            s0 = max(4.0, 0.3 * L)
            room = max(L - s0 - 2.0, 2.0)
            spacing = min(8.0, room / max(obj.count - 1, 1))
            lane_w = netgen.DEFAULT_LANE_WIDTH
            for i in range(obj.count):
                s = s0 + i * spacing
                x, y, hd = path.point_at(min(s, L))
                rad = math.radians(hd)
                # monotone lateral slide from shoulder to lane center
                frac = i / max(obj.count - 1, 1)
                off = (0.5 - frac) * lane_w
                x += math.sin(rad) * off
                y += -math.cos(rad) * off
                out.append(PlacedObject(kind="Cone", x=x, y=y,
                                        yaw=_wrap_heading(hd), footprint=fp))
            taper_anchor = (path, s0)
        elif obj.kind == "WarningSign":
            if taper_anchor is not None:
                path, s0 = taper_anchor
            else:
                path = graph.lanes[ranked[0][1:]]
                s0 = max(4.0, 0.3 * path.length)
            s = max(0.0, s0 - 15.0)
            x, y, hd = path.point_at(s)
            for _ in range(obj.count):
                out.append(PlacedObject(kind="WarningSign", x=x, y=y,
                                        yaw=_wrap_heading(hd), footprint=fp))
        else:
            path = graph.lanes[ranked[rng.randrange(len(ranked))][1:]]
            L = path.length
            base = rng.uniform(0.1 * L, 0.6 * L)
            step = min(5.0, max(L - base, 1.0) / max(obj.count, 1))
            for i in range(obj.count):
                x, y, hd = path.point_at(min(base + i * step, L))
                out.append(PlacedObject(kind=obj.kind, x=x, y=y,
                                        yaw=_wrap_heading(hd), footprint=fp))
    return out


def random_trip_placement(net: netgen.RoadNetwork, n_agents: int,
                          seed: int = 0) -> list[AgentState]:
    """RandomTrip-style baseline: uniform lane + longitudinal position,
    no gap constraint, deterministic per seed."""
    inv = net.lane_graph.inventory
    if not inv:
        raise PlacementInfeasible("network has no lanes")
    rng = random.Random(seed)
    out = []
    for i in range(n_agents):
        edge, li = inv[rng.randrange(len(inv))]
        path = net.lane_graph.lanes[(edge.id, li)]
        s = rng.uniform(0.0, path.length)
        x, y, heading = path.point_at(s)
        length, width = VEHICLE_DIMS["Car"]
        out.append(AgentState(
            id=f"rt{i}", kind="Car", role="AV" if i == 0 else "BV",
            edge_id=edge.id, lane_index=li, s=s,
            speed=rng.uniform(0.0, edge.speed), heading=_wrap_heading(heading),
            x=x, y=y, length=length, width=width))
    return out
