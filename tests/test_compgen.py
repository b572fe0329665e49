import dataclasses
import inspect
import math
import random

import pytest

from scenarioforge import compgen, ir, netgen

from conftest import street_grid_network


def make_net(length=200.0, fwd=2, back=0, speed=13.89):
    road = ir.RoadDescription(
        layout="Straight", segments=(ir.RoadSegment(length, fwd, back, speed),))
    return netgen.build_network_blueprint(road)


def make_desc(agents, objects=(), narrative=""):
    return ir.ScenarioDescription(
        road=ir.RoadDescription(
            layout="Straight", segments=(ir.RoadSegment(200.0, 2, 0, 13.89),)),
        objects=tuple(objects), agents=tuple(agents),
        weather=ir.WeatherDescription(), narrative=narrative)


CUT_IN_AGENTS = (
    ir.AgentDescription("Car", "AV", intent="cruise", approx_speed=10.0),
    ir.AgentDescription("Car", "BV", intent="cut-in", approx_speed=12.0),
    ir.AgentDescription("Truck", "BV", intent="follow", approx_speed=8.0),
)


def pairwise_distances(states):
    return [math.dist((a.x, a.y), (b.x, b.y))
            for i, a in enumerate(states) for b in states[i + 1:]]


def test_generate_agents_respects_gaps():
    net = make_net()
    cons = compgen.PlacementConstraints(min_gap=4.0, seed=3)
    states = compgen.generate_agents(make_desc(CUT_IN_AGENTS), net, cons)
    assert len(states) == 3
    av = [s for s in states if s.role == "AV"]
    assert len(av) == 1
    # conflict pair sits inside [min_gap/2, min_gap]
    d_conflict = math.dist((states[0].x, states[0].y),
                           (states[1].x, states[1].y))
    assert 2.0 - 1e-9 <= d_conflict <= 4.0 + 1e-9
    # everyone stays above the hard floor
    assert min(pairwise_distances(states)) >= 2.0 - 1e-9
    # non-conflict pairs keep the full gap
    for pair in ((0, 2), (1, 2)):
        d = math.dist((states[pair[0]].x, states[pair[0]].y),
                      (states[pair[1]].x, states[pair[1]].y))
        assert d >= 4.0 - 1e-9


def test_generate_agents_without_conflict_keeps_min_gap():
    agents = (ir.AgentDescription("Car", "AV", intent="cruise"),
              ir.AgentDescription("Car", "BV", intent="follow"),
              ir.AgentDescription("Car", "BV", intent="follow"))
    net = make_net()
    for seed in range(20):
        cons = compgen.PlacementConstraints(min_gap=4.0, seed=seed)
        states = compgen.generate_agents(make_desc(agents), net, cons)
        assert min(pairwise_distances(states)) >= 4.0 - 1e-9


def test_fallback_guarantees_only_half_the_gap():
    # a 4.5 m road leaves the random search a 2.25 m window, too short for
    # two cars min_gap apart on one lane or on adjacent lanes (3.2 m apart),
    # so every seed ends in the even-spacing fallback
    net = make_net(length=4.5, fwd=2)
    agents = (ir.AgentDescription("Car", "AV", intent="cruise"),
              ir.AgentDescription("Car", "BV", intent="follow"))
    states = compgen.generate_agents(make_desc(agents), net,
                                     compgen.PlacementConstraints(min_gap=4.0))
    assert 2.0 - 1e-9 <= min(pairwise_distances(states)) < 4.0


def test_even_spacing_fallback_keeps_half_gap_floor():
    below_gap = 0
    for seed in range(200):
        rng = random.Random(seed)
        gap = rng.uniform(1.0, 8.0)
        net = make_net(length=rng.uniform(4.0, 60.0), fwd=rng.randint(1, 4))
        graph = net.lane_graph
        n = rng.randint(2, 16)
        if sum(graph.lanes[(e.id, li)].length
               for e, li in graph.inventory) < n * gap:
            continue  # generate_agents rejects it before any placement
        agents = [ir.AgentDescription("Car", "AV" if i == 0 else "BV")
                  for i in range(n)]
        try:
            states = compgen._even_spacing(agents, graph, gap)
        except compgen.PlacementInfeasible:
            continue
        assert len(states) == n
        shortest = min(pairwise_distances(states))
        assert shortest >= gap / 2.0 - 1e-9
        below_gap += shortest < gap
    assert below_gap > 0


def test_placement_on_street_grid_measures_few_lanes(rng):
    net = street_grid_network(rng)
    graph = net.lane_graph
    cons = compgen.PlacementConstraints(seed=5)
    desc = make_desc(CUT_IN_AGENTS + (ir.AgentDescription("Car", "BV"),))
    assert compgen.generate_objects(desc, net, cons) == []
    assert len(graph.lanes) == 0
    states = compgen.generate_agents(desc, net, cons)
    assert len(states) == 4
    # lanes are measured on first lookup: the capacity check stops once
    # the agents fit, and the search reads only the lanes it draws
    assert 0 < len(graph.lanes) < len(graph.inventory)


def test_generate_agents_deterministic():
    net = make_net()
    cons = compgen.PlacementConstraints(seed=7)
    a = compgen.generate_agents(make_desc(CUT_IN_AGENTS), net, cons)
    b = compgen.generate_agents(make_desc(CUT_IN_AGENTS), net, cons)
    assert a == b
    c = compgen.generate_agents(make_desc(CUT_IN_AGENTS), net,
                                compgen.PlacementConstraints(seed=8))
    assert [(s.x, s.y) for s in a] != [(s.x, s.y) for s in c]


def test_av_promotion_when_missing():
    agents = (ir.AgentDescription("Car", "BV"),
              ir.AgentDescription("Truck", "BV"))
    states = compgen.generate_agents(make_desc(agents), make_net(),
                                     compgen.PlacementConstraints())
    assert sum(1 for s in states if s.role == "AV") == 1
    assert states[0].role == "AV"


def test_only_vrus_cannot_form_a_bundle():
    agents = (ir.AgentDescription("Pedestrian", "VRU"),)
    with pytest.raises(compgen.PlacementInfeasible):
        compgen.generate_agents(make_desc(agents), make_net(),
                                compgen.PlacementConstraints())


def test_capacity_infeasible_ten_agents_on_twenty_meters():
    net = make_net(length=20.0, fwd=1)
    agents = tuple(ir.AgentDescription("Car", "AV" if i == 0 else "BV")
                   for i in range(10))
    with pytest.raises(compgen.PlacementInfeasible):
        compgen.generate_agents(make_desc(agents), net,
                                compgen.PlacementConstraints(min_gap=4.0))


def test_max_agents_enforced():
    agents = tuple(ir.AgentDescription("Car", "AV" if i == 0 else "BV")
                   for i in range(5))
    with pytest.raises(compgen.PlacementInfeasible):
        compgen.generate_agents(make_desc(agents), make_net(),
                                compgen.PlacementConstraints(max_agents=4))


def test_min_gap_must_be_positive():
    with pytest.raises(ValueError):
        compgen.PlacementConstraints(min_gap=0.0)


def test_speed_clamped_to_edge_limit():
    net = make_net(speed=10.0)
    agents = (ir.AgentDescription("Car", "AV", approx_speed=99.0),)
    states = compgen.generate_agents(make_desc(agents), net,
                                     compgen.PlacementConstraints())
    assert states[0].speed == pytest.approx(15.0)  # 1.5x edge speed


def test_states_carry_geometry_and_dimensions():
    states = compgen.generate_agents(make_desc(CUT_IN_AGENTS), make_net(),
                                     compgen.PlacementConstraints(seed=1))
    for s in states:
        assert -180.0 < s.heading <= 180.0
        assert (s.length, s.width) == compgen.VEHICLE_DIMS[s.kind]
    truck = [s for s in states if s.kind == "Truck"][0]
    assert (truck.length, truck.width) == (8.0, 2.5)


def test_heading_validation_on_state():
    with pytest.raises(ValueError):
        compgen.AgentState("a", "Car", "AV", "e", 0, 0.0, 0.0, -180.0,
                           0.0, 0.0, 4.5, 1.8)
    with pytest.raises(ValueError):
        compgen.AgentState("a", "Car", "AV", "e", 0, 0.0, -1.0, 0.0,
                           0.0, 0.0, 4.5, 1.8)


def test_agent_state_is_a_frozen_dataclass():
    """The hand-written __init__ keeps the dataclass contract: its
    parameters are the fields, and the state stays frozen, equal, hashable
    and validated through replace."""
    fields = dataclasses.fields(compgen.AgentState)
    params = inspect.signature(compgen.AgentState).parameters
    assert list(params) == [f.name for f in fields]
    assert params["color"].default is None
    assert all(p.default is inspect.Parameter.empty
               for name, p in params.items() if name != "color")
    values = ("a", "Car", "BV", "e", 1, 2.0, 3.0, -90.0, 4.0, 5.0, 4.5, 1.8,
              "red")
    state = compgen.AgentState(*values)
    by_name = compgen.AgentState(**{f.name: v for f, v in zip(fields, values)})
    assert state == by_name and hash(state) == hash(by_name)
    assert dataclasses.astuple(state) == values
    assert dataclasses.asdict(state)["heading"] == -90.0
    assert repr(state).startswith("AgentState(id='a', kind='Car'")
    assert compgen.AgentState(*values[:-1]).color is None
    assert dataclasses.replace(state, x=7.0) == \
        compgen.AgentState(*values[:8], 7.0, *values[9:])
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, f.name, None)
    with pytest.raises(ValueError):
        dataclasses.replace(state, heading=181.0)
    for speed in (-1.0, math.nan):
        with pytest.raises(ValueError):
            dataclasses.replace(state, speed=speed)


# ---------------------------------------------------------------------------
# static objects

def test_cone_taper_layout():
    net = make_net()
    desc = make_desc(CUT_IN_AGENTS,
                     objects=(ir.ObjectDescription("Cone", 6,
                                                   "lane closure taper"),))
    cones = compgen.generate_objects(desc, net,
                                     compgen.PlacementConstraints(seed=0))
    assert len(cones) == 6
    assert all(c.kind == "Cone" for c in cones)
    xs = [c.x for c in cones]
    # the road runs along +x, so x-gaps measure along-road spacing
    gaps = [cones[i + 1].x - cones[i].x for i in range(len(cones) - 1)]
    assert max(gaps) <= 8.0 + 1e-9
    assert max(gaps) - min(gaps) < 1e-6
    assert xs == sorted(xs)
    # lateral slide is monotone (closing the lane)
    ys = [c.y for c in cones]
    diffs = [ys[i + 1] - ys[i] for i in range(len(ys) - 1)]
    assert all(d <= 1e-9 for d in diffs) or all(d >= -1e-9 for d in diffs)


def test_warning_sign_upstream_of_taper():
    net = make_net()
    desc = make_desc(
        CUT_IN_AGENTS,
        objects=(ir.ObjectDescription("Cone", 4, "lane closure taper"),
                 ir.ObjectDescription("WarningSign", 1, "upstream")))
    objs = compgen.generate_objects(desc, net,
                                    compgen.PlacementConstraints(seed=0))
    cones = [o for o in objs if o.kind == "Cone"]
    signs = [o for o in objs if o.kind == "WarningSign"]
    assert len(signs) == 1
    # the sign precedes the first cone along the travel direction (+x here)
    assert signs[0].x < min(c.x for c in cones)
    first_cone_s = min(c.x for c in cones)
    # 15 m upstream modulo the cone's own lateral shaping
    assert signs[0].x == pytest.approx(first_cone_s - 15.0, abs=1.0)


def test_objects_deterministic():
    net = make_net()
    desc = make_desc(CUT_IN_AGENTS,
                     objects=(ir.ObjectDescription("Barrier", 3),))
    cons = compgen.PlacementConstraints(seed=5)
    assert compgen.generate_objects(desc, net, cons) == \
        compgen.generate_objects(desc, net, cons)


# ---------------------------------------------------------------------------
# random-trip baseline

def test_random_trip_basics():
    net = make_net()
    states = compgen.random_trip_placement(net, 4, seed=2)
    assert len(states) == 4
    assert states[0].role == "AV"
    assert all(s.role == "BV" for s in states[1:])
    assert compgen.random_trip_placement(net, 4, seed=2) == states


def test_random_trip_is_uniform_over_lanes():
    # two single-lane edges of equal length: ~50/50 split over many draws
    road = ir.RoadDescription(
        layout="Straight", segments=(ir.RoadSegment(100.0, 1, 1, 13.89),))
    net = netgen.build_network_blueprint(road)
    counts = {e.id: 0 for e in net.edges}
    n = 1000
    for seed in range(n):
        s = compgen.random_trip_placement(net, 1, seed=seed)[0]
        counts[s.edge_id] += 1
    for c in counts.values():
        assert abs(c / n - 0.5) < 0.05


def test_random_trip_gives_no_gap_guarantee():
    net = make_net(length=60.0, fwd=1)
    violated = False
    for seed in range(200):
        states = compgen.random_trip_placement(net, 5, seed=seed)
        if min(pairwise_distances(states)) < 4.0:
            violated = True
            break
    assert violated
