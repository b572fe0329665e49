"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed yields the same
inputs, and the program under test only ever sees the generated inputs.

- batch_mixed: one ``run_batch`` over ten inputs covering all five input
  modalities and all six road layouts, ten variations each.
- dense_highway: ``run_pipeline`` on a 32-car video descriptor whose depth
  samples integrate to a ~3 km road, so nearly every agent stays active.
- osm_grid: ``run_pipeline`` on a GPS box backed by a seeded ~20x20 OSM
  street grid (~1.1k edges) with realistic ``lanes``/``maxspeed`` tags.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from scenarioforge import ir

# closed-loop workloads cycle over this many generated inputs; many distinct
# inputs keep the per-seed amount of work (the mock's 2-4 agents per osm_grid
# input) and the pooled median steady from seed to seed
CLOSED_LOOP_INPUTS = 21

_COLORS = ("red", "white", "black", "blue", "silver", "grey")


@dataclass
class Workload:
    """Generated inputs plus the pipeline settings one workload runs with.

    ``inputs`` are (source, seed) pairs for closed-loop workloads; for a
    batch workload they are the batch inputs, run with ``global_seed``.
    ``config`` holds further ``PipelineConfig`` fields. ``osm_xml`` is
    written to disk by the caller and passed to the program as
    ``PipelineConfig.osm_fixture``.
    """
    name: str
    batch: bool
    inputs: list
    config: dict = field(default_factory=dict)
    osm_xml: str = ""
    global_seed: int = 0


# ---------------------------------------------------------------------------
# OSM extracts


def osm_grid_xml(rng: random.Random, size: int = 20,
                 spacing_deg: float = 0.0009
                 ) -> tuple[str, ir.GpsBoundingBox]:
    """A size x size street grid: every row and column is one way through
    size nodes, so ways split at every crossing.

    Half of the ways are two-way with ``lanes=2``, half one-way with
    ``lanes=3``; ``maxspeed`` is given in km/h for some ways and in ``mph``
    for others. Node positions are jittered by the seed.
    """
    lat0 = 0.01 * rng.randint(-20, 20)
    lon0 = 0.01 * rng.randint(-20, 20)
    lines = ['<osm version="0.6">']
    node_id = {}
    for r in range(size):
        for c in range(size):
            nid = 1000 + r * size + c
            node_id[r, c] = nid
            lat = lat0 + r * spacing_deg + rng.uniform(-0.1, 0.1) * spacing_deg
            lon = lon0 + c * spacing_deg + rng.uniform(-0.1, 0.1) * spacing_deg
            lines.append(f'  <node id="{nid}" lat="{lat:.7f}" '
                         f'lon="{lon:.7f}"/>')
    ways = [[node_id[r, c] for c in range(size)] for r in range(size)]
    ways += [[node_id[r, c] for r in range(size)] for c in range(size)]
    oneway = [i % 2 == 1 for i in range(len(ways))]
    rng.shuffle(oneway)
    for i, refs in enumerate(ways):
        if oneway[i]:
            tags = {"highway": "secondary", "oneway": "yes", "lanes": "3"}
        else:
            tags = {"highway": "residential", "lanes": "2"}
        tags["maxspeed"] = rng.choice(("30", "50", "60", "20 mph", "30 mph"))
        tags["name"] = f"Street {i}"
        lines.append(f'  <way id="{500 + i}">')
        lines.append("    " + "".join(f'<nd ref="{r}"/>' for r in refs))
        for k, v in tags.items():
            lines.append(f'    <tag k="{k}" v="{v}"/>')
        lines.append("  </way>")
    # a footway that ingestion must drop
    lines.append('  <way id="9999"><nd ref="1000"/><nd ref="1001"/>'
                 '<tag k="highway" v="footway"/></way>')
    lines.append("</osm>")
    margin = 2 * spacing_deg
    bbox = ir.GpsBoundingBox(lat0 - margin, lon0 - margin,
                             lat0 + size * spacing_deg + margin,
                             lon0 + size * spacing_deg + margin)
    return "\n".join(lines) + "\n", bbox


def osm_t_junction_xml(rng: random.Random) -> tuple[str, ir.GpsBoundingBox]:
    """A real-world style T junction: a two-way through road and a one-way
    side street ending at it."""
    d = 0.001 * (1.0 + rng.random())
    xml = f"""<osm version="0.6">
  <node id="1" lat="0.0" lon="{-d:.7f}"/>
  <node id="2" lat="0.0" lon="0.0"/>
  <node id="3" lat="0.0" lon="{d:.7f}"/>
  <node id="4" lat="{-d:.7f}" lon="0.0"/>
  <way id="10"><nd ref="1"/><nd ref="2"/><nd ref="3"/>
    <tag k="highway" v="primary"/><tag k="lanes" v="2"/>
    <tag k="maxspeed" v="50"/></way>
  <way id="11"><nd ref="4"/><nd ref="2"/>
    <tag k="highway" v="residential"/><tag k="oneway" v="yes"/>
    <tag k="maxspeed" v="20 mph"/></way>
</osm>
"""
    return xml, ir.GpsBoundingBox(-2 * d, -2 * d, 2 * d, 2 * d)


# ---------------------------------------------------------------------------
# video / depth


def depth_samples_for(rng: random.Random, distance: float
                      ) -> tuple[float, ...]:
    """Per-frame depths to successive landmarks whose decreases integrate to
    ``distance`` metres (each landmark is approached, then a farther one is
    picked up, which contributes nothing)."""
    samples = []
    left = distance
    while left > 1e-6:
        run = min(left, rng.uniform(120.0, 180.0))
        start = run + rng.uniform(10.0, 40.0)
        n = rng.randint(3, 6)
        for k in range(n + 1):
            samples.append(round(start - run * k / n, 6))
        left -= run
    return tuple(samples)


def dense_highway_input(rng: random.Random, n_cars: int = 32,
                        distance: float = 3000.0) -> ir.VideoDescriptor:
    filler = ("clear sky", "dashcam footage", "steady traffic flow",
              "lane markings visible", "daytime drive", "light wind")
    # "curve" makes the mock lay a one-segment Curve: a straight 3 km road
    # with a backward lane, so every input has the same two edges
    captions = [f"{n_cars} cars on a busy highway", "long gentle curve"]
    captions += rng.sample(filler, 2)
    return ir.VideoDescriptor(frame_captions=tuple(captions),
                              depth_samples=depth_samples_for(rng, distance))


# ---------------------------------------------------------------------------
# batch inputs


def batch_inputs(rng: random.Random) -> list:
    """Ten inputs: all five modalities, all six road layouts (TJunction via
    the OSM extract), a cone-taper construction zone, a cut-in conflict pair
    and vulnerable road users, with 2-6 agents each.

    Agent and object counts are fixed so every seed asks for the same amount
    of work; the seed varies colours, weather, depths and the batch seed."""
    color = rng.choice(_COLORS)
    weather = rng.choice(("", " in the rain", " in fog", " at night"))
    long_pad = (" The report was filed by the site supervisor after the "
                "morning shift and covers the full approach to the works.")
    return [
        ir.TextRequest(f"two cars on a straight road, the {color} one cuts in "
                       f"ahead{weather}"),
        ir.TextRequest("construction zone lane closure with 6 cones and "
                       "three cars approaching the taper" + long_pad),
        ir.CrashReport(f"At the intersection a {color} car made a left turn "
                       f"while a pedestrian was crossing; three vehicles "
                       f"were involved{weather}."),
        ir.ImageDescriptor(
            captions=(f"roundabout entry with a {color} car",),
            elements=(("cars", 3), ("cyclist", 1))),
        ir.VideoDescriptor(
            frame_captions=("highway merge ahead", "ramp traffic joins",
                            "two cars in view"),
            depth_samples=depth_samples_for(rng, rng.uniform(180.0, 220.0))),
        ir.TextRequest(f"five cars and a truck on a sharp curve{weather}"),
        ir.GpsBoundingBox(*_t_bbox(rng)),
        ir.CrashReport(f"Rear-end collision risk on a highway{weather}: the "
                       f"{color} lead car braked hard with four vehicles "
                       f"following closely."),
        ir.ImageDescriptor(
            captions=("roadwork with cones and a warning sign",),
            elements=(("cars", 2), ("cones", 5), ("warning sign", 1))),
        ir.TextRequest("busy intersection left turn conflict with three "
                       "vehicles and a cyclist"),
    ]


def _t_bbox(rng: random.Random):
    # the bbox only shapes the interpreter's text; geometry comes from the
    # batch's OSM extract
    off = rng.randint(0, 999) * 1e-6
    return (-0.004 + off, -0.004, 0.004 + off, 0.004)


# ---------------------------------------------------------------------------


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """Generate workload ``name`` from ``seed``. ``tiny`` shrinks every input
    (used by the smoke test)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "batch_mixed":
        osm_xml, _ = osm_t_junction_xml(rng)
        inputs = batch_inputs(rng)
        config = {"variations": 2 if tiny else 10}
        if tiny:
            inputs = inputs[:3] + inputs[6:7]
            config["duration"] = 3.0
        return Workload(name, True, inputs, config, osm_xml,
                        global_seed=rng.randint(0, 10_000) * 1000)
    if name == "dense_highway":
        n = CLOSED_LOOP_INPUTS if not tiny else 2
        cars, dist = (32, 3000.0) if not tiny else (6, 400.0)
        inputs = [(dense_highway_input(rng, cars, dist),
                   rng.randint(0, 1_000_000)) for _ in range(n)]
        return Workload(name, False, inputs,
                        {"duration": 3.0} if tiny else {})
    if name == "osm_grid":
        osm_xml, bbox = osm_grid_xml(rng, size=4 if tiny else 20)
        n = CLOSED_LOOP_INPUTS if not tiny else 2
        inputs = []
        for _ in range(n):
            shift = rng.randint(0, 999) * 1e-7
            box = ir.GpsBoundingBox(bbox.min_lat + shift, bbox.min_lon,
                                    bbox.max_lat + shift, bbox.max_lon)
            inputs.append((box, rng.randint(0, 1_000_000)))
        return Workload(name, False, inputs,
                        {"duration": 3.0} if tiny else {}, osm_xml)
    raise KeyError(f"unknown workload: {name}")


def sweep_input(seed: int, n_cars: int) -> tuple[ir.VideoDescriptor, int]:
    """The dense_highway input at a given car count, for the traced sweep."""
    rng = random.Random(f"sweep:{seed}")
    return dense_highway_input(rng, n_cars), rng.randint(0, 1_000_000)
