"""Universal scenario representation and canonical document serialization.

Every pipeline stage communicates through these value types. The canonical
document format is sorted-key JSON with a "usd-v1" format header so that
serialization is deterministic and machine-checkable.
"""
from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import asdict, dataclass, field
from typing import Optional, Union

FORMAT_HEADER = "usd-v1"

SCENE_TYPES = ("General", "Intersection", "ConstructionZone")
ROAD_LAYOUTS = ("Straight", "Curve", "TJunction", "CrossIntersection",
                "Merge", "Roundabout")
AGENT_KINDS = ("Car", "Truck", "Bus", "Motorcycle", "Cyclist", "Pedestrian")
AGENT_ROLES = ("AV", "BV", "VRU")
OBJECT_KINDS = ("Cone", "WarningSign", "Barrier", "Fence", "LaneMarking")

VRU_KINDS = ("Cyclist", "Pedestrian")


class DescriptionError(ValueError):
    """Base class for scenario-description construction/parsing failures."""


class MissingSection(DescriptionError):
    def __init__(self, section: str):
        self.section = section
        super().__init__(f"missing section: {section}")


class InvalidEnum(DescriptionError):
    def __init__(self, field_name: str, value):
        self.field = field_name
        self.value = value
        super().__init__(f"invalid value for {field_name}: {value!r}")


class RangeViolation(DescriptionError):
    def __init__(self, field_name: str, value=None):
        self.field = field_name
        self.value = value
        super().__init__(f"value out of range for {field_name}: {value!r}")


class BlueprintReuse(DescriptionError):
    """Agent/object kind token duplicated, e.g. "Car.Car"."""

    def __init__(self, field_name: str, value):
        self.field = field_name
        self.value = value
        super().__init__(f"blueprint name reuse in {field_name}: {value!r}")


def fold_sum(values):
    """sum() of floats as before Python 3.12, which compensates rounding."""
    return functools.reduce(operator.add, values, 0)


def _check_enum(name: str, value, allowed):
    if value not in allowed:
        if isinstance(value, str) and "." in value:
            parts = value.split(".")
            if len(parts) >= 2 and len(set(parts)) < len(parts):
                raise BlueprintReuse(name, value)
        raise InvalidEnum(name, value)


def _check_range(name: str, value, lo, hi, lo_open=False, hi_open=False):
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        raise RangeViolation(name, value)
    if not math.isfinite(v):
        raise RangeViolation(name, value)
    if lo is not None and (v <= lo if lo_open else v < lo):
        raise RangeViolation(name, value)
    if hi is not None and (v >= hi if hi_open else v > hi):
        raise RangeViolation(name, value)
    return v


def _check_int(name: str, value) -> int:
    """int(value); a value int() refuses (None, a list, NaN, an infinity)
    is a RangeViolation, as in _check_range."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise RangeViolation(name, value)


@dataclass(frozen=True)
class RoadSegment:
    length: float
    lanes_forward: int
    lanes_backward: int
    speed_limit: float

    def __post_init__(self):
        _check_range("length", self.length, 0.0, None, lo_open=True)
        _check_range("speed_limit", self.speed_limit, 0.0, None, lo_open=True)
        forward = _check_int("lanes", self.lanes_forward)
        backward = _check_int("lanes", self.lanes_backward)
        if forward < 0 or backward < 0 or forward + backward < 1:
            raise RangeViolation("lanes", (self.lanes_forward, self.lanes_backward))
        object.__setattr__(self, "length", float(self.length))
        object.__setattr__(self, "speed_limit", float(self.speed_limit))
        object.__setattr__(self, "lanes_forward", forward)
        object.__setattr__(self, "lanes_backward", backward)


@dataclass(frozen=True)
class RoadDescription:
    layout: str
    segments: tuple[RoadSegment, ...]
    junction_notes: str = ""

    def __post_init__(self):
        _check_enum("layout", self.layout, ROAD_LAYOUTS)
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise MissingSection("road.segments")


@dataclass(frozen=True)
class AgentDescription:
    kind: str
    role: str
    intent: str = ""
    approx_speed: float = 0.0
    relative_position: str = ""
    color: Optional[str] = None

    def __post_init__(self):
        _check_enum("agent.kind", self.kind, AGENT_KINDS)
        _check_enum("agent.role", self.role, AGENT_ROLES)
        _check_range("agent.approx_speed", self.approx_speed, 0.0, None)
        if self.kind in VRU_KINDS and self.role != "VRU":
            raise InvalidEnum("agent.role", self.role)
        object.__setattr__(self, "approx_speed", float(self.approx_speed))


@dataclass(frozen=True)
class ObjectDescription:
    kind: str
    count: int
    placement_hint: str = ""

    def __post_init__(self):
        _check_enum("object.kind", self.kind, OBJECT_KINDS)
        count = _check_int("object.count", self.count)
        if count < 1:
            raise RangeViolation("object.count", self.count)
        object.__setattr__(self, "count", count)


@dataclass(frozen=True)
class WeatherDescription:
    precipitation: float = 0.0
    fog_density: float = 0.0
    sun_altitude: float = 45.0
    time_of_day: float = 12.0

    def __post_init__(self):
        object.__setattr__(self, "precipitation",
                           _check_range("precipitation", self.precipitation, 0.0, 1.0))
        object.__setattr__(self, "fog_density",
                           _check_range("fog_density", self.fog_density, 0.0, 1.0))
        object.__setattr__(self, "sun_altitude",
                           _check_range("sun_altitude", self.sun_altitude, -90.0, 90.0))
        object.__setattr__(self, "time_of_day",
                           _check_range("time_of_day", self.time_of_day, 0.0, 24.0, hi_open=True))


@dataclass(frozen=True)
class ScenarioDescription:
    road: RoadDescription
    objects: tuple[ObjectDescription, ...]
    agents: tuple[AgentDescription, ...]
    weather: WeatherDescription
    narrative: str = ""
    scene_type: str = "General"

    def __post_init__(self):
        _check_enum("scene_type", self.scene_type, SCENE_TYPES)
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "agents", tuple(self.agents))
        n_av = sum(1 for a in self.agents if a.role == "AV")
        if n_av > 1:
            raise InvalidEnum("agents.role", "multiple AV")


# ---------------------------------------------------------------------------
# multimodal input variants

@dataclass(frozen=True)
class TextRequest:
    text: str


@dataclass(frozen=True)
class CrashReport:
    text: str


@dataclass(frozen=True)
class ImageDescriptor:
    captions: tuple[str, ...]
    elements: tuple[tuple[str, int], ...]  # (kind, count) detections

    def __post_init__(self):
        object.__setattr__(self, "captions", tuple(self.captions))
        object.__setattr__(self, "elements",
                           tuple((k, int(n)) for k, n in self.elements))
        if any(n < 1 for _, n in self.elements):
            raise RangeViolation("image.elements", self.elements)


@dataclass(frozen=True)
class VideoDescriptor:
    frame_captions: tuple[str, ...]
    depth_samples: tuple[float, ...]  # forward depth to a tracked landmark, per frame

    def __post_init__(self):
        object.__setattr__(self, "frame_captions", tuple(self.frame_captions))
        object.__setattr__(self, "depth_samples",
                           tuple(float(d) for d in self.depth_samples))
        if len(self.frame_captions) < 2:
            raise RangeViolation("video.frames", len(self.frame_captions))


@dataclass(frozen=True)
class GpsBoundingBox:
    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def __post_init__(self):
        # the bounds also reject NaN and infinite coordinates
        if not (-90 <= self.min_lat < self.max_lat <= 90
                and -180 <= self.min_lon < self.max_lon <= 180):
            raise RangeViolation("bbox", (self.min_lat, self.min_lon,
                                          self.max_lat, self.max_lon))


MultimodalInput = Union[TextRequest, CrashReport, ImageDescriptor,
                        VideoDescriptor, GpsBoundingBox]


@dataclass(frozen=True)
class PromptKnowledgeBase:
    templates: dict = field(default_factory=dict)
    constraints: tuple[str, ...] = ()
    code_examples: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioBundle:
    """Critical-moment scenario: network plus placed agents and objects."""
    description: ScenarioDescription
    network: "object"           # netgen.RoadNetwork
    agents: tuple               # compgen.AgentState
    objects: tuple              # compgen.PlacedObject
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "objects", tuple(self.objects))
        if sum(1 for a in self.agents if a.role == "AV") != 1:
            raise InvalidEnum("bundle.agents", "expected exactly one AV")


# ---------------------------------------------------------------------------
# canonical document serialization

def canonical_json(data) -> str:
    """The one JSON text of every document and artifact: sorted keys, two
    spaces of indent, a final newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def description_to_dict(d: ScenarioDescription) -> dict:
    """The canonical document of a description as JSON-ready data."""
    return {"format": FORMAT_HEADER, **asdict(d)}


def serialize_description(d: ScenarioDescription) -> str:
    """Canonical, deterministic text document for a scenario description."""
    return canonical_json(description_to_dict(d))


_ABSENT = object()


def _req(obj: dict, key: str, kind=object, default=_ABSENT):
    """obj[key], or default when it is absent and one is given;
    MissingSection(key) when it is absent without a default or not a kind."""
    if key not in obj and default is not _ABSENT:
        return default
    if key not in obj or not isinstance(obj[key], kind):
        raise MissingSection(key)
    return obj[key]


def _records(obj: dict, key: str) -> list:
    """obj[key] as a list of JSON objects."""
    items = _req(obj, key, list)
    if not all(isinstance(item, dict) for item in items):
        raise MissingSection(key)
    return items


def parse_description(doc: str) -> ScenarioDescription:
    """Parse a canonical document back into a ScenarioDescription.

    Raises MissingSection / InvalidEnum / RangeViolation on structural faults;
    a section of the wrong JSON type (road or weather not an object, segments,
    objects or agents not a list of objects) is a MissingSection, and so is
    a text field that is present but not a string (a color may be null).
    """
    try:
        data = json.loads(doc)
    except (json.JSONDecodeError, TypeError):
        raise MissingSection("document")
    if not isinstance(data, dict):
        raise MissingSection("document")
    if data.get("format") != FORMAT_HEADER:
        raise MissingSection("format")

    road_d = _req(data, "road", dict)
    segments = []
    for s in _records(road_d, "segments"):
        segments.append(RoadSegment(
            length=_req(s, "length"),
            lanes_forward=_req(s, "lanes_forward"),
            lanes_backward=_req(s, "lanes_backward"),
            speed_limit=_req(s, "speed_limit")))
    road = RoadDescription(
        layout=_req(road_d, "layout"), segments=tuple(segments),
        junction_notes=_req(road_d, "junction_notes", str, ""))

    objects = tuple(
        ObjectDescription(kind=_req(o, "kind"), count=_req(o, "count"),
                          placement_hint=_req(o, "placement_hint", str, ""))
        for o in _records(data, "objects"))
    agents = tuple(
        AgentDescription(kind=_req(a, "kind"), role=_req(a, "role"),
                         color=_req(a, "color", (str, type(None)), None),
                         intent=_req(a, "intent", str, ""),
                         approx_speed=a.get("approx_speed", 0.0),
                         relative_position=_req(a, "relative_position", str,
                                                ""))
        for a in _records(data, "agents"))

    w = _req(data, "weather", dict)
    weather = WeatherDescription(
        precipitation=_req(w, "precipitation"),
        fog_density=_req(w, "fog_density"),
        sun_altitude=_req(w, "sun_altitude"),
        time_of_day=_req(w, "time_of_day"))

    return ScenarioDescription(
        road=road, objects=objects, agents=agents, weather=weather,
        narrative=_req(data, "narrative", str, ""),
        scene_type=_req(data, "scene_type"))
