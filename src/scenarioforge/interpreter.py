"""Multimodal input -> scenario description, via provider-backed prompting.

A provider exposes one capability: complete(prompt) -> text. The shipped
MockProvider is a deterministic keyword/template engine so the whole pipeline
runs offline; HttpProvider talks to a remote completion endpoint. Structured
output is re-prompted with the parse error appended, up to max_retries times.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import Optional

from . import ir
from .ir import (CrashReport, DescriptionError, GpsBoundingBox,
                 ImageDescriptor, MultimodalInput, PromptKnowledgeBase,
                 ScenarioDescription, TextRequest, VideoDescriptor,
                 parse_description, serialize_description)

SHORT_REQUEST_THRESHOLD = 120  # chars; shorter text is expanded
DEFAULT_MAX_RETRIES = 3


class InterpreterError(RuntimeError):
    pass


class ProviderUnavailable(InterpreterError):
    pass


class UnparseableAfterRetries(InterpreterError):
    def __init__(self, last_error):
        self.last_error = last_error
        super().__init__(f"provider output unparseable after retries: {last_error}")


class InsufficientFrames(InterpreterError):
    pass


class NonPositiveDepth(ValueError):
    pass


@dataclass(frozen=True)
class ProviderResponse:
    raw_text: str
    parsed: Optional[ScenarioDescription]
    attempt_count: int


# ---------------------------------------------------------------------------
# knowledge base

_CONSTRAINTS = (
    "edge spreadType must be one of: right, center, roadCenter",
    "identifiers must never contain '#' characters",
    "every explicit lane element must carry index and shape attributes",
    "only declared attributes may appear on node, edge and lane elements",
)

_REASONING = ("### REASONING:\n"
              "Think step by step: identify the road structure first, then "
              "static objects, then road users and their intents, then "
              "weather.\n")

_NODE_EDGE_EXAMPLE = (
    '<nodes>\n    <node id="n0" x="0.0" y="0.0" type="priority"/>\n</nodes>\n'
    '<edges>\n    <edge id="e0" from="n0" to="n1" numLanes="2" speed="13.89" '
    'spreadType="right"/>\n</edges>')


def _template(task: str) -> str:
    return (f"### TASK: {task}\n"
            + _REASONING
            + "### CONSTRAINTS:\n{constraints}\n"
            + "### EXAMPLES:\n{examples}\n"
            + "### SEED: {seed}\n"
            + "### INPUT:\n{payload}\n"
            + "### OUTPUT FORMAT: canonical usd-v1 JSON document\n")


def default_knowledge_base() -> PromptKnowledgeBase:
    templates = {
        "interpret_text": _template("interpret_text"),
        "expand_request": _template("expand_request"),
        "restructure_report": _template("restructure_report"),
        "interpret_image": _template("interpret_image"),
        "interpret_video": _template("interpret_video"),
        "netgen": _template("netgen").replace(
            "canonical usd-v1 JSON document",
            "SUMO plain XML nodes document, then '=== EDGES ===', "
            "then the edges document"),
    }
    return PromptKnowledgeBase(templates=templates, constraints=_CONSTRAINTS,
                               code_examples={"node_edge": _NODE_EDGE_EXAMPLE})


def strip_knowledge(kb: PromptKnowledgeBase, *, no_interpreter=False,
                    no_prior_knowledge=False,
                    no_reasoning_section=False) -> PromptKnowledgeBase:
    """Remove named prompt components, mirroring the ablation knobs."""
    templates = dict(kb.templates)
    constraints = kb.constraints
    code_examples = dict(kb.code_examples)
    if no_interpreter:
        for name in list(templates):
            if name != "netgen":
                del templates[name]
    if no_prior_knowledge:
        constraints = ()
        code_examples = {}
    if no_reasoning_section:
        templates = {k: re.sub(r"### REASONING:\n.*?\n(?=### )", "", v,
                               flags=re.S)
                     for k, v in templates.items()}
    return PromptKnowledgeBase(templates=templates, constraints=constraints,
                               code_examples=code_examples)


def _render(kb: PromptKnowledgeBase, name: str, payload: str, seed: int) -> str:
    constraints = "\n".join(kb.constraints) if kb.constraints else "(none)"
    examples = "\n".join(f"[{k}]\n{v}" for k, v in kb.code_examples.items()) \
        if kb.code_examples else "(none)"
    try:
        return kb.render(name, payload=payload, seed=seed,
                         constraints=constraints, examples=examples)
    except KeyError:
        # template ablated away: the raw payload goes out unstructured
        return payload


def render_net_prompt(kb: PromptKnowledgeBase, road, seed: int = 0) -> str:
    payload = json.dumps({
        "layout": road.layout,
        "junction_notes": road.junction_notes,
        "segments": [{"length": s.length, "lanes_forward": s.lanes_forward,
                      "lanes_backward": s.lanes_backward,
                      "speed_limit": s.speed_limit} for s in road.segments],
    }, sort_keys=True)
    return _render(kb, "netgen", payload, seed)


# ---------------------------------------------------------------------------
# providers

class HttpProvider:
    """Minimal HTTP completion client: POST {model, prompt} -> {"text": ...}.

    Endpoint, model and API key come from arguments or the environment
    (SCENARIOFORGE_ENDPOINT / _MODEL / _API_KEY).
    """

    def __init__(self, endpoint: Optional[str] = None,
                 model: Optional[str] = None, api_key: Optional[str] = None,
                 timeout: float = 60.0):
        self.endpoint = endpoint or os.environ.get("SCENARIOFORGE_ENDPOINT")
        self.model = model or os.environ.get("SCENARIOFORGE_MODEL", "default")
        self.api_key = api_key or os.environ.get("SCENARIOFORGE_API_KEY")
        self.timeout = timeout
        if not self.endpoint:
            raise ProviderUnavailable("no provider endpoint configured")

    def complete(self, prompt: str) -> str:
        import urllib.request
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = json.dumps({"model": self.model, "prompt": prompt}).encode()
        try:
            req = urllib.request.Request(self.endpoint, data=body,
                                         headers=headers, method="POST")
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read())["text"]
        except Exception as exc:
            raise ProviderUnavailable(str(exc))


class LoggingProvider:
    """Wraps a provider, writing every prompt/response pair to a directory."""

    def __init__(self, inner, log_dir: str):
        self.inner = inner
        self.log_dir = log_dir
        self._n = 0
        os.makedirs(log_dir, exist_ok=True)

    def complete(self, prompt: str) -> str:
        self._n += 1
        stem = os.path.join(self.log_dir, f"{self._n:03d}")
        with open(stem + "-prompt.txt", "w", encoding="utf-8") as fh:
            fh.write(prompt)
        text = self.inner.complete(prompt)
        with open(stem + "-response.txt", "w", encoding="utf-8") as fh:
            fh.write(text)
        return text


_NUMBER_WORDS = {"one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
                 "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10}


def _singular(kind: str) -> str:
    k = kind.strip().lower()
    if k == "buses":
        return "bus"
    if k.endswith("s") and not k.endswith("us"):
        return k[:-1]
    return k


def _count_before(text: str, nouns: str) -> Optional[int]:
    m = re.search(r"\b(\d+|%s)\s+(?:%s)\b" % ("|".join(_NUMBER_WORDS), nouns),
                  text)
    if not m:
        return None
    tok = m.group(1)
    return int(tok) if tok.isdigit() else _NUMBER_WORDS[tok]


class MockProvider:
    """Deterministic offline stand-in for the LLM provider.

    Parses the task/input markers out of the rendered prompt and synthesizes a
    structured answer with a seeded keyword/template engine. ``fault`` injects
    a specific failure mode (used by fault-injection tests and ablations):

      prose_once      first call answers with free prose, then recovers
      prose           always answers with free prose
      hash_ids        netgen edge ids contain '#'
      bad_spread      netgen emits spreadType="left"
      missing_shape   netgen emits a lane element without shape
      undeclared_attr netgen emits edge function="internal"
      blueprint_reuse interpreter emits a duplicated agent kind token
    """

    def __init__(self, seed: int = 0, fault: Optional[str] = None):
        self.seed = seed
        self.fault = fault
        self._calls = 0

    # -- prompt dissection ---------------------------------------------------
    @staticmethod
    def _task(prompt: str) -> Optional[str]:
        m = re.search(r"^### TASK: (\w+)$", prompt, flags=re.M)
        return m.group(1) if m else None

    @staticmethod
    def _payload(prompt: str) -> str:
        m = re.search(r"### INPUT:\n(.*?)(?:\n### |\Z)", prompt, flags=re.S)
        return m.group(1).strip() if m else prompt.strip()

    @staticmethod
    def _prompt_seed(prompt: str) -> int:
        m = re.search(r"^### SEED: (-?\d+)$", prompt, flags=re.M)
        return int(m.group(1)) if m else 0

    def complete(self, prompt: str) -> str:
        self._calls += 1
        task = self._task(prompt)
        if task is None:
            # unstructured prompt (interpreter ablated away): plain prose out
            return ("The scene shows vehicles on a road. "
                    "No structured description is available.")
        if self.fault == "prose" or (self.fault == "prose_once"
                                     and self._calls == 1):
            return "Sure! Here is a vivid narrative of the scene instead."
        payload = self._payload(prompt)
        seed = self._prompt_seed(prompt) ^ self.seed
        if task == "netgen":
            return self._net_response(prompt, payload, seed)
        return self._description_response(task, payload, seed)

    # -- description synthesis ------------------------------------------------
    def _description_response(self, task: str, payload: str, seed: int) -> str:
        if not payload:
            return ""
        if task == "interpret_image":
            desc = self._from_image(json.loads(payload), seed)
        elif task == "interpret_video":
            desc = self._from_video(json.loads(payload), seed)
        else:
            desc = synthesize_description(payload, seed)
        doc = serialize_description(desc)
        if self.fault == "blueprint_reuse":
            doc = doc.replace('"kind": "Car"', '"kind": "Car.Car"', 1)
        return doc

    def _from_image(self, data: dict, seed: int) -> ScenarioDescription:
        caption = " ".join(data.get("captions", []))
        base = synthesize_description(caption or "road scene", seed)
        agents, objects = [], []
        av_assigned = False
        for kind, count in data.get("elements", []):
            key = _singular(kind)
            if key in ("car", "truck", "bus", "motorcycle"):
                for _ in range(count):
                    role = "AV" if not av_assigned else "BV"
                    av_assigned = True
                    agents.append(ir.AgentDescription(
                        kind=key.capitalize(), role=role, intent="cruise",
                        approx_speed=8.0))
            elif key in ("cyclist", "pedestrian"):
                for _ in range(count):
                    agents.append(ir.AgentDescription(
                        kind=key.capitalize(), role="VRU", intent="cross",
                        approx_speed=1.5))
            elif key in ("cone", "warning sign", "warningsign", "barrier",
                         "fence", "lane marking", "lanemarking"):
                mapping = {"cone": "Cone", "warning sign": "WarningSign",
                           "warningsign": "WarningSign", "barrier": "Barrier",
                           "fence": "Fence", "lane marking": "LaneMarking",
                           "lanemarking": "LaneMarking"}
                objects.append(ir.ObjectDescription(kind=mapping[key],
                                                    count=count))
        return ir.ScenarioDescription(
            road=base.road, objects=tuple(objects), agents=tuple(agents),
            weather=base.weather, narrative=caption,
            scene_type=base.scene_type)

    def _from_video(self, data: dict, seed: int) -> ScenarioDescription:
        captions = data.get("captions", [])
        depths = data.get("depths", [])
        text = " ".join(captions)
        base = synthesize_description(text or "dashcam drive", seed)
        length = integrate_forward_distance(depths) if len(depths) >= 2 else 0.0
        seg = base.road.segments[0]
        road = ir.RoadDescription(
            layout=base.road.layout,
            segments=(ir.RoadSegment(length=max(length, 1.0),
                                     lanes_forward=seg.lanes_forward,
                                     lanes_backward=seg.lanes_backward,
                                     speed_limit=seg.speed_limit),),
            junction_notes=base.road.junction_notes)
        return ir.ScenarioDescription(
            road=road, objects=base.objects, agents=base.agents,
            weather=base.weather, narrative=text, scene_type=base.scene_type)

    # -- network synthesis -----------------------------------------------------
    def _net_response(self, prompt: str, payload: str, seed: int) -> str:
        from . import netgen
        data = json.loads(payload)
        road = ir.RoadDescription(
            layout=data["layout"],
            segments=tuple(ir.RoadSegment(**s) for s in data["segments"]),
            junction_notes=data.get("junction_notes", ""))
        net = netgen.build_network_blueprint(road)
        xml_nodes, xml_edges = netgen.serialize_sumo_xml(net)

        # degradation modes triggered by ablated prompt components; judge the
        # base prompt only, not error feedback appended on retries
        base = prompt.split("### PREVIOUS ERROR")[0]
        fault = self.fault
        if fault is None and "spreadType" not in base:
            fault = "bad_spread"
        elif fault is None and "### REASONING" not in base:
            fault = "undeclared_attr"

        if fault == "bad_spread":
            xml_edges = xml_edges.replace('spreadType="right"',
                                          'spreadType="left"')
        elif fault == "hash_ids":
            first = net.edges[0].id
            xml_edges = xml_edges.replace(f'id="{first}"', f'id="#{first}"', 1)
        elif fault == "undeclared_attr":
            xml_edges = xml_edges.replace("<edge ",
                                          '<edge function="internal" ', 1)
        elif fault == "missing_shape":
            axis = netgen.edge_polyline(net, net.edges[0])
            shape = " ".join(f"{x},{y}" for x, y in axis)
            xml_edges = xml_edges.replace(
                "/>", f'>\n        <lane index="0"/>\n'
                      f'        <lane index="1" shape="{shape}"/>\n'
                      "    </edge>", 1)
        return xml_nodes + netgen.NET_RESPONSE_SEPARATOR + "\n" + xml_edges


def synthesize_description(text: str, seed: int = 0) -> ScenarioDescription:
    """Keyword-driven deterministic scenario description for mock providers."""
    low = text.lower()
    h = int.from_bytes(hashlib.sha256(f"{text}|{seed}".encode()).digest()[:8],
                       "big")

    if "construction" in low or "work zone" in low or "roadwork" in low:
        scene, layout = "ConstructionZone", "Straight"
    elif any(k in low for k in ("intersection", "junction", "crossing",
                                "crossroad")):
        scene, layout = "Intersection", "CrossIntersection"
    else:
        scene = "General"
        if "curve" in low or "bend" in low:
            layout = "Curve"
        elif "merge" in low:
            layout = "Merge"
        elif "roundabout" in low:
            layout = "Roundabout"
        else:
            layout = "Straight"

    speed_limit = 27.78 if ("highway" in low or "motorway" in low) else 13.89
    lanes_forward = 1 + (h >> 5) % 2
    if "highway" in low or "cut" in low or scene == "ConstructionZone":
        lanes_forward = max(lanes_forward, 2)
    seg_length = 80.0 + float((h >> 8) % 2000) / 10.0
    n_segments = 1 if layout in ("CrossIntersection", "Merge", "Roundabout") \
        else 1 + (h >> 3) % 2
    segments = tuple(
        ir.RoadSegment(length=round(seg_length * (1.0 + 0.2 * i), 1),
                       lanes_forward=lanes_forward,
                       lanes_backward=1 if layout != "Straight" or (h % 2) else 0,
                       speed_limit=speed_limit)
        for i in range(n_segments))
    road = ir.RoadDescription(layout=layout, segments=segments,
                              junction_notes="")

    n_cars = _count_before(low, r"vehicles?|cars?")
    if n_cars is None:
        n_cars = 2 + (h >> 13) % 3
    colors = ("red", "white", "black", "blue", "silver", "grey")
    agents = []
    for i in range(max(1, n_cars)):
        role = "AV" if i == 0 else "BV"
        if "cut" in low and i == 1:
            intent = "cut-in"
        elif "rear" in low and i == 1:
            intent = "rear-end"
        elif "left turn" in low and i == 1:
            intent = "left turn"
        elif "overtak" in low and i == 1:
            intent = "overtake"
        else:
            intent = "cruise" if role == "AV" else "follow"
        agents.append(ir.AgentDescription(
            kind="Car", role=role, intent=intent,
            approx_speed=round(speed_limit * (0.5 + 0.05 * ((h >> i) % 6)), 2),
            color=colors[(h >> (2 * i)) % len(colors)],
            relative_position="ahead" if i else "ego"))
    n_trucks = _count_before(low, r"trucks?") or (1 if "truck" in low else 0)
    for i in range(n_trucks):
        agents.append(ir.AgentDescription(
            kind="Truck", role="BV", intent="cruise",
            approx_speed=round(speed_limit * 0.6, 2)))
    if "pedestrian" in low or "walker" in low:
        n_ped = _count_before(low, r"pedestrians?") or 1
        for _ in range(n_ped):
            agents.append(ir.AgentDescription(
                kind="Pedestrian", role="VRU", intent="cross road",
                approx_speed=1.4))
    if "cyclist" in low or "bicycle" in low or "bike" in low:
        agents.append(ir.AgentDescription(
            kind="Cyclist", role="VRU", intent="ride along",
            approx_speed=4.0))

    objects = []
    n_cones = _count_before(low, r"cones?")
    if n_cones is None and scene == "ConstructionZone":
        n_cones = 3 + (h >> 17) % 4
    if n_cones:
        objects.append(ir.ObjectDescription(
            kind="Cone", count=n_cones, placement_hint="lane closure taper"))
    if scene == "ConstructionZone" or "sign" in low:
        objects.append(ir.ObjectDescription(
            kind="WarningSign", count=1, placement_hint="upstream of closure"))
    if "barrier" in low:
        objects.append(ir.ObjectDescription(kind="Barrier", count=2))

    precipitation = 0.6 if any(k in low for k in ("rain", "wet", "storm")) \
        else 0.0
    fog = 0.5 if "fog" in low else 0.0
    night = any(k in low for k in ("night", "dark", "midnight"))
    weather = ir.WeatherDescription(
        precipitation=precipitation, fog_density=fog,
        sun_altitude=-30.0 if night else 45.0,
        time_of_day=23.0 if night else 14.0)

    return ir.ScenarioDescription(road=road, objects=tuple(objects),
                                  agents=tuple(agents), weather=weather,
                                  narrative=text, scene_type=scene)


# ---------------------------------------------------------------------------
# interpretation operations

def integrate_forward_distance(depth_samples) -> float:
    """Forward distance traveled, from per-frame depths to a fixed landmark.

    Sum of positive depth decreases over consecutive frames; receding or
    constant depth contributes nothing.
    """
    samples = [float(d) for d in depth_samples]
    if len(samples) < 2:
        raise InsufficientFrames(f"need >= 2 depth samples, got {len(samples)}")
    if any(d <= 0 for d in samples):
        raise NonPositiveDepth("depth samples must be positive")
    return sum(max(0.0, samples[i] - samples[i + 1])
               for i in range(len(samples) - 1))


def _run_task(task: str, payload: str, kb: PromptKnowledgeBase, provider,
              seed: int = 0,
              max_retries: int = DEFAULT_MAX_RETRIES,
              postcheck=None) -> ProviderResponse:
    prompt = rendered = _render(kb, task, payload, seed)
    if not rendered:
        raise ValueError("rendered prompt must be non-empty")
    last_error: Exception = UnparseableAfterRetries("no attempts")
    raw = ""
    for attempt in range(1, max_retries + 2):
        raw = provider.complete(prompt)
        try:
            desc = parse_description(raw)
            if postcheck is not None:
                postcheck(desc)
            return ProviderResponse(raw_text=raw, parsed=desc,
                                    attempt_count=attempt)
        except (DescriptionError, ValueError) as exc:
            last_error = exc
            prompt = rendered + f"\n### PREVIOUS ERROR:\n{exc}\n"
    raise UnparseableAfterRetries(last_error)


def _require_agents(desc: ScenarioDescription):
    if not desc.agents:
        raise ir.MissingSection("agents")


def interpret_response(source: MultimodalInput, kb: PromptKnowledgeBase,
                       provider, seed: int = 0,
                       max_retries: int = DEFAULT_MAX_RETRIES
                       ) -> ProviderResponse:
    """Like interpret() but returns the full ProviderResponse.

    Text shorter than SHORT_REQUEST_THRESHOLD and GPS boxes are expanded into
    a full description, which must name agents; longer text is interpreted
    as is; crash reports are restructured into the four sections. An image
    needs a caption, and its description must hold one agent per detected
    road user. A video needs >= 2 depth samples, from which the road length
    is reconstructed (integrate_forward_distance).
    """
    postcheck = None
    if isinstance(source, TextRequest):
        payload = source.text
        if len(payload) < SHORT_REQUEST_THRESHOLD:
            task, postcheck = "expand_request", _require_agents
        else:
            task = "interpret_text"
    elif isinstance(source, GpsBoundingBox):
        task, postcheck = "expand_request", _require_agents
        payload = (f"real-world road scenario within GPS box "
                   f"({source.min_lat:.4f},{source.min_lon:.4f})-"
                   f"({source.max_lat:.4f},{source.max_lon:.4f})")
    elif isinstance(source, CrashReport):
        task, payload = "restructure_report", source.text
    elif isinstance(source, ImageDescriptor):
        if not source.captions:
            raise ValueError("image descriptor needs >= 1 caption")
        task = "interpret_image"
        payload = json.dumps({"captions": list(source.captions),
                              "elements": [list(e) for e in source.elements]},
                             sort_keys=True)
        expected_agents = sum(n for k, n in source.elements
                              if _singular(k) in
                              ("car", "truck", "bus", "motorcycle", "cyclist",
                               "pedestrian"))

        def postcheck(parsed: ScenarioDescription):
            if len(parsed.agents) != expected_agents:
                raise ir.RangeViolation("agents.count", len(parsed.agents))
    elif isinstance(source, VideoDescriptor):
        if len(source.depth_samples) < 2:
            raise InsufficientFrames(
                f"need >= 2 frames with depth, got {len(source.depth_samples)}")
        task = "interpret_video"
        payload = json.dumps({"captions": list(source.frame_captions),
                              "depths": list(source.depth_samples)},
                             sort_keys=True)
    else:
        raise TypeError(f"unsupported input: {type(source).__name__}")
    return _run_task(task, payload, kb, provider, seed, max_retries,
                     postcheck)


def interpret(source: MultimodalInput, kb: PromptKnowledgeBase, provider,
              seed: int = 0,
              max_retries: int = DEFAULT_MAX_RETRIES) -> ScenarioDescription:
    """Map any multimodal input to a valid ScenarioDescription."""
    return interpret_response(source, kb, provider, seed, max_retries).parsed
