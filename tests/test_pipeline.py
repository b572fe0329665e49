import dataclasses
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from scenarioforge import (compgen, evalkit, interpreter, ir, netgen,
                           pipeline, simcore)

from oracles import run_comparison_reference
from test_netgen import OSM_FIXTURE


def make_cfg(tmp_path, **kw):
    base = dict(output_dir=str(tmp_path / "out"), duration=5.0, dt=0.1,
                variations=1, global_seed=0)
    base.update(kw)
    return pipeline.PipelineConfig(**base)


def count_calls(monkeypatch, owner, name) -> list:
    """Patch owner.name to record each call; the list grows per call."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def read_prompt_log(manifest) -> list:
    with open(manifest.artifacts["prompts"], encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_run_pipeline_happy_path(tmp_path, monkeypatch):
    serialized = count_calls(monkeypatch, netgen, "serialize_sumo_xml")
    cfg = make_cfg(tmp_path)
    m = pipeline.run_pipeline(
        ir.TextRequest("a car cuts in front of the ego vehicle"), cfg,
        run_id="t0")
    assert m.ok
    # once for the mock provider's response, once for the written network
    assert len(serialized) == 2
    assert all(m.stages[s] == "ok" for s in pipeline.STAGES)
    assert set(m.artifacts) == {"description", "network_nodes",
                                "network_edges", "bundle", "trace", "report",
                                "prompts"}
    for path in m.artifacts.values():
        assert os.path.exists(path)
    run_dir = tmp_path / "out" / "runs" / "t0-0"
    assert (run_dir / "manifest.json").exists()
    exchanges = read_prompt_log(m)
    assert exchanges
    assert all(set(x) == {"prompt", "response"} for x in exchanges)
    report = json.loads((run_dir / "report.json").read_text())
    assert report["performance"]["route_completion"] >= 0.0
    assert report["behavior_model"]
    assert 0.0 <= report["objective_distance"] <= 2.0


def load_bundle(manifest):
    """The bundle as read back from the run directory: the description from
    description.json, the network from the SUMO files, the placement from
    bundle.json."""
    def read(name):
        with open(manifest.artifacts[name], encoding="utf-8") as fh:
            return fh.read()
    desc = ir.parse_description(read("description"))
    net = netgen.parse_sumo_xml(read("network_nodes"), read("network_edges"))
    data = json.loads(read("bundle"))
    agents = tuple(compgen.AgentState(**a) for a in data["agents"])
    objects = tuple(compgen.PlacedObject(
        kind=o["kind"], x=o["x"], y=o["y"], yaw=o["yaw"],
        footprint=tuple(o["footprint"])) for o in data["objects"])
    return ir.ScenarioBundle(description=desc, network=net, agents=agents,
                             objects=objects, seed=data["seed"])


@pytest.mark.parametrize("source", [
    *(pytest.param(ir.TextRequest(text), id=text) for text in (
        "a car cuts in front of the ego vehicle",
        "construction zone lane closure with cones and two cars",
        "busy intersection left turn conflict with three vehicles")),
    pytest.param(ir.GpsBoundingBox(-0.001, -0.001, 0.003, 0.002),
                 id="osm fixture"),
])
def test_bundle_artifacts_round_trip_to_manifest_bundle(tmp_path, source):
    fixture = tmp_path / "extract.osm"
    fixture.write_text(OSM_FIXTURE, encoding="utf-8")
    m = pipeline.run_pipeline(source, make_cfg(tmp_path,
                                               osm_fixture=str(fixture)),
                              seed=3, run_id="rt")
    assert m.ok
    assert m.bundle is not None
    assert "bundle" not in m.to_dict()
    assert load_bundle(m) == m.bundle
    with open(m.artifacts["bundle"], encoding="utf-8") as fh:
        assert set(json.load(fh)) == {"seed", "agents", "objects"}


def test_default_run_ids_do_not_collide(tmp_path):
    cfg = make_cfg(tmp_path)
    source = ir.TextRequest("a car cuts in front of the ego vehicle")
    manifests = [pipeline.run_pipeline(source, cfg) for _ in range(2)]
    runs_dir = tmp_path / "out" / "runs"
    assert len(list(runs_dir.iterdir())) == 2
    assert manifests[0].run_id != manifests[1].run_id
    for m in manifests:
        run_dir = runs_dir / f"{m.run_id}-{m.seed}"
        on_disk = json.loads((run_dir / "manifest.json").read_text())
        assert on_disk == m.to_dict()
        files = {p.name for p in run_dir.iterdir() if p.is_file()}
        assert files == {"manifest.json"} | {
            os.path.basename(path) for path in m.artifacts.values()}
        for path in m.artifacts.values():
            assert os.path.dirname(path) == str(run_dir)


def test_reused_run_id_replaces_the_earlier_run(tmp_path):
    source = ir.TextRequest("a car cuts in front of the ego vehicle")
    first = pipeline.run_pipeline(source, make_cfg(tmp_path), run_id="again")
    assert first.ok
    cfg = make_cfg(tmp_path, provider_fault="hash_ids")
    second = pipeline.run_pipeline(source, cfg, run_id="again")
    assert second.stages["netgen"] == "error:MalformedKeyword"
    run_dir = tmp_path / "out" / "runs" / "again-0"
    assert json.loads((run_dir / "manifest.json").read_text()) == \
        second.to_dict()
    files = {str(p) for p in run_dir.iterdir() if p.is_file()}
    assert files == {str(run_dir / "manifest.json"),
                     *second.artifacts.values()}
    # the prompt log holds the failed run's exchanges only: one for
    # interpret, then the first attempt and 3 retries of netgen
    exchanges = read_prompt_log(second)
    assert len(exchanges) == 5
    assert all(set(x) == {"prompt", "response"} for x in exchanges)


def _unavailable(provider, prompt):
    raise interpreter.ProviderUnavailable("no route to the provider")


@pytest.mark.parametrize("fault, kw, failed, artifacts", [
    (None, {}, None, {"description", "network_nodes", "network_edges",
                      "bundle", "trace", "report"}),
    ("prose", {}, "interpret", set()),
    ("unavailable", {}, "interpret", set()),
    ("hash_ids", {}, "netgen", {"description"}),
    (None, {"max_agents": 1}, "compgen",
     {"description", "network_nodes", "network_edges"}),
], ids=["ok", "prose", "unavailable", "hash_ids", "max_agents"])
def test_run_directory_holds_exactly_its_manifest(tmp_path, monkeypatch,
                                                  fault, kw, failed,
                                                  artifacts):
    raises = fault == "unavailable"
    if raises:
        monkeypatch.setattr(interpreter.MockProvider, "complete",
                            _unavailable)
        fault = None
    calls = count_calls(monkeypatch, interpreter.MockProvider, "complete")
    cfg = make_cfg(tmp_path, provider_fault=fault, **kw)
    m = pipeline.run_pipeline(
        ir.TextRequest("a car cuts in front of the ego vehicle"), cfg,
        run_id="disk")
    assert m.ok is (failed is None)
    if failed:
        assert m.stages[failed].startswith("error:")
    assert set(m.artifacts) == artifacts | {"prompts"}
    run_dir = tmp_path / "out" / "runs" / "disk-0"
    assert json.loads((run_dir / "manifest.json").read_text()) == \
        m.to_dict()
    # no subdirectory and no unlisted file
    assert all(p.is_file() for p in run_dir.iterdir())
    assert sorted(run_dir.iterdir()) == sorted(
        [run_dir / "manifest.json", *map(Path, m.artifacts.values())])
    # one line per provider call, in call order; a call that raised has no
    # response
    exchanges = read_prompt_log(m)
    assert [x["prompt"] for x in exchanges] == [c[1] for c in calls]
    want = {"prompt"} if raises else {"prompt", "response"}
    assert all(set(x) == want for x in exchanges)


def test_run_id_with_a_path_is_rejected(tmp_path):
    with pytest.raises(pipeline.ConfigError):
        pipeline.run_pipeline(ir.TextRequest("a car on a road"),
                              make_cfg(tmp_path), run_id="../escape")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fault, stage, failure, calls", [
    (None, None, None, 2),
    ("prose_once", None, None, 3),
    ("prose", "interpret", "RuntimeError", 4),
    ("blueprint_reuse", "interpret", "BlueprintReuse", 4),
    ("hash_ids", "netgen", "MalformedKeyword", 5),
    ("bad_spread", "netgen", "ValidationError", 5),
    ("missing_shape", "netgen", "ValidationError", 5),
    ("undeclared_attr", "netgen", "ValidationError", 5),
], ids=["none", "prose_once", "prose", "blueprint_reuse", "hash_ids",
        "bad_spread", "missing_shape", "undeclared_attr"])
def test_every_provider_fault_through_the_pipeline(tmp_path, fault, stage,
                                                   failure, calls):
    m = pipeline.run_pipeline(ir.TextRequest("a car on a road"),
                              make_cfg(tmp_path, provider_fault=fault),
                              run_id="fault")
    # the stages before the failed one ran, the ones after it did not
    failed_at = pipeline.STAGES.index(stage) if stage else len(pipeline.STAGES)
    assert m.to_dict()["stages"] == {
        s: "ok" if i < failed_at else
        f"error:{failure}" if i == failed_at else "skipped"
        for i, s in enumerate(pipeline.STAGES)}
    assert m.failure == failure
    assert (m.bundle is None) is (stage is not None)
    # one prompt log line per provider call: a failed stage makes the
    # first call and every retry
    assert len(read_prompt_log(m)) == calls
    # the manifest still lands on disk for failed runs
    assert json.loads((tmp_path / "out" / "runs" / "fault-0" /
                       "manifest.json").read_text()) == m.to_dict()


def test_nan_speed_is_prompted_again(tmp_path, monkeypatch):
    """A BV's "nan" speed is a rejected answer: the description is asked for
    again, and the run ends ok on the second answer."""
    complete, answers = interpreter.MockProvider.complete, []

    def nan_first(provider, prompt):
        answer = complete(provider, prompt)
        if not answers:
            doc = json.loads(answer)
            doc["agents"][1]["approx_speed"] = "nan"
            answer = json.dumps(doc)
        answers.append(answer)
        return answer
    monkeypatch.setattr(interpreter.MockProvider, "complete", nan_first)
    m = pipeline.run_pipeline(
        ir.TextRequest("a car cuts in front of the ego vehicle"),
        make_cfg(tmp_path), run_id="nan")
    assert m.ok
    # two description exchanges, the second naming the rejected field,
    # then the network's
    first, retry, _ = (x["prompt"] for x in read_prompt_log(m))
    assert retry.startswith(first + "\n### PREVIOUS ERROR:")
    assert "agent.approx_speed" in retry
    assert all(math.isfinite(a.approx_speed)
               for a in m.bundle.description.agents)


def _rejection(parse, answer: str) -> str:
    with pytest.raises(ValueError) as exc:
        parse(answer)
    return str(exc.value)


def _parse_net_answer(answer: str):
    xml_nodes, xml_edges = answer.split(netgen.NET_RESPONSE_SEPARATOR)
    return netgen.parse_sumo_xml(xml_nodes.strip(), xml_edges.strip())


@pytest.mark.parametrize("fault, first, parse", [
    ("prose", 0, ir.parse_description),
    ("bad_spread", 1, _parse_net_answer),
], ids=["interpret", "netgen"])
def test_retry_prompt_carries_only_the_last_rejection(tmp_path, fault, first,
                                                      parse):
    m = pipeline.run_pipeline(ir.TextRequest("a car on a road"),
                              make_cfg(tmp_path, provider_fault=fault),
                              run_id="retry")
    stage = read_prompt_log(m)[first:]
    assert len(stage) == interpreter.MAX_RETRIES + 1
    for previous, retry in zip(stage, stage[1:]):
        assert retry["prompt"] == (
            stage[0]["prompt"] + "\n### PREVIOUS ERROR:\n"
            + _rejection(parse, previous["response"]) + "\n")


def test_run_pipeline_gps_with_fixture(tmp_path, monkeypatch):
    fixture = tmp_path / "extract.osm"
    fixture.write_text(OSM_FIXTURE, encoding="utf-8")
    cfg = make_cfg(tmp_path, osm_fixture=str(fixture))
    bbox = ir.GpsBoundingBox(-0.001, -0.001, 0.003, 0.002)
    serialized = count_calls(monkeypatch, netgen, "serialize_sumo_xml")
    validated = count_calls(monkeypatch, netgen, "validate_network")
    m = pipeline.run_pipeline(bbox, cfg, run_id="gps")
    assert m.ok, m.stages
    # ingest_osm checks the typed network; only the write serializes it
    assert len(serialized) == 1
    assert validated == []
    xml = (tmp_path / "out" / "runs" / "gps-0" / "network.edg.xml").read_text()
    assert "osm" in xml  # the network came from the extract, not a blueprint


@pytest.mark.parametrize("maxspeed", ["nan", "inf"])
def test_run_pipeline_non_finite_maxspeed_fails_validation(tmp_path,
                                                           maxspeed):
    fixture = tmp_path / "extract.osm"
    fixture.write_text(OSM_FIXTURE.replace(
        '<tag k="maxspeed" v="50"/>', f'<tag k="maxspeed" v="{maxspeed}"/>'),
        encoding="utf-8")
    m = pipeline.run_pipeline(ir.GpsBoundingBox(-0.001, -0.001, 0.003, 0.002),
                              make_cfg(tmp_path, osm_fixture=str(fixture)),
                              run_id="speed")
    assert m.stages["netgen"] == "error:ValidationError"
    assert m.failure == "ValidationError"
    assert "report" not in m.artifacts


def test_run_pipeline_nan_latitude_fails_at_netgen(tmp_path):
    fixture = tmp_path / "extract.osm"
    fixture.write_text(OSM_FIXTURE.replace('<node id="4" lat="0.001"',
                                           '<node id="4" lat="nan"'),
                       encoding="utf-8")
    assert fixture.read_text() != OSM_FIXTURE
    m = pipeline.run_pipeline(ir.GpsBoundingBox(-0.001, -0.001, 0.003, 0.002),
                              make_cfg(tmp_path, osm_fixture=str(fixture)),
                              run_id="nan")
    assert m.stages["netgen"] == "error:ValidationError"
    assert m.failure == "ValidationError"
    assert not {"network_nodes", "network_edges"} & set(m.artifacts)
    run_dir = tmp_path / "out" / "runs" / "nan-0"
    assert not list(run_dir.glob("network.*"))


@pytest.mark.parametrize("depths", [(math.nan, 10.0, 5.0),
                                    (10.0, math.nan, 5.0),
                                    (math.inf, 10.0, 5.0)])
def test_non_finite_depth_fails_at_interpret(tmp_path, depths):
    """A NaN or infinite depth sample stops the run where a zero one does,
    before any later stage."""
    video = ir.VideoDescriptor(
        frame_captions=("a car ahead", "closing in", "stopped"),
        depth_samples=depths)
    m = pipeline.run_pipeline(video, make_cfg(tmp_path), run_id="depth")
    assert m.stages == {"interpret": "error:RuntimeError"}
    assert m.failure == "RuntimeError"
    assert m.error == "depth samples must be positive and finite"


@pytest.mark.parametrize("source, prompts_sha, description_sha", [
    pytest.param(
        ir.ImageDescriptor(
            captions=("a pedestrian and a cyclist cross in front of queued "
                      "cars at a roadwork taper",),
            elements=(("cars", 3), ("pedestrian", 1), ("cyclist", 1),
                      ("cones", 4), ("warning sign", 1))),
        "f4042d172b53d5522caec0f7dfc2c05f9d67e5b13fbfcbf4bb34509d362284b4",
        "35e4aed9fcf1cca62c60876a236f4cccd1da1bee03b4a0edc692b21ecfd39ec2",
        id="image"),
    pytest.param(
        ir.VideoDescriptor(
            frame_captions=("a truck ahead on the highway", "closing in",
                            "overtaking"),
            depth_samples=(60.0, 52.5, 41.0)),
        "0a199d6b99b5dbca3e415b2b0765b48467d9c72564d0bdcb23540f017bc1da4f",
        "2ba042440e97bca5c9b02e67cbc5ca302788856b03d891abde03f51416cbb3d5",
        id="video"),
])
def test_mock_image_and_video_answers_keep_their_bytes(
        tmp_path, source, prompts_sha, description_sha):
    """The mock's image answer (one agent per detected road user, one object
    per detected object kind) and its video answer (the road length from the
    depths), pinned by the sha256 of the prompt log and description.json;
    no CLI command sends an image or a video."""
    m = pipeline.run_pipeline(source, make_cfg(tmp_path), seed=2,
                              run_id="mock")
    assert m.ok
    for name, want in (("prompts", prompts_sha),
                       ("description", description_sha)):
        with open(m.artifacts[name], "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want, name


def test_classify_failure():
    from scenarioforge.interpreter import UnparseableAfterRetries
    err = netgen.NetworkValidationError([netgen.ValidationError(
        "MalformedKeyword", "edge", "e#0")])
    assert pipeline.classify_failure(UnparseableAfterRetries(err)) == \
        "MalformedKeyword"
    err = netgen.NetworkValidationError([netgen.ValidationError(
        "InvalidEnum", "edge", "spreadType=left")])
    assert pipeline.classify_failure(UnparseableAfterRetries(err)) == \
        "ValidationError"
    assert pipeline.classify_failure(
        UnparseableAfterRetries(ir.BlueprintReuse("kind", "Car.Car"))) == \
        "BlueprintReuse"
    assert pipeline.classify_failure(
        UnparseableAfterRetries(ValueError("x"))) == "RuntimeError"
    assert pipeline.classify_failure(ir.MissingSection("weather")) == \
        "ValidationError"
    assert pipeline.classify_failure(RuntimeError("boom")) == "RuntimeError"


def test_load_config_json_and_validation(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"duration": 12.0, "min_gap": 3.0}))
    cfg = pipeline.load_config(str(path), global_seed=9)
    assert cfg.duration == 12.0
    assert cfg.min_gap == 3.0
    assert cfg.global_seed == 9

    with pytest.raises(pipeline.ConfigError):
        pipeline.PipelineConfig(dt=0.0)
    with pytest.raises(pipeline.ConfigError):
        pipeline.PipelineConfig(dt=0.6)
    with pytest.raises(pipeline.ConfigError):
        pipeline.PipelineConfig(variations=0)
    for bad_field in ({"min_gap": 0.0}, {"min_gap": -1.0},
                      {"min_gap": math.nan}, {"max_agents": 0},
                      {"duration": 0.0}, {"duration": -5.0}):
        with pytest.raises(pipeline.ConfigError):
            pipeline.PipelineConfig(**bad_field)
    bad = tmp_path / "bad.json"
    # the scoring constants are not options
    for unknown in ({"not_a_field": 1}, {"score_weights": [1.0]},
                    {"ttc_ref": 4.0}, {"jerk_ref": 2.0}):
        bad.write_text(json.dumps(unknown))
        with pytest.raises(pipeline.ConfigError):
            pipeline.load_config(str(bad))


@pytest.mark.parametrize("bad_field", [
    {"variations": 1.5}, {"variations": True}, {"workers": 2.5},
    {"workers": True}, {"max_agents": 8.0}, {"max_agents": True},
    {"global_seed": 1.5}, {"global_seed": False}, {"min_gap": math.inf},
    {"min_gap": True}, {"min_gap": "4"}, {"duration": math.inf},
    {"duration": True}, {"duration": 10**400}, {"dt": "0.1"}])
def test_config_value_of_wrong_type_or_not_finite(bad_field):
    """Counts and the seed are ints, not bools; min_gap, duration and dt are
    finite ints or floats."""
    with pytest.raises(pipeline.ConfigError):
        pipeline.PipelineConfig(**bad_field)


@pytest.mark.parametrize("duration, dt", [(1e308, 0.1), (30.0, 1e-300)],
                         ids=["duration_1e308", "dt_1e-300"])
def test_config_step_count_is_bounded(duration, dt):
    """A duration and dt whose step count is infinite or above
    simcore.MAX_STEPS end at the config, before any stage runs, and
    simcore.run refuses them too."""
    with pytest.raises(pipeline.ConfigError, match="steps"):
        pipeline.PipelineConfig(duration=duration, dt=dt)
    with pytest.raises(ValueError, match="steps"):
        simcore.run(None, duration, dt)


def test_config_step_bound_is_inclusive():
    most = simcore.MAX_STEPS * 0.5
    assert pipeline.PipelineConfig(duration=most, dt=0.5).duration == most
    with pytest.raises(pipeline.ConfigError, match="steps"):
        pipeline.PipelineConfig(duration=most + 0.25, dt=0.5)


def test_make_provider_kinds(tmp_path):
    assert isinstance(pipeline.make_provider(make_cfg(tmp_path)),
                      interpreter.MockProvider)
    assert isinstance(pipeline.make_provider(make_cfg(
        tmp_path, provider_kind="http", provider_endpoint="http://localhost")),
        interpreter.HttpProvider)
    # the config rejects any other kind, so make_provider never sees one
    with pytest.raises(pipeline.ConfigError, match="provider kind"):
        make_cfg(tmp_path, provider_kind="carrier-pigeon")


def test_unavailable_provider_leaves_the_disk_alone(tmp_path, monkeypatch):
    """A provider that cannot start ends the run before it removes an
    earlier run with the same id and seed or makes a directory."""
    monkeypatch.delenv("SCENARIOFORGE_ENDPOINT", raising=False)
    source = ir.TextRequest("a car on a road")
    pipeline.run_pipeline(source, make_cfg(tmp_path), run_id="same")
    runs = tmp_path / "out" / "runs"
    before = {p.name: p.read_bytes() for p in (runs / "same-0").iterdir()}
    http = make_cfg(tmp_path, provider_kind="http")
    for run_id in ("same", "new"):
        with pytest.raises(interpreter.ProviderUnavailable):
            pipeline.run_pipeline(source, http, run_id=run_id)
    assert os.listdir(runs) == ["same-0"]
    assert {p.name: p.read_bytes() for p in (runs / "same-0").iterdir()} \
        == before


def test_run_batch_aggregates(tmp_path, monkeypatch):
    stats_calls = []
    network_stats = netgen.network_stats
    monkeypatch.setattr(netgen, "network_stats",
                        lambda net: stats_calls.append(net) or
                        network_stats(net))
    cfg = make_cfg(tmp_path, variations=2)
    inputs = [ir.TextRequest("a car cuts in on the highway"),
              ir.TextRequest("construction zone with cones")]
    agg = pipeline.run_batch(inputs, cfg)
    assert agg["runs"] == 4
    # evaluate and the aggregate share one computation per network
    assert len(stats_calls) == 4
    assert agg["ok"] == 4
    assert agg["conformity"]["success_rate"] == pytest.approx(1.0)
    assert agg["conformity"]["scene_type_acc"] == pytest.approx(1.0)
    assert set(agg["diversity"]) == set(
        ("#Lanes", "#Edges", "Route Length", "#Agents", "#Objects",
         "Shortest", "Vehicle yaw"))
    assert os.path.exists(tmp_path / "out" / "aggregate.json")


def test_run_batch_is_deterministic(tmp_path):
    inputs = [ir.TextRequest("two cars near a junction")]
    agg_a = pipeline.run_batch(inputs, make_cfg(tmp_path / "a", variations=2))
    agg_b = pipeline.run_batch(inputs, make_cfg(tmp_path / "b", variations=2))
    bytes_a = (tmp_path / "a" / "out" / "aggregate.json").read_bytes()
    bytes_b = (tmp_path / "b" / "out" / "aggregate.json").read_bytes()
    assert bytes_a == bytes_b
    assert agg_a == agg_b


def test_batch_rerun_replaces_the_earlier_batch(tmp_path):
    inputs = [ir.TextRequest("a car cuts in on the highway"),
              ir.TextRequest("construction zone with cones")]
    pipeline.run_batch(inputs, make_cfg(tmp_path, variations=2))
    pipeline.run_pipeline(inputs[0], make_cfg(tmp_path), run_id="other")
    agg = pipeline.run_batch(inputs[:1], make_cfg(tmp_path))
    assert agg["runs"] == 1
    # the 2x2 batch's runs are gone; a run with another id stays
    runs = tmp_path / "out" / "runs"
    assert sorted(p.name for p in runs.iterdir()) == \
        ["batch-i000-v00-0", "other-0"]


def test_batch_whose_provider_cannot_start_keeps_the_earlier_batch(
        tmp_path, monkeypatch):
    monkeypatch.delenv("SCENARIOFORGE_ENDPOINT", raising=False)
    inputs = [ir.TextRequest("a car on a road")]
    pipeline.run_batch(inputs, make_cfg(tmp_path, variations=2))
    out = tmp_path / "out"
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert out / "aggregate.json" in before
    assert sorted(p.name for p in (out / "runs").iterdir()) == \
        ["batch-i000-v00-0", "batch-i000-v01-1"]
    with pytest.raises(interpreter.ProviderUnavailable):
        pipeline.run_batch(inputs, make_cfg(tmp_path, provider_kind="http"))
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == \
        before


def test_run_batch_records_partial_failures(tmp_path):
    cfg = make_cfg(tmp_path, provider_fault="hash_ids")
    agg = pipeline.run_batch([ir.TextRequest("a car on a road")], cfg)
    assert agg["ok"] == 0
    assert agg["conformity"]["success_rate"] == 0.0
    assert agg["conformity"]["failure_taxonomy_counts"][
        "MalformedKeyword"] == 1


def test_run_batch_keeps_no_bundle_of_an_earlier_run(tmp_path, monkeypatch):
    """The batch folds one row per run, so when it scores the batch at most
    the last run's bundle is still alive."""
    bundles, alive = [], []
    run_pipeline, conformity = pipeline.run_pipeline, evalkit.conformity

    def tracked_run(*args, **kwargs):
        manifest = run_pipeline(*args, **kwargs)
        bundles.append(weakref.ref(manifest.bundle))
        return manifest

    def counted_conformity(*args, **kwargs):
        gc.collect()
        alive.append(sum(1 for ref in bundles if ref() is not None))
        return conformity(*args, **kwargs)
    monkeypatch.setattr(pipeline, "run_pipeline", tracked_run)
    monkeypatch.setattr(evalkit, "conformity", counted_conformity)
    inputs = [ir.TextRequest("a car cuts in on the highway"),
              ir.TextRequest("construction zone with cones")]
    agg = pipeline.run_batch(inputs, make_cfg(tmp_path, variations=2))
    assert agg["ok"] == len(bundles) == 4
    assert len(alive) == 1 and alive[0] <= 1


def test_run_batch_needs_inputs(tmp_path):
    with pytest.raises(pipeline.ConfigError):
        pipeline.run_batch([], make_cfg(tmp_path))


def test_ablate_table(tmp_path):
    cfg = make_cfg(tmp_path)
    result = pipeline.ablate(cfg)
    assert result["rows"] == list(pipeline.ABLATION_ROWS)
    rates = result["success_rate"]
    assert rates["Ours"] == pytest.approx(1.0)
    assert rates["without interpreter"] == 0.0
    # removing prompt scaffolding can only hurt
    for row in pipeline.ABLATION_ROWS[1:]:
        assert rates[row] <= rates["Ours"]
    text = pipeline.format_ablation(result)
    for row in pipeline.ABLATION_ROWS:
        assert row in text
    assert os.path.exists(tmp_path / "out" / "ablation.json")


def test_run_comparison_small(tmp_path):
    cfg = make_cfg(tmp_path, duration=5.0)
    report = pipeline.run_comparison(cfg, n_networks=2, n_inits=2)
    assert report["rows"] == list(
        ("Route completion", "Driving score", "Total score", "Use Time",
         "Success rate", "Collision rate"))
    for arm in ("ours", "baseline"):
        assert set(report[arm]) == set(report["rows"])
    assert os.path.exists(tmp_path / "out" / "comparison.json")


@pytest.mark.parametrize("global_seed", [0, 3])
def test_run_comparison_matches_direct_calls(tmp_path, global_seed):
    cfg = make_cfg(tmp_path, global_seed=global_seed)
    assert pipeline.run_comparison(cfg, n_networks=2, n_inits=2) == \
        run_comparison_reference(cfg, n_networks=2, n_inits=2)


NO_FAILURES = dict.fromkeys(evalkit.FAILURE_KINDS, 0)


@pytest.mark.parametrize("kw, ours, baseline, calls", [
    # interpret fails for both networks, after 1 + 3 calls each
    ({"provider_fault": "prose"}, {"RuntimeError": 4}, {"RuntimeError": 4},
     8),
    # the one provider fails once in all, and every run completes
    ({"provider_fault": "prose_once"}, {}, {}, 5),
    # netgen fails for both networks, after 1 + 3 calls each
    ({"provider_fault": "hash_ids"}, {"MalformedKeyword": 4},
     {"MalformedKeyword": 4}, 10),
    # guided placement refuses every fixture; the baseline places them all
    ({"max_agents": 1}, {"RuntimeError": 4}, {}, 4),
], ids=["prose", "prose_once", "hash_ids", "max_agents"])
def test_run_comparison_counts_failed_runs_per_arm(tmp_path, monkeypatch, kw,
                                                   ours, baseline, calls):
    made = count_calls(monkeypatch, interpreter.MockProvider, "complete")
    cfg = make_cfg(tmp_path, **kw)
    report = pipeline.run_comparison(cfg, n_networks=2, n_inits=2)
    failures = {"ours": {**NO_FAILURES, **ours},
                "baseline": {**NO_FAILURES, **baseline}}
    assert report["failures"] == failures
    assert len(made) == calls
    data = json.loads((tmp_path / "out" / "comparison.json").read_text())
    assert data["failures"] == failures
    assert data["table"] == evalkit.format_comparison(report)
    if not baseline:
        # the completed arm scores as it does when no run fails
        clean = dataclasses.replace(cfg, provider_fault=None,
                                    max_agents=32)
        assert report["baseline"] == \
            run_comparison_reference(clean, 2, 2)["baseline"]


RUNTIME_IMPORTS_SCRIPT = """
import sys
at_startup = set(sys.modules)   # whatever site and .pth files load
from scenarioforge import ir, pipeline
out, fixture = sys.argv[1:]
cfg = pipeline.PipelineConfig(output_dir=out, duration=5.0)
m = pipeline.run_pipeline(ir.TextRequest("two cars near a junction"), cfg)
assert m.failure is None, m.failure
cfg = pipeline.PipelineConfig(output_dir=out, duration=5.0,
                              osm_fixture=fixture)
bbox = ir.GpsBoundingBox(-0.001, -0.001, 0.003, 0.002)
m = pipeline.run_pipeline(bbox, cfg, run_id="osm")
assert m.failure is None, m.failure
loaded = {name.split(".")[0] for name in set(sys.modules) - at_startup}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names)
                      - {"scenarioforge"})))
"""


def test_mock_run_imports_no_test_only_dependency(tmp_path):
    # the runtime is the standard library alone: a mock run and an OSM
    # fixture run load no other top-level module
    fixture = tmp_path / "extract.osm"
    fixture.write_text(OSM_FIXTURE, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run(
        [sys.executable, "-c", RUNTIME_IMPORTS_SCRIPT, str(tmp_path / "out"),
         str(fixture)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
