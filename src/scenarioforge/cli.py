"""forge: command-line front end for the scenario-generation pipeline.

Exit codes: 0 ok, 1 stage failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import evalkit, ir, netgen, pipeline
from .interpreter import default_knowledge_base


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _bbox(text: str) -> ir.GpsBoundingBox:
    """--bbox min_lat,min_lon,max_lat,max_lon; a malformed box is a usage
    error."""
    try:
        lat0, lon0, lat1, lon1 = (float(v) for v in text.split(","))
        return ir.GpsBoundingBox(lat0, lon0, lat1, lon1)
    except ValueError as exc:
        raise pipeline.ConfigError(f"bad --bbox {text!r}: {exc}")


def _load_input(args) -> ir.MultimodalInput:
    if getattr(args, "bbox", None):
        return _bbox(args.bbox)
    if getattr(args, "crash_report", None):
        return ir.CrashReport(_read(args.crash_report))
    if getattr(args, "text", None):
        return ir.TextRequest(args.text)
    if getattr(args, "text_file", None):
        return ir.TextRequest(_read(args.text_file).strip())
    raise pipeline.ConfigError("no input given (--text/--text-file/"
                               "--crash-report/--bbox)")


def _config(args) -> pipeline.PipelineConfig:
    overrides = {}
    for key in ("output_dir", "global_seed", "duration", "dt", "variations",
                "min_gap", "osm_fixture", "provider_fault"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    return pipeline.load_config(getattr(args, "config", None), **overrides)


def _add_common(p):
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--seed", dest="global_seed", type=int)
    p.add_argument("--duration", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--min-gap", dest="min_gap", type=float)
    p.add_argument("--provider-fault", dest="provider_fault")


def _add_input(p):
    p.add_argument("--text")
    p.add_argument("--text-file", dest="text_file")
    p.add_argument("--crash-report", dest="crash_report")
    p.add_argument("--bbox", help="min_lat,min_lon,max_lat,max_lon")
    p.add_argument("--osm-fixture", dest="osm_fixture",
                   help="cached OSM extract for --bbox runs")


def _run_stages(source, cfg: pipeline.PipelineConfig, stages):
    """Run the first stages of the chain; a failed stage raises its error."""
    rec = pipeline.run_stages(
        pipeline.RunManifest(run_id="cli", seed=cfg.global_seed), source, cfg,
        default_knowledge_base(), pipeline.make_provider(cfg), stages)
    if rec.error is not None:
        raise RuntimeError(rec.error)
    return rec


def cmd_run(args) -> int:
    cfg = _config(args)
    manifest = pipeline.run_pipeline(_load_input(args), cfg)
    print(ir.canonical_json(manifest.to_dict()), end="")
    return 0 if manifest.ok else 1


def cmd_batch(args) -> int:
    cfg = _config(args)
    inputs = []
    if args.fixtures:
        with open(args.fixtures, encoding="utf-8") as fh:
            inputs = [ir.TextRequest(line.strip()) for line in fh
                      if line.strip()]
    elif args.text:
        inputs = [ir.TextRequest(args.text)]
    if not inputs:
        raise pipeline.ConfigError("batch needs --fixtures or --text")
    aggregate = pipeline.run_batch(inputs, cfg)
    print(aggregate.get("diversity_table", ""))
    print(ir.canonical_json(aggregate["conformity"]), end="")
    return 0 if aggregate["ok"] == aggregate["runs"] else 1


def cmd_ablate(args) -> int:
    cfg = _config(args)
    result = pipeline.ablate(cfg)
    print(pipeline.format_ablation(result))
    return 0


def cmd_compare(args) -> int:
    cfg = _config(args)
    report = pipeline.run_comparison(cfg, n_networks=args.networks,
                                     n_inits=args.inits)
    print(evalkit.format_comparison(report))
    failures = report["failures"].values()
    return 1 if any(any(arm.values()) for arm in failures) else 0


def cmd_eval(args) -> int:
    aggregate = json.loads(_read(args.aggregate))
    print(aggregate.get("diversity_table", ""))
    print(ir.canonical_json(aggregate.get("conformity", {})), end="")
    return 0


def cmd_netgen(args) -> int:
    if args.net_cmd == "compile":
        net = _run_stages(ir.TextRequest(args.text), pipeline.PipelineConfig(),
                          pipeline.STAGES[:2]).network
        nod_path, edg_path = netgen.write_sumo_xml(net, args.out_prefix)
        print(f"wrote {nod_path} / {edg_path}")
        return 0
    if args.net_cmd == "validate":
        errors = netgen.validate_network(_read(args.nodes),
                                          _read(args.edges))
        for err in errors:
            print(err)
        print(f"{len(errors)} error(s)")
        return 0 if not errors else 1
    if args.net_cmd == "stats":
        net = netgen.parse_sumo_xml(_read(args.nodes), _read(args.edges))
        print(ir.canonical_json(
            {**dataclasses.asdict(netgen.network_stats(net)),
             "pairwise_junction_distance": netgen.junction_distance(net)}),
            end="")
        return 0
    if args.net_cmd == "osm":
        cfg = pipeline.PipelineConfig(osm_fixture=args.extract,
                                      osm_cache_dir=args.cache_dir)
        net = _run_stages(_bbox(args.bbox), cfg, ("netgen",)).network
        nod_path, edg_path = netgen.write_sumo_xml(net, args.out_prefix)
        print(f"{len(net.edges)} edges -> {nod_path} / {edg_path}")
        return 0
    raise pipeline.ConfigError(f"unknown netgen command {args.net_cmd}")


def cmd_place(args) -> int:
    cfg = pipeline.PipelineConfig(min_gap=args.min_gap, global_seed=args.seed)
    rec = _run_stages(ir.TextRequest(args.text), cfg, pipeline.STAGES[:3])
    for a in rec.bundle.agents:
        print(f"{a.id} {a.kind} {a.role} {a.edge_id}:{a.lane_index} "
              f"s={a.s:.1f} v={a.speed:.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="forge")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="one end-to-end pipeline run")
    _add_common(p)
    _add_input(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("batch", help="diversified batch over text fixtures")
    _add_common(p)
    p.add_argument("--fixtures", help="file with one text request per line")
    p.add_argument("--text")
    p.add_argument("--variations", type=int)
    p.set_defaults(fn=cmd_batch)

    p = sub.add_parser("ablate", help="prompt-component ablation table")
    _add_common(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("compare", help="guided vs random placement harness")
    _add_common(p)
    p.add_argument("--networks", type=int, default=5)
    p.add_argument("--inits", type=int, default=5)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("eval", help="reprint a stored aggregate report")
    p.add_argument("aggregate")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("netgen", help="network subcommands")
    net_sub = p.add_subparsers(dest="net_cmd", required=True)
    pc = net_sub.add_parser("compile")
    pc.add_argument("--text", required=True)
    pc.add_argument("--out-prefix", default="network")
    pv = net_sub.add_parser("validate")
    pv.add_argument("nodes")
    pv.add_argument("edges")
    ps = net_sub.add_parser("stats")
    ps.add_argument("nodes")
    ps.add_argument("edges")
    po = net_sub.add_parser("osm")
    po.add_argument("--bbox", required=True)
    po.add_argument("--extract", help="local OSM XML extract")
    po.add_argument("--cache-dir", default="osm-cache")
    po.add_argument("--out-prefix", default="osm-network")
    p.set_defaults(fn=cmd_netgen)

    p = sub.add_parser("place", help="agent placement preview")
    p.add_argument("--text", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-gap", dest="min_gap", type=float, default=4.0)
    p.set_defaults(fn=cmd_place)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except pipeline.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # stage failure surfaced to the shell
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
