"""Benchmark of the scenarioforge pipeline, measured from outside the package.

    python3 perfbench/run.py --workload dense_highway --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

With ``--trace 0`` the workload runs untraced in three fresh worker
processes, one after the other (a closed loop with one client), and the
end-to-end metrics are printed. With ``--trace 1`` one worker runs an
untraced and a traced pass over the same repetitions plus the agent-count
sweep, and the per-layer metrics are printed; the spans are written to
``.perfbench-out/``. The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads, metrics and the layer -> end-to-end mapping are described in
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from worker import sha256

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("batch_mixed", "dense_highway", "osm_grid")
PROCESSES = 3             # fresh worker processes per untraced run
MIN_LATENCY_SAMPLES = 21  # the median needs >= 10 samples above it, and
                          # the processes together run all 21 closed-loop
                          # inputs once
DEADLINE_S = 170.0        # a run must end within 180 s

END_TO_END_UNITS = {
    "scenarios_per_s": "1/s",
    "scenario_s.p50": "s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "pipeline.scenario_s": "s",
    "simcore.step_s": "s",
    "simcore.step_us_per_agent_step": "us",
    "simcore.detect_collisions_s": "s",
    "simcore.obb_tests_per_step": "calls/step",
    "simcore.export_trace_s": "s",
    "simcore.trace_hash_s": "s",
    "simcore.build_world_s": "s",
    "simcore.agent_steps": "count",
    "netgen.lane_centerline_calls": "calls/agentstep",
    "netgen.point_along_calls": "calls/agentstep",
    "netgen.compile_s": "s",
    "netgen.derive_connections_s": "s",
    "netgen.serialize_s": "s",
    "netgen.validate_calls_per_network": "calls/network",
    "netgen.network_stats_s": "s",
    "netgen.network_stats_calls_per_scenario": "calls/scenario",
    "compgen.generate_agents_s": "s",
    "compgen.generate_objects_s": "s",
    "interpreter.busy_s": "s",
    "interpreter.provider_calls_per_scenario": "calls/scenario",
    "evalkit.objective_distance_self_s": "s",
    "evalkit.performance_s": "s",
    "evalkit.aggregate_s": "s",
    "pipeline.unstaged_s": "s",
    "pipeline.files_written": "count",
    "pipeline.bytes_written": "bytes",
    "pipeline.batch_overhead_s": "s",
    "setup.import_s": "s",
    "tracing.overhead_s": "s",
    **{f"simcore.{kind}_ms.n{n}": "ms"
       for kind in ("step", "detect_collisions") for n in (4, 8, 16, 32)},
}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# worker processes


def run_worker(args, mode: str, seconds: float, hashseed: int, work_dir: str,
               deadline: float, extra=()) -> tuple[float, dict]:
    """Start one fresh worker and wait for it. Returns (seconds from start
    to its ready line, its done payload)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--mode", mode,
           "--work-dir", work_dir, *extra]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    ready_s, done = None, None
    try:
        for line in proc.stdout:
            if not line.startswith("PERFBENCH "):
                continue
            msg = json.loads(line[len("PERFBENCH "):])
            if msg["event"] == "ready":
                ready_s = time.perf_counter() - t0
            elif msg["event"] == "done":
                done = msg
    finally:
        killer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready_s is None or done is None:
        raise BenchError(f"worker exited with code {code} (ready="
                         f"{ready_s is not None}, done={done is not None})")
    return ready_s, done


def digest_of(workload: str, dones: list, problems: list) -> str:
    """One digest over the sorted per-scenario report entries; every
    repetition and every process must agree on it."""
    if workload == "batch_mixed":
        digests = {d for done in dones for d in done["batch_digests"]}
        if len(digests) != 1:
            problems.append(f"batch digests differ: {sorted(digests)}")
        return sorted(digests)[0] if digests else ""
    merged: dict = {}
    for done in dones:
        for key, entry in done["entries"].items():
            if merged.setdefault(key, entry) != entry:
                problems.append(f"input {key}: reports differ between "
                                "processes")
    if len(merged) != dones[0]["inputs"]:
        problems.append(f"only {len(merged)} of {dones[0]['inputs']} inputs "
                        "ran; the digest is incomplete")
    return sha256(sorted(merged.values()))


def recorded_digest(workload: str, seed: int):
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def record_digest(workload: str, seed: int, digest: str) -> None:
    data = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            data = json.load(fh)
    data.setdefault(workload, {})[str(seed)] = digest
    data[workload] = dict(sorted(data[workload].items(),
                                 key=lambda kv: int(kv[0])))
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# one workload


def measure(args, work_dir: str, deadline: float) -> dict:
    """Untraced run: end-to-end metrics from PROCESSES fresh workers."""
    setups, dones = [], []
    per_process = args.seconds / PROCESSES
    reps = -(-MIN_LATENCY_SAMPLES // PROCESSES)
    for k in range(PROCESSES):
        # consecutive processes continue where the previous one's minimum
        # ended, so together they cover every closed-loop input
        ready_s, done = run_worker(args, "measure", per_process, k + 1,
                                   work_dir, deadline,
                                   ("--min-reps", str(reps),
                                    "--offset", str(k * reps)))
        setups.append(ready_s)
        dones.append(done)
    problems = [p for d in dones for p in d["problems"]]
    digest = digest_of(args.workload, dones, problems)
    walls = [w for d in dones for w in d["walls"]]
    latencies = [x for d in dones for x in d["latencies"]]
    scenarios = sum(d["scenarios"] for d in dones)
    ok = sum(d["ok"] for d in dones)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "scenarios_per_s": ok / sum(walls),
        "scenario_s.p50": statistics.median(latencies),
        "ok_ratio": ok / scenarios,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {
        "scenarios_per_s": f"{ok} ok scenarios in {sum(walls):.2f} s of "
                           f"{len(walls)} entry-point calls",
        "scenario_s.p50": f"n={len(latencies)}",
        "ok_ratio": f"{ok}/{scenarios}",
        "setup_s": f"median of {len(setups)} fresh processes: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "peak_rss_mb": f"max over {len(setups)} worker processes",
    }
    if len(latencies) >= 100:
        p90 = (f"{statistics.quantiles(latencies, n=10)[8]:>12.4f} s      "
               f"n={len(latencies)}")
    else:
        p90 = (f"{'-':>12} s      not reported: n={len(latencies)}, needs "
               ">= 100 so that 10 samples lie above it")
    return {"metrics": metrics, "notes": notes, "p90": p90,
            "digest": digest, "problems": problems,
            "attempted": scenarios, "failed": scenarios - ok}


def trace(args, work_dir: str, deadline: float) -> dict:
    """Traced run: per-layer metrics from one worker."""
    spans_out = os.path.join(OUT_ROOT, f"spans-{args.workload}-seed{args.seed}"
                                       f"{'-tiny' if args.tiny else ''}.json")
    _, done = run_worker(args, "trace", args.seconds, 1, work_dir, deadline,
                         ("--spans-out", spans_out))
    problems = list(done["problems"])
    digest = digest_of(args.workload, [done], problems)
    scenarios = done["untraced"]["scenarios"] + done["traced"]["scenarios"]
    ok = done["untraced"]["ok"] + done["traced"]["ok"]
    return {"metrics": done["metrics"], "self_times": done["self_times"],
            "layer_self_s": done["layer_self_s"], "digest": digest,
            "problems": problems, "attempted": scenarios,
            "failed": scenarios - ok, "spans_out": spans_out,
            "untraced_wall_s": done["untraced_wall_s"],
            "traced_wall_s": done["traced_wall_s"]}


def run_workload(args) -> dict:
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = (trace if args.trace else measure)(args, work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    recorded = recorded_digest(args.workload, args.seed)
    if args.tiny:
        result["digest_status"] = "tiny inputs; not compared"
    elif recorded is None:
        result["digest_status"] = f"no recorded digest for seed {args.seed}"
    elif recorded == result["digest"]:
        result["digest_status"] = "matches the recorded digest"
    else:
        result["digest_status"] = (f"DIFFERS from the recorded digest "
                                   f"{recorded[:16]}: behaviour moved")
    if args.record_digest and not args.tiny and not result["problems"]:
        record_digest(args.workload, args.seed, result["digest"])
        result["digest_status"] = "recorded"
    return result


# ---------------------------------------------------------------------------
# output


def print_measure(name: str, res: dict) -> None:
    print(f"== {name}: end to end (tracing off, {PROCESSES} fresh processes, "
          "closed loop with one client)")
    for key, value in res["metrics"].items():
        unit = END_TO_END_UNITS[key]
        print(f"  {key:<22}{value:>12.4f} {unit:<6} {res['notes'][key]}")
        if key == "scenario_s.p50":
            print(f"  {'scenario_s.p90':<22}{res['p90']}")
    print_checks(res)


def print_trace(name: str, res: dict) -> None:
    m = res["metrics"]
    wall = m["pipeline.scenario_s"]
    print(f"== {name}: per layer (traced pass; times are per scenario unless "
          "the unit says otherwise)")
    for key in PER_LAYER_UNITS:
        print(f"  {key:<42}{m[key]:>14.6g} {PER_LAYER_UNITS[key]}")
    print("  self time by layer (share of scenario wall "
          f"{wall:.4f} s):")
    for layer, s in sorted(res["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<14}{s:>10.4f} s {100 * s / wall:6.1f}%")
    print("  self time by span name (totals over the traced pass):")
    rows = sorted(res["self_times"].items(), key=lambda kv: -kv[1]["self_s"])
    for span, row in rows:
        print(f"    {span:<34}{row['calls']:>8} calls "
              f"{row['total_s']:>10.4f} s total {row['self_s']:>10.4f} s self")
    over = res["traced_wall_s"] - res["untraced_wall_s"]
    base = res["untraced_wall_s"]
    print(f"  tracing overhead: {over:.3f} s on {base:.3f} s untraced "
          f"({100 * over / base:.1f}%)")
    print(f"  spans written to {os.path.relpath(res['spans_out'], ROOT)}")
    print_checks(res)


def print_checks(res: dict) -> None:
    print(f"  result_digest {res['digest']} ({res['digest_status']})")
    if res["problems"]:
        print(f"  checks FAILED ({len(res['problems'])} problems):")
        for text in res["problems"]:
            print(f"    {text}")
    else:
        print("  checks ok: digests agree across repetitions and processes, "
              "traces finite with speed >= 0, listed artifacts exist")


def contract_line(res: dict, units: dict) -> str:
    return json.dumps({
        "correct": not res["problems"],
        "attempted": max(1, res["attempted"]),
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": u}
                    for k, u in units.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="scenarioforge benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the smoke test")
    ap.add_argument("--record-digest", action="store_true",
                    help="store this run's result_digest for its seed")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "scenarioforge")):
        print(f"perfbench: no src/scenarioforge under {ROOT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        sub = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            res = run_workload(sub)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        (print_trace if args.trace else print_measure)(name, res)
        results[name] = res
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if len(names) == 1:
        print(contract_line(results[names[0]], units))
    else:
        print(json.dumps({name: json.loads(contract_line(res, units))
                          for name, res in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
