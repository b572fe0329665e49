"""One benchmark process: import, generate inputs, warm up, then measure.

Started by run.py as a fresh interpreter. It prints protocol lines prefixed
with ``PERFBENCH`` on stdout: one ``ready`` line once set-up (imports, input
generation, one warm-up scenario) is done, and one ``done`` line with the
samples, check results and, in trace mode, the per-layer metrics.

    python3 perfbench/worker.py --workload dense_highway --seed 1 \
        --seconds 10 --mode measure --work-dir .perfbench-work/x

Every repetition (one ``run_pipeline`` call, or one ``run_batch`` call)
writes into a fresh temporary directory that is checked, measured and
removed before the next one starts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MAX_PROBLEMS = 20


def emit(event: str, **payload) -> None:
    print("PERFBENCH " + json.dumps({"event": event, **payload}), flush=True)


def sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def dir_usage(path: str) -> tuple[int, int]:
    files = size = 0
    for root, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(root, name))
    return files, size


def check_trace(path: str) -> list[str]:
    """trace.jsonl: every number finite, every speed >= 0."""
    problems = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            rec = json.loads(line)
            for key in ("x", "y", "speed", "heading", "accel"):
                if not math.isfinite(rec[key]):
                    problems.append(f"{path}:{n}: {key} is {rec[key]}")
            if rec["speed"] < 0:
                problems.append(f"{path}:{n}: negative speed {rec['speed']}")
            if problems:
                return problems
    return problems


def check_run(run_dir: str) -> dict:
    """Checks one run directory; returns ok, report entry, stage seconds
    and any problems found."""
    try:
        with open(os.path.join(run_dir, "manifest.json"),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return {"ok": False, "entry": None, "manifest": None, "stage_s": 0.0,
                "problems": [f"{run_dir}: unreadable manifest: {exc}"]}
    problems = []
    for name, path in manifest["artifacts"].items():
        if not os.path.isfile(path):
            problems.append(f"{run_dir}: artifact {name} missing: {path}")
        elif os.path.dirname(os.path.abspath(path)) != \
                os.path.abspath(run_dir):
            problems.append(f"{run_dir}: artifact {name} outside run: {path}")
    ok = all(v == "ok" for v in manifest["stages"].values())
    entry = None
    if ok and not problems:
        problems += check_trace(manifest["artifacts"]["trace"])
        with open(manifest["artifacts"]["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        entry = sha256(report)
    return {"ok": ok, "entry": entry, "manifest": manifest,
            "stage_s": sum(manifest["timing"].values()),
            "problems": problems}


class Runner:
    """Runs and checks repetitions of one generated workload."""

    def __init__(self, workload, work_dir: str, offset: int = 0):
        from scenarioforge import pipeline
        self.pipeline = pipeline
        self.wl = workload
        self.work_dir = work_dir
        self.offset = offset        # closed loop: repetition i runs input
                                    # (offset + i) mod len(inputs)
        self.fixture = None
        if workload.osm_xml:
            self.fixture = os.path.join(work_dir, "extract.osm")
            with open(self.fixture, "w", encoding="utf-8") as fh:
                fh.write(workload.osm_xml)
        self.problems: list[str] = []
        self.entries: dict = {}     # closed loop: input index -> entry
        self.batch_digests: list = []

    def config(self, out_dir: str, **extra):
        kw = dict(output_dir=out_dir, osm_fixture=self.fixture,
                  global_seed=self.wl.global_seed, **self.wl.config)
        if self.wl.batch:
            kw["workers"] = os.cpu_count() or 1
        kw.update(extra)
        return self.pipeline.PipelineConfig(**kw)

    def input_index(self, i: int) -> int:
        return (self.offset + i) % len(self.wl.inputs)

    def problem(self, text: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    # -- one repetition ----------------------------------------------------
    def repetition(self, i: int, source=None, seed=None,
                   batch_inputs=None) -> dict:
        """Run repetition i in a fresh directory, check it, remove it.

        By default this is the workload's own call: its batch, or its i-th
        closed-loop input. ``source``/``seed`` run one given scenario instead,
        ``batch_inputs`` a one-variation batch over the given inputs.
        Returns the wall seconds of the entry-point call, per-scenario
        latency samples, check results keyed by run directory, and the files
        and bytes the call wrote."""
        out = tempfile.mkdtemp(prefix="rep-", dir=self.work_dir)
        try:
            if batch_inputs is not None:
                rep = self._batch(out, batch_inputs, variations=1)
            elif source is None and self.wl.batch:
                rep = self._batch(out, self.wl.inputs)
            else:
                if source is None:
                    source, seed = self.wl.inputs[self.input_index(i)]
                rep = self._single(out, i, source, seed)
            rep["files"], rep["bytes"] = dir_usage(out)
        finally:
            shutil.rmtree(out)
        return rep

    def _single(self, out: str, i: int, source, seed) -> dict:
        cfg = self.config(out)
        run_id = f"c{i:04d}"
        t0 = time.perf_counter()
        manifest = self.pipeline.run_pipeline(source, cfg, seed=seed,
                                              run_id=run_id)
        wall = time.perf_counter() - t0
        run_dir = os.path.join(out, "runs", f"{run_id}-{seed}")
        res = check_run(run_dir)
        if res["manifest"] != manifest.to_dict():
            self.problem(f"{run_dir}: manifest on disk differs from the "
                         "returned manifest")
        return {"wall": wall, "latencies": [wall],
                "runs": {f"{run_id}-{seed}": res}}

    def _batch(self, out: str, inputs, **extra) -> dict:
        cfg = self.config(out, **extra)
        start_epoch = time.time()
        t0 = time.perf_counter()
        aggregate = self.pipeline.run_batch(inputs, cfg)
        wall = time.perf_counter() - t0
        runs_dir = os.path.join(out, "runs")
        names = sorted(os.listdir(runs_dir))
        expected = len(inputs) * cfg.variations
        if len(names) != expected or aggregate["runs"] != expected:
            self.problem(f"batch wrote {len(names)} run directories and "
                         f"reported {aggregate['runs']} runs, expected "
                         f"{expected}")
        runs, latencies = {}, []
        prev = start_epoch
        for name in names:
            run_dir = os.path.join(runs_dir, name)
            runs[name] = check_run(run_dir)
            # run_pipeline writes manifest.json last, so its mtime marks the
            # end of that scenario; the batch runs them in name order
            done = os.stat(os.path.join(run_dir, "manifest.json")).st_mtime
            if done < prev:
                self.problem(f"{name}: finished before the previous run")
            latencies.append(done - prev)
            prev = done
        return {"wall": wall, "latencies": latencies, "runs": runs}

    def check_only(self, rep: dict) -> None:
        """Keep a repetition's problems without adding it to the digest."""
        for res in rep["runs"].values():
            for text in res["problems"]:
                self.problem(text)

    def record(self, i: int, rep: dict) -> None:
        """Fold one repetition's checks into the digests and problems."""
        self.check_only(rep)
        if self.wl.batch:
            entries = sorted(r["entry"] or "failed"
                             for r in rep["runs"].values())
            self.batch_digests.append(sha256(entries))
        else:
            (res,) = rep["runs"].values()
            key = str(self.input_index(i))
            entry = res["entry"] or "failed"
            if self.entries.setdefault(key, entry) != entry:
                self.problem(f"input {key}: report differs between "
                             "repetitions")

    # -- loops -------------------------------------------------------------
    def loop(self, budget: float, min_reps: int) -> list[dict]:
        """At least ``min_reps`` repetitions; after those, another one only
        while at least half of it is expected to fit in ``budget`` seconds,
        so on average the loop measures for ``budget`` seconds."""
        reps = []
        t0 = time.perf_counter()
        while len(reps) < min_reps or (time.perf_counter() - t0) * \
                (len(reps) + 0.5) / len(reps) <= budget:
            i = len(reps)
            rep = self.repetition(i)
            self.record(i, rep)
            reps.append(rep)
        return reps

    @staticmethod
    def summarize(reps: list[dict]) -> dict:
        runs = [r for rep in reps for r in rep["runs"].values()]
        return {
            "walls": [rep["wall"] for rep in reps],
            "latencies": [x for rep in reps for x in rep["latencies"]],
            "scenarios": len(runs),
            "ok": sum(1 for r in runs if r["ok"]),
            "files": [rep["files"] for rep in reps],
            "bytes": [rep["bytes"] for rep in reps],
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--min-reps", type=int, default=1,
                    help="closed loop, measure mode: at least this many calls")
    ap.add_argument("--offset", type=int, default=0,
                    help="closed loop: index of the first input to run")
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import scenarioforge.pipeline  # noqa: F401  (timed import)
    import_s = time.perf_counter() - t0

    import workloads
    wl = workloads.make(args.workload, args.seed, tiny=args.tiny)
    runner = Runner(wl, args.work_dir, args.offset)
    # warm-up: one scenario of the first input
    first = (wl.inputs[0], wl.global_seed) if wl.batch else wl.inputs[0]
    runner.check_only(runner.repetition(0, *first))
    emit("ready", import_s=import_s)

    if args.mode == "measure":
        reps = runner.loop(args.seconds, 1 if wl.batch else args.min_reps)
        emit("done", **Runner.summarize(reps), **_checks(runner))
        return 0

    import trace_run
    # the traced run covers every closed-loop input
    result = trace_run.run(runner, args.seconds,
                           1 if wl.batch else len(wl.inputs), args.seed,
                           args.spans_out, import_s)
    emit("done", **result, **_checks(runner))
    return 0


def _checks(runner: Runner) -> dict:
    return {"problems": runner.problems, "entries": runner.entries,
            "inputs": len(runner.wl.inputs),
            "batch_digests": runner.batch_digests}


if __name__ == "__main__":
    sys.exit(main())
