#!/usr/bin/env python3
"""objsearch benchmark: end-to-end workloads, a correctness gate and a traced per-layer run.

Run from the repository root:

    python3 objbench/run.py --workload nav --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report (every metric with its unit, SR/SPL with their base
count, and the sha256 digests of the trace and records JSONL, so a later
change can show that behaviour is unchanged).  The exit code is 0 only when
the outputs are correct.

Workloads (all episodes run under the ``full`` preset, i.e. the scenario's
own hyperparameters):

* ``nav``     -- clean-sensor suites, rooms=3 landmarks=6 map_side=14,
                 episodes run one at a time through ``run_episode``.
* ``gen``     -- ``generate_suite`` on rooms=4 landmarks=8 map_side=20, one
                 scenario per call, no episodes.
* ``clutter`` -- the nav shape with 2 clutter detections per frame and
                 p_miss=0.1.  Runnable by name for its per-layer profile, but
                 not listed in BENCHMARK.json: its episodes change with the
                 seed (trace events varied 1006..1449 over five seeds on the
                 same 12 maps), so its throughput spread across seeds
                 (26-30% of the median) exceeds the largest allowed bound.

The episode workloads run a fixed map suite and take their episode seeds
(the camera noise, miss and clutter streams) from ``--seed``; ``gen`` takes
its generator seeds from ``--seed``.  Maps are fixed because episode cost
varies about twofold between maps: with maps drawn from the seed, 27
clutter episodes per run gave an interquartile spread of 37% of the median
across seeds.

An *item* is one episode (``nav``, ``clutter``) or one generated scenario
(``gen``).  Every timed unit is rescaled to a reference host speed (see
``CALIBRATION_REF_S``); the raw times are printed beside the metrics.  Each
untraced run sets up ``subsuites`` times (asset load plus generating one
sub-suite) and reports the median as ``setup_s``; it then
runs every item once and keeps repeating items until ``--seconds`` have
passed.  Repeats must reproduce each item's digest, and timings are taken
per item as the median over its repeats, so a faster program measures the
same inputs more often rather than different ones.

``--trace 1`` runs the first ``traced_items`` items, alternating untraced
and traced passes, and prints the per-layer metrics: call counts, inclusive
and self times, work per call, the tracing overhead, and (for episode
workloads) a ``run_batch`` check at parallelism 1 and 2 whose records must be
byte-identical to the serial records.  Spans are written to
``.objbench/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import LAYERS, Tracer, layer_name

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(".objbench")  # relative to ROOT; scenario files and span dumps


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "episodes" or "generate"
    suite: dict  # SuiteParams keyword arguments
    subsuites: int  # set-up repetitions; each generates one sub-suite
    per_subsuite: int  # scenarios per sub-suite (episodes); items per run (generate)
    traced_items: int

    @property
    def items(self) -> int:
        return self.per_subsuite * (self.subsuites if self.kind == "episodes" else 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("nav", "episodes", dict(rooms=3, landmarks=6, map_side=14.0),
                 subsuites=3, per_subsuite=8, traced_items=8),
        Workload("clutter", "episodes",
                 dict(rooms=3, landmarks=6, map_side=14.0, sensor={"clutter": 2, "p_miss": 0.1}),
                 subsuites=3, per_subsuite=4, traced_items=4),
        Workload("gen", "generate", dict(rooms=4, landmarks=8, map_side=20.0),
                 subsuites=5, per_subsuite=400, traced_items=40),
    )
}

END_TO_END = (  # name -> unit, as listed in BENCHMARK.json
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run or its outputs are wrong."""


def import_objsearch():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "objsearch" / "__init__.py").is_file():
        raise BenchError(f"no objsearch sources under {src}")
    sys.path.insert(0, str(src))
    import objsearch

    if Path(objsearch.__file__).resolve().parent != (src / "objsearch").resolve():
        raise BenchError(f"imported objsearch from {objsearch.__file__}, not {src}")
    return objsearch


# ---------------------------------------------------------------------------
# Host speed calibration
# ---------------------------------------------------------------------------

# The shared host's speed drifts over tens of seconds: identical work took
# from 2.5 s to 4.3 s per pass within a few minutes.  The drift is a common
# factor, so each timed unit is bracketed by a fixed kernel and its time is
# rescaled to the kernel's reference time (raw pass times spread 23% of their
# median; rescaled ones 7.6%).
CALIBRATION_REF_S = 0.0028  # the kernel's median time on a quiet 2-core x86 host
_CAL_ROWS = np.random.default_rng(0).random((64, 64))


def calibration_kernel() -> float:
    """Fixed work sharing no code with objsearch: small-array NumPy calls and
    Python-level loops, the mix the workloads spend their time in."""
    acc, seen = 0.0, {}
    for k in range(500):
        row = _CAL_ROWS[k % 64] * 1.0001 + 0.5
        acc += float(row.sum()) + float((row > 0.9).any())
        seen[k % 97] = seen.get(k % 97, 0) + k
    return acc


def calibrate() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def derived_seed(seed: int, k: int) -> int:
    """Distinct seed per (workload seed, item): episode seeds and ``gen`` suite seeds."""
    return seed * 1_000_000 + k


# ---------------------------------------------------------------------------
# Work items
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Digest of one item's trace text, and its record."""

    trace_sha: str
    record: object  # objsearch.batch.EpisodeRecord, or a dict for scenarios


def scenario_label(i: int) -> str:
    return str(WORK_DIR / "scenarios" / f"{i:04d}.json")


class Runner:
    """Sets up a workload's inputs and runs its items against the package."""

    def __init__(self, objsearch, workload: Workload, seed: int) -> None:
        from objsearch.batch import EpisodeRecord, records_to_jsonl
        from objsearch.episode import trace_to_jsonl
        from objsearch.world import serialize_scenario

        self.os = objsearch
        self.workload = workload
        self.seed = seed
        self.ctx = None
        self.scenarios: list = []
        self._record_cls = EpisodeRecord
        self.records_to_jsonl = records_to_jsonl
        self._trace_to_jsonl = trace_to_jsonl
        self._serialize = serialize_scenario

    def params(self, count: int):
        return self.os.SuiteParams(count=count, **self.workload.suite)

    def setup(self, subsuite: int, count: int) -> None:
        """Load assets, then (episode workloads) generate one sub-suite.

        The map suite is fixed: sub-suite k is generated with suite seed k, so
        sub-suite 0 starts with the committed suite of ROADMAP item 1.  Maps
        vary with the workload seed only in ``gen``.
        """
        self.ctx = self.os.AssetContext.load()
        if self.workload.kind == "episodes":
            self.scenarios.extend(self.os.generate_suite(self.params(count), subsuite, ctx=self.ctx))

    def call(self, i: int):
        """The timed program call for item i."""
        if self.workload.kind == "generate":
            (scn,) = self.os.generate_suite(self.params(1), derived_seed(self.seed, i), ctx=self.ctx)
            return scn
        return self.os.run_episode(self.scenarios[i], ctx=self.ctx, seed=derived_seed(self.seed, i))

    def describe(self, i: int, result) -> tuple[str, object]:
        """Trace text and record of item i's result, built outside the timing."""
        if self.workload.kind == "generate":
            record = {
                "item": i, "seed": derived_seed(self.seed, i), "target": result.target_phrase,
                "landmarks": [lm.name for lm in result.landmarks],
                "start": [result.start.x, result.start.y, result.start.theta],
                "scenario_seed": result.seed,
            }
            return self._serialize(result) + "\n", record
        check_episode(result)
        record = self._record_cls(
            episode=i, scenario=scenario_label(i), seed=derived_seed(self.seed, i),
            success=result.success,
            traveled=result.traveled, shortest=result.shortest,
            waypoints_visited=result.waypoints_visited,
        )
        return self._trace_to_jsonl(result.trace), record

    def records_jsonl(self, records: list) -> str:
        if self.workload.kind == "generate":
            return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        return self.records_to_jsonl(records)


def check_episode(result) -> None:
    """Trace invariants the episode loop documents; a violation is wrong output."""
    trace = result.trace
    if [e["i"] for e in trace] != list(range(len(trace))):
        raise BenchError("trace event indices are not 0..n-1")
    end = trace[-1]
    if end["event"] != "episode_end" or trace[0]["event"] != "episode_start":
        raise BenchError("trace does not run from episode_start to episode_end")
    if end["success"] != result.success or end["waypoints_visited"] != result.waypoints_visited:
        raise BenchError("episode_end event disagrees with the returned result")
    if not (result.traveled >= 0.0 and result.waypoints_visited >= 0):
        raise BenchError("negative travel or waypoint count")


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    """One run over a list of items.  Only digests and records are kept, so
    the harness's memory does not grow with the number of passes."""

    outcomes: dict = field(default_factory=dict)  # item -> Outcome, in item order
    wall: dict = field(default_factory=dict)  # item -> seconds
    cpu: dict = field(default_factory=dict)  # item -> seconds
    scale: dict = field(default_factory=dict)  # item -> reference / bracketing kernel time
    failures: dict = field(default_factory=dict)  # item -> "ExcType: message"
    invalid: dict = field(default_factory=dict)  # item -> broken output invariant
    results: dict = field(default_factory=dict)  # item -> program result, if kept
    trace_hash: object = field(default_factory=hashlib.sha256)  # concatenated trace text
    prefix_hash: object = field(default_factory=hashlib.sha256)  # same, items < prefix


def run_pass(runner: Runner, items, deadline: float | None = None, tracer=None,
             keep_results: bool = False, prefix: int = 0) -> Pass:
    """Run items in order, each timed and guarded on its own.

    An item that raises counts as failed and the pass goes on.  With a
    deadline the pass stops between items once it has passed.  Items below
    ``prefix`` also feed ``prefix_hash``, the digest a traced run reproduces.
    """
    p = Pass()
    for i in items:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.item = i
        before = calibrate()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = runner.call(i)
        except Exception as exc:  # one failing item must not abort the workload
            p.failures[i] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            p.wall[i], p.cpu[i] = time.perf_counter() - w0, time.process_time() - c0
            p.scale[i] = 2.0 * CALIBRATION_REF_S / (before + calibrate())
        try:
            text, record = runner.describe(i, result)
        except BenchError as exc:
            p.invalid[i] = str(exc)
            continue
        p.trace_hash.update(text.encode("utf-8"))
        if i < prefix:
            p.prefix_hash.update(text.encode("utf-8"))
        p.outcomes[i] = Outcome(sha256(text), record)
        if keep_results:
            p.results[i] = result
    return p


def digests(runner: Runner, p: Pass, prefix: int | None = None) -> tuple[str, str]:
    """sha256 of the pass's trace JSONL and of its records JSONL (of the items
    below ``prefix`` when given)."""
    if prefix is None:
        records = [o.record for o in p.outcomes.values()]
        return p.trace_hash.hexdigest(), sha256(runner.records_jsonl(records))
    records = [o.record for i, o in p.outcomes.items() if i < prefix]
    return p.prefix_hash.hexdigest(), sha256(runner.records_jsonl(records))


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"tail latency needs at least 11 samples, got {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def outcome_quality(runner: Runner, records: list) -> dict:
    """SR and SPL over completed episode records, with their base counts."""
    from objsearch.errors import DomainError
    from objsearch.metrics import spl, success_rate

    if runner.workload.kind != "episodes" or not records:
        return {}
    invalid = [r for r in records if r.success and not math.isfinite(r.shortest)]
    base = [r for r in records if r not in invalid]
    try:
        spl_value = spl(base) if base else float("nan")
    except DomainError as exc:
        raise BenchError(f"spl failed on records: {exc}") from exc
    return {
        "sr_pct": success_rate(records), "sr_base": len(records),
        "spl": spl_value, "spl_base": len(base), "spl_excluded_inf_shortest": len(invalid),
    }


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def measure(objsearch, workload: Workload, seed: int, seconds: float) -> dict:
    runner = Runner(objsearch, workload, seed)
    setups = []
    for k in range(workload.subsuites):
        before = calibrate()
        t0 = time.perf_counter()
        runner.setup(k, workload.per_subsuite)
        setups.append((time.perf_counter() - t0, 2.0 * CALIBRATION_REF_S / (before + calibrate())))
    items = list(range(workload.items))

    start = time.perf_counter()
    deadline = start + seconds
    first = run_pass(runner, items, prefix=workload.traced_items)
    passes = [first]
    while time.perf_counter() < deadline:
        passes.append(run_pass(runner, items, deadline=deadline))
    measured = time.perf_counter() - start

    errors = [f"item {i}: {msg}" for p in passes for i, msg in p.invalid.items()]
    for p in passes[1:]:
        for i, out in p.outcomes.items():
            if i in first.outcomes and out != first.outcomes[i]:
                errors.append(f"item {i}: repeat changed its trace or record")
    ok = sorted(first.outcomes)
    if not ok:
        raise BenchError("every item failed")

    def per_item(times: str, scaled: bool) -> list[float]:
        """Per item, the median over its repeats (rescaled to the reference speed)."""
        return [statistics.median(getattr(p, times)[i] * (p.scale[i] if scaled else 1.0)
                                  for p in passes if i in p.outcomes) for i in ok]

    wall, raw_wall, cpu = per_item("wall", True), per_item("wall", False), per_item("cpu", False)
    samples = [p.wall[i] * p.scale[i] for p in passes for i in p.outcomes]
    raw_samples = [p.wall[i] for p in passes for i in p.outcomes]
    attempted = sum(len(p.wall) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    tail_value, tail_pct, tail_n = tail(samples)
    trace_sha, records_sha = digests(runner, first)
    traced_trace_sha, traced_records_sha = digests(runner, first, workload.traced_items)
    records = [first.outcomes[i].record for i in ok]
    metrics = {
        "items_per_s": len(ok) / sum(wall),
        "item_ms_p50": statistics.median(samples) * 1000.0,
        "setup_s": statistics.median(t * scale for t, scale in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "item": "scenario" if workload.kind == "generate" else "episode",
        "items": len(items), "passes": round(attempted / len(items), 3),
        "measured_s": measured,
        "host_speed_vs_reference": statistics.median(s for p in passes for s in p.scale.values()),
        "item_ms_tail": tail_value * 1000.0, "item_ms_tail_pct": tail_pct,
        "item_ms_samples": tail_n,
        "raw_items_per_s": len(ok) / sum(raw_wall),
        "raw_item_ms_p50": statistics.median(raw_samples) * 1000.0,
        "raw_setup_s": statistics.median(t for t, _ in setups),
        "raw_item_cpu_ms_mean": 1000.0 * sum(cpu) / len(cpu),
        "raw_item_cpu_ms_p50": 1000.0 * statistics.median(cpu),
        "error_rate": failed / attempted, "failures": first.failures,
        "trace_sha256": trace_sha, "records_sha256": records_sha,
        "traced_items_trace_sha256": traced_trace_sha,
        "traced_items_records_sha256": traced_records_sha,
        **outcome_quality(runner, records),
    }
    return {"correct": not errors, "errors": errors, "attempted": attempted,
            "failed": failed, "metrics": metrics, "detail": detail}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def episode_counts(results: list, scenarios: list) -> dict:
    """Per-episode means read off the returned traces; replan_frac is pooled
    over all legs.  A phantom is a registered landmark that sits on no real
    landmark's centre (real sightings project exactly onto it)."""
    from objsearch.episode import trace_to_jsonl

    n = len(results)
    phantoms = legs = replans = 0
    for result, scn in zip(results, scenarios):
        centers = [lm.center for lm in scn.landmarks]
        trace = result.trace
        for k, e in enumerate(trace):
            if e["event"] == "landmark_new":
                phantoms += min(math.dist(e["pos"], c) for c in centers) > 1e-6
            elif e["event"] == "leg":
                legs += 1
                nxt = trace[k + 1] if k + 1 < len(trace) else {}
                replans += nxt.get("event") == "leg" and nxt.get("to") == e["to"]
    return {
        "trace_events": sum(len(r.trace) for r in results) / n if n else 0.0,
        "trace_bytes": sum(len(trace_to_jsonl(r.trace).encode()) for r in results) / n if n else 0.0,
        "waypoints": sum(r.waypoints_visited for r in results) / n if n else 0.0,
        "phantom_landmarks": phantoms / n if n else 0.0,
        "replan_frac": replans / legs if legs else 0.0,
    }


# (work counter kept by a tracer hook, per-layer metric = counter / calls of its layer)
PER_CALL = (
    ("world.raycast_batch.rays", "world.raycast_batch.rays_per_call"),
    ("sensing.lidar_update.new_cells", "sensing.lidar_update.new_cells_per_call"),
    ("sensing.lidar_update.zero_gain", "sensing.lidar_update.zero_gain_frac"),
    ("sensing.camera_observe.detections", "sensing.camera_observe.detections_per_call"),
    ("planning.traversable_mask.unchanged", "planning.traversable_mask.unchanged_frac"),
    ("planning.distance_field.cells", "planning.distance_field.cells_per_call"),
    ("planning.plan_path.path_cells", "planning.plan_path.path_cells_per_call"),
)


def per_layer(objsearch, workload: Workload, seed: int, seconds: float) -> dict:
    runner = Runner(objsearch, workload, seed)
    with Tracer() as setup_tracer:
        runner.setup(0, workload.traced_items)
    items = list(range(workload.traced_items))

    # Alternate untraced and traced passes over the same items, at least twice.
    untraced, traced, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        untraced.append(run_pass(runner, items, keep_results=True))
        with Tracer() as tr:
            traced.append(run_pass(runner, items, tracer=tr))
        tracers.append(tr)

    passes = untraced + traced
    errors = [f"item {i}: {msg}" for p in passes for i, msg in p.invalid.items()]
    reference = digests(runner, untraced[0])
    if any(digests(runner, p) != reference for p in passes):
        errors.append("a traced or untraced pass changed the trace or records digest")
    totals = [tr.layer_totals() for tr in tracers]
    item_shares = shares(totals[0])
    for t in totals:  # asset loading happens only in set-up
        t["assets.load"] = setup_tracer.layer_totals().get("assets.load", {})
    counts = [
        (dict(tr.counts), {name: v["calls"] for name, v in t.items()})
        for tr, t in zip(tracers, totals)
    ]
    if any(c != counts[0] for c in counts[1:]):
        errors.append("per-layer counts differ between traced passes")

    first, work = totals[0], tracers[0].counts
    layers = {}
    for module, attr, _, _ in LAYERS:
        name = layer_name(module, attr)
        layers[f"{name}.calls"] = int(first.get(name, {}).get("calls", 0))
        for stat in ("ms", "self_ms"):
            layers[f"{name}.{stat}"] = statistics.median(t.get(name, {}).get(stat, 0.0) for t in totals)
    for counter, metric in PER_CALL:
        calls = layers[f"{counter.rsplit('.', 1)[0]}.calls"]
        layers[metric] = work[counter] / calls if calls else 0.0

    if workload.kind == "episodes":
        done = [i for i in items if i in untraced[0].outcomes]
        results = [untraced[0].results[i] for i in done]
        scenarios = [runner.scenarios[i] for i in done]
    else:
        results, scenarios = [], []
    for key, value in episode_counts(results, scenarios).items():
        layers[f"episode.{key}_per_episode"] = value

    untraced_s = [sum(t * p.scale[i] for i, t in p.wall.items()) for p in untraced]
    traced_s = [sum(t * p.scale[i] for i, t in p.wall.items()) for p in traced]
    overhead_s = statistics.median(t - u for t, u in zip(traced_s, untraced_s))
    layers["bench.trace_overhead_ms"] = overhead_s * 1000.0
    layers["bench.trace_overhead_pct"] = 100.0 * overhead_s / statistics.median(untraced_s)

    batch = {"batch.task_bytes": 0.0, "batch.p2_efficiency": 0.0}
    if workload.kind == "episodes":
        batch, batch_errors = batch_check(objsearch, runner, items, untraced[0])
        errors.extend(batch_errors)
    layers.update(batch)

    out_dir = ROOT / WORK_DIR
    out_dir.mkdir(exist_ok=True)
    tracers[0].write_spans(out_dir / f"spans-{workload.name}-{seed}.jsonl")

    trace_sha, records_sha = reference
    detail = {
        "traced_items": len(items), "pairs": len(traced),
        "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
        "traced_items_trace_sha256": trace_sha, "traced_items_records_sha256": records_sha,
        "shares_pct": item_shares,
    }
    return {"correct": not errors, "errors": errors,
            "attempted": sum(len(p.wall) for p in passes),
            "failed": sum(len(p.failures) for p in passes),
            "metrics": layers, "detail": detail}


def shares(totals: dict) -> dict:
    """Inclusive time of each layer as a percentage of all item time."""
    roots = sum(totals.get(n, {}).get("ms", 0.0) for n in ("episode.run_episode", "suitegen.generate_suite"))
    if roots <= 0.0:
        return {}
    return {
        name: round(100.0 * t["ms"] / roots, 1)
        for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["ms"])
    }


def batch_check(objsearch, runner: Runner, items, serial: Pass) -> tuple[dict, list]:
    """run_batch at parallelism 1 and 2 on the traced items' scenario files."""
    from objsearch.batch import RunConfig, records_to_jsonl
    from objsearch.world import serialize_scenario

    scen_dir = ROOT / WORK_DIR / "scenarios"
    shutil.rmtree(scen_dir, ignore_errors=True)
    scen_dir.mkdir(parents=True)
    errors = []
    try:
        paths = []
        for i in items:
            path = Path(scenario_label(i))
            (ROOT / path).write_text(serialize_scenario(runner.scenarios[i]), encoding="utf-8")
            paths.append(path)
        expected = records_to_jsonl([serial.outcomes[i].record for i in items])
        walls = {}
        for parallelism in (1, 2):
            config = RunConfig(episodes=len(paths), parallelism=parallelism,
                               seed_base=derived_seed(runner.seed, 0), scenario_paths=tuple(paths))
            t0 = time.perf_counter()
            report = objsearch.run_batch(config)
            walls[parallelism] = time.perf_counter() - t0
            if records_to_jsonl(report.records) != expected:
                errors.append(f"run_batch(parallelism={parallelism}) records differ from serial")
    finally:
        shutil.rmtree(scen_dir, ignore_errors=True)
    task_bytes = statistics.mean(
        len(pickle.dumps((i, scenario_label(i), runner.scenarios[i], derived_seed(runner.seed, i),
                          runner.ctx)))
        for i in items
    )
    return {"batch.task_bytes": task_bytes,
            "batch.p2_efficiency": walls[1] / (2.0 * walls[2])}, errors


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def report(workload: str, seed: int, trace: int, out: dict, units: dict) -> None:
    print(f"objbench workload={workload} seed={seed} trace={trace} correct={out['correct']}")
    for name, value in out["metrics"].items():
        print(f"  {name:<48} {value:>16.6g} {units.get(name) or layer_unit(name)}")
    for name, value in out["detail"].items():
        print(f"  {name:<48} {value}")
    for err in out["errors"]:
        print(f"  ERROR {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    os.chdir(ROOT)  # scenario labels and work files are relative to the checkout root
    try:
        objsearch = import_objsearch()
        workload = WORKLOADS[args.workload]
        if args.trace:
            out = per_layer(objsearch, workload, args.seed, args.seconds)
        else:
            out = measure(objsearch, workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"objbench: {exc}", file=sys.stderr)
        return 1

    units = {name: unit for name, unit in END_TO_END}
    report(args.workload, args.seed, args.trace, out, units)
    print(json.dumps({
        "correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k, layer_unit(k))}
                    for k, v in out["metrics"].items()},
    }))
    return 0 if out["correct"] else 1


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("pct"):
        return "%"
    if name.endswith(("frac", "efficiency")):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
