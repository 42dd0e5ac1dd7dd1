#!/usr/bin/env python3
"""Fast smoke test of the benchmark harness.

    python3 objbench/smoke.py

Runs every workload on a tiny suite (untraced and traced, two seeds), checks
that the tracer puts every wrapped function back, that the metric names match
BENCHMARK.json, and that the command fails without printing a result when the
sources are missing.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from tracer import Tracer

TINY_SUITE = dict(rooms=1, landmarks=3, map_side=8.0)


class SmokeFailure(Exception):
    pass


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SmokeFailure(what)


def tiny(workload: run.Workload) -> run.Workload:
    suite = {**workload.suite, **TINY_SUITE}
    return dataclasses.replace(workload, suite=suite, subsuites=1, per_subsuite=11, traced_items=2)


def bindings(objsearch) -> dict:
    """Every attribute of every loaded objsearch module and of AssetContext."""
    snapshot = {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "objsearch" or name.startswith("objsearch.")
        for attr, value in vars(mod).items()
    }
    snapshot.update({("AssetContext", k): v for k, v in vars(objsearch.AssetContext).items()})
    return snapshot


def check_restore(objsearch) -> None:
    before = bindings(objsearch)
    original = objsearch.sensing.raycast_batch
    with Tracer():
        check(objsearch.sensing.raycast_batch is not original, "raycast_batch not wrapped in sensing")
        check(objsearch.world.raycast_batch is objsearch.sensing.raycast_batch,
              "world and sensing bindings of raycast_batch differ under tracing")
    after = bindings(objsearch)
    changed = sorted(f"{k[0]}.{k[1]}" for k in before if before[k] is not after.get(k))
    check(not changed, f"tracer left patched bindings: {changed}")


def check_names(objsearch) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [m["name"] for m in spec["end_to_end"]]
    check(e2e == [name for name, _ in run.END_TO_END], "END_TO_END differs from BENCHMARK.json")
    out = run.per_layer(objsearch, tiny(run.WORKLOADS["gen"]), seed=0, seconds=0)
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(set(out["metrics"]) == set(layer_units), "per-layer metric names differ from BENCHMARK.json: "
          f"{sorted(set(out['metrics']) ^ set(layer_units))}")
    bad = [k for k in layer_units if run.layer_unit(k) != layer_units[k]]
    check(not bad, f"per-layer units differ from BENCHMARK.json: {bad}")


def check_workloads(objsearch) -> None:
    for name, workload in run.WORKLOADS.items():
        small = tiny(workload)
        for seed in (0, 7):
            out = run.measure(objsearch, small, seed=seed, seconds=0)
            check(out["correct"], f"{name} seed {seed}: {out['errors']}")
            check(out["failed"] == 0, f"{name} seed {seed}: {out['detail']['failures']}")
            metrics = out["metrics"]
            check(list(metrics) == [n for n, _ in run.END_TO_END], f"{name}: metric names")
            check(all(v > 0 for v in metrics.values()), f"{name}: a metric is not positive: {metrics}")
        traced = run.per_layer(objsearch, small, seed=7, seconds=0)
        check(traced["correct"], f"{name} traced: {traced['errors']}")
        for key in ("traced_items_trace_sha256", "traced_items_records_sha256"):
            check(traced["detail"][key] == out["detail"][key],
                  f"{name}: traced run's {key} differs from the untraced run's")
        print(f"smoke: {name} ok", flush=True)


def check_missing_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.ROOT / "objbench", Path(tmp) / "objbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "objbench/run.py", "--workload", "nav", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    check(proc.returncode != 0, "run.py succeeded without sources")
    check('"correct"' not in proc.stdout, "run.py printed a result without sources")


def main() -> int:
    objsearch = run.import_objsearch()
    try:
        check_restore(objsearch)
        check_names(objsearch)
        check_workloads(objsearch)
        check_missing_sources()
    except SmokeFailure as exc:
        print(f"smoke: FAILED: {exc}", file=sys.stderr)
        return 1
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
