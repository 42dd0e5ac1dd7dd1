"""Batch execution of episodes under ablation presets, with stable reports.

A preset rewrites the scenario hyperparameters before running: the
nearest-point baseline zeroes both cost weights, the co-occurrence and
uncertainty ablations zero one each, and the web-table preset swaps in the
alternative generation table.  Records and reports are byte-stable across
reruns and across parallelism settings.
"""

from __future__ import annotations

import dataclasses
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .assets import GENERATION_TABLE_FILE, WEB_TABLE_FILE, AssetContext
from .episode import run_episode
from .errors import DomainError, SchemaError
from .metrics import mean_waypoints, spl, spl_fault, success_rate
from .suitegen import SuiteParams, generate_suite, suite_from_dict
from .world import (
    ScenarioSpec,
    _number,
    fields_dict,
    load_scenario_file,
    parse_fields,
    parse_json,
)

# name -> (hyperparameter overrides, generation-table file)
_PRESETS = {
    "full": ({}, GENERATION_TABLE_FILE),
    "nearest_point": ({"lambda1": 0.0, "lambda2": 0.0}, GENERATION_TABLE_FILE),
    "no_cooccurrence": ({"lambda1": 0.0}, GENERATION_TABLE_FILE),
    "no_uncertainty": ({"lambda2": 0.0}, GENERATION_TABLE_FILE),
    "web_table": ({}, WEB_TABLE_FILE),
}
PRESETS = tuple(_PRESETS)


@dataclass(frozen=True)
class RunConfig:
    """What to run: scenarios (files or a generated suite), preset, seeds."""

    preset: str = "full"
    episodes: int = 1
    seed_base: int = 0
    parallelism: int = 1
    out_dir: Path | None = field(default=None, metadata={"key": "out"})
    scenario_paths: tuple[Path, ...] = field(default=(), metadata={"key": "scenarios"})
    # Read as ``objsearch gen-suite`` reads a suite document, so its messages
    # name it ``suite``; ``run_config_from_dict`` moves its seed to suite_seed.
    suite: SuiteParams | None = field(
        default=None, metadata={"parser": lambda doc, where: suite_from_dict(doc)[0]}
    )
    suite_seed: int = 0

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise DomainError(f"unknown preset {self.preset!r}; expected one of {PRESETS}")
        if self.episodes < 1:
            raise DomainError("episodes must be >= 1")
        if self.parallelism < 1:
            raise DomainError("parallelism must be >= 1")
        if self.seed_base < 0 or self.suite_seed < 0:
            raise DomainError("seed_base and suite_seed must be >= 0")
        if bool(self.scenario_paths) == (self.suite is not None):
            raise DomainError("exactly one of scenario_paths or suite must be given")
        if self.suite is not None and self.episodes > self.suite.count:
            raise DomainError(f"episodes={self.episodes} exceeds suite size {self.suite.count}")
        if self.scenario_paths and self.episodes != len(self.scenario_paths):
            raise DomainError(
                "episodes must equal the number of scenario paths "
                f"({self.episodes} != {len(self.scenario_paths)})"
            )


def _shortest(value, where: str) -> float:
    return math.inf if value is None else _number(value, where)


@dataclass(kw_only=True)
class EpisodeRecord:
    episode: int
    scenario: str = ""
    seed: int = 0
    success: bool
    traveled: float
    # No drivable path to the target: inf, written as null.
    shortest: float = field(default=math.inf, metadata={"parser": _shortest})
    waypoints_visited: int

    def to_json_dict(self) -> dict:
        doc = fields_dict(self)
        if not math.isfinite(self.shortest):
            doc["shortest"] = None
        return doc


@dataclass
class AggregateReport:
    preset: str
    episodes: int
    sr: float
    spl: float
    mean_waypoints: float
    spl_faults: int  # successes scored 0 because their lengths are faulty
    records: list[EpisodeRecord] = field(default_factory=list)

    def summary_table(self) -> str:
        header = f"{'preset':<16}{'SPL':>8}{'SR(%)':>8}{'waypoints':>11}"
        row = f"{self.preset:<16}{self.spl:>8.4f}{self.sr:>8.2f}{self.mean_waypoints:>11.2f}"
        faults = f"SPL faults: {self.spl_faults} successes scored 0\n" if self.spl_faults else ""
        return header + "\n" + row + "\n" + faults


def _preset(name: str) -> tuple[dict, str]:
    try:
        return _PRESETS[name]
    except KeyError:
        raise DomainError(f"unknown preset {name!r}") from None


def apply_preset(scenario: ScenarioSpec, preset: str) -> ScenarioSpec:
    """Rewrite hyperparameters for an ablation preset (table swaps are handled
    at asset-load time, by :func:`context_for_preset`)."""
    overrides, _ = _preset(preset)
    hp = dataclasses.replace(scenario.hyperparams, **overrides)
    return dataclasses.replace(scenario, hyperparams=hp)


def context_for_preset(preset: str, asset_root: Path | None) -> AssetContext:
    """The assets an episode runs on under a preset: its generation table."""
    _, table = _preset(preset)
    return AssetContext.load(root=asset_root, table_file=table)


def _run_one(args: tuple[int, str, ScenarioSpec, int, AssetContext]) -> EpisodeRecord:
    index, label, scenario, seed, ctx = args
    result = run_episode(scenario, ctx=ctx, seed=seed)
    return EpisodeRecord(
        episode=index,
        scenario=label,
        seed=seed,
        success=result.success,
        traveled=result.traveled,
        shortest=result.shortest,
        waypoints_visited=result.waypoints_visited,
    )


def run_batch(config: RunConfig, asset_root: Path | None = None) -> AggregateReport:
    """Run every episode under the preset and aggregate SR / SPL / waypoints.

    Asset and scenario loading happens up front so configuration errors
    surface before any episode runs.  Records come back in task order, which
    is episode order, serially and from ``ProcessPoolExecutor.map`` alike, so
    serial and parallel executions are byte-identical.
    """
    ctx = context_for_preset(config.preset, asset_root)
    if config.suite is not None:
        # Scenario i depends only on (suite_seed, i): the first ``episodes``
        # of the suite are generated alone.
        suite = dataclasses.replace(config.suite, count=config.episodes)
        scenarios = generate_suite(suite, config.suite_seed, ctx=ctx)
        labels = [f"suite-{i:04d}" for i in range(len(scenarios))]
    else:
        scenarios = [load_scenario_file(p) for p in config.scenario_paths]
        labels = [str(p) for p in config.scenario_paths]

    tasks = [
        (i, labels[i], apply_preset(s, config.preset), config.seed_base + i, ctx)
        for i, s in enumerate(scenarios)
    ]
    # The pool starts all its workers at once, so it gets no more than the
    # episodes need.
    workers = min(config.parallelism, len(tasks))
    if workers == 1:
        records = [_run_one(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_one, tasks))

    report = score_records(records, config.preset)
    if config.out_dir is not None:
        write_report(report, Path(config.out_dir))
    return report


def records_to_jsonl(records: list[EpisodeRecord]) -> str:
    return "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for r in records)


def write_report(report: AggregateReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "records.jsonl").write_text(records_to_jsonl(report.records), encoding="utf-8")
    doc = fields_dict(report)
    del doc["records"]  # written to records.jsonl
    (out_dir / "report.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / "report.txt").write_text(report.summary_table(), encoding="utf-8")


def load_records_jsonl(text: str) -> list[EpisodeRecord]:
    """Parse records written by :func:`records_to_jsonl`, rejecting loose types.

    The keys are ``EpisodeRecord``'s fields, read by
    :func:`~objsearch.world.parse_fields`, so an absent ``scenario``, ``seed``
    or ``shortest`` takes the field's default; a null ``shortest`` is inf too.
    """
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"records line {lineno}"
        doc = parse_json(line, where)
        records.append(parse_fields(EpisodeRecord, doc, where))
    if not records:
        raise SchemaError("records file contains no episodes")
    return records


def score_records(records: list[EpisodeRecord], preset: str) -> AggregateReport:
    return AggregateReport(
        preset=preset,
        episodes=len(records),
        sr=success_rate(records),
        spl=spl(records),
        mean_waypoints=mean_waypoints(records),
        spl_faults=sum(map(spl_fault, records)),
        records=records,
    )


def run_config_from_dict(doc: dict) -> RunConfig:
    """Parse a batch-config JSON document, with the scenario parser's strictness.

    The keys are ``RunConfig``'s fields, read by
    :func:`~objsearch.world.parse_fields`; ``out_dir`` and ``scenario_paths``
    declare the keys ``out`` and ``scenarios``.  The ``suite`` section is a
    suite document as ``objsearch gen-suite`` reads it
    (:func:`~objsearch.suitegen.suite_from_dict`).  Two rules span fields:
    ``episodes`` defaults to the number of scenario files (or 1), and the
    suite document's ``seed`` stands for ``suite_seed``."""
    if not isinstance(doc, dict):
        raise SchemaError("batch: expected a JSON object")
    scenarios = doc.get("scenarios")
    doc = {"episodes": len(scenarios) if isinstance(scenarios, list) and scenarios else 1, **doc}
    suite = doc.get("suite")
    if isinstance(suite, dict) and "seed" in suite:
        if "suite_seed" in doc:
            raise SchemaError("batch: suite.seed and suite_seed both given; set one")
        doc["suite_seed"] = suite["seed"]
    return parse_fields(RunConfig, doc, "batch")
