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
from .metrics import mean_waypoints, spl, success_rate
from .suitegen import SuiteParams, generate_suite, suite_params_from_dict
from .world import (
    ScenarioSpec,
    _boolean,
    _integer,
    _number,
    _reject_unknown,
    _require,
    _string,
    _strings,
    load_scenario_file,
)

PRESETS = ("full", "nearest_point", "no_cooccurrence", "no_uncertainty", "web_table")


@dataclass(frozen=True)
class RunConfig:
    """What to run: scenarios (files or a generated suite), preset, seeds."""

    preset: str = "full"
    episodes: int = 1
    seed_base: int = 0
    parallelism: int = 1
    out_dir: Path | None = None
    scenario_paths: tuple[Path, ...] = ()
    suite: SuiteParams | None = None
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


@dataclass
class EpisodeRecord:
    episode: int
    scenario: str
    seed: int
    success: bool
    traveled: float
    shortest: float
    waypoints_visited: int

    def to_json_dict(self) -> dict:
        doc = dataclasses.asdict(self)
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
    records: list[EpisodeRecord] = field(default_factory=list)

    def summary_table(self) -> str:
        header = f"{'preset':<16}{'SPL':>8}{'SR(%)':>8}{'#':>7}"
        row = (
            f"{self.preset:<16}{self.spl:>8.4f}{self.sr:>8.2f}"
            f"{self.mean_waypoints:>7.2f}"
        )
        return header + "\n" + row + "\n"


def apply_preset(scenario: ScenarioSpec, preset: str) -> ScenarioSpec:
    """Rewrite hyperparameters for an ablation preset (table swaps are handled
    at asset-load time)."""
    hp = scenario.hyperparams
    if preset == "nearest_point":
        hp = dataclasses.replace(hp, lambda1=0.0, lambda2=0.0)
    elif preset == "no_cooccurrence":
        hp = dataclasses.replace(hp, lambda1=0.0)
    elif preset == "no_uncertainty":
        hp = dataclasses.replace(hp, lambda2=0.0)
    elif preset not in ("full", "web_table"):
        raise DomainError(f"unknown preset {preset!r}")
    return dataclasses.replace(scenario, hyperparams=hp)


def context_for_preset(preset: str, asset_root: Path | None = None) -> AssetContext:
    table = WEB_TABLE_FILE if preset == "web_table" else GENERATION_TABLE_FILE
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
    surface before any episode runs.  Results are sorted by episode index,
    which makes serial and parallel executions byte-identical.
    """
    ctx = context_for_preset(config.preset, asset_root)
    if config.suite is not None:
        scenarios = generate_suite(config.suite, config.suite_seed, ctx=ctx)
        if config.episodes > len(scenarios):
            raise DomainError(
                f"episodes={config.episodes} exceeds suite size {len(scenarios)}"
            )
        scenarios = scenarios[: config.episodes]
        labels = [f"suite-{i:04d}" for i in range(len(scenarios))]
    else:
        if config.episodes != len(config.scenario_paths):
            raise DomainError(
                "episodes must equal the number of scenario paths "
                f"({config.episodes} != {len(config.scenario_paths)})"
            )
        scenarios = [load_scenario_file(p) for p in config.scenario_paths]
        labels = [str(p) for p in config.scenario_paths]

    tasks = [
        (i, labels[i], apply_preset(s, config.preset), config.seed_base + i, ctx)
        for i, s in enumerate(scenarios)
    ]
    if config.parallelism == 1 or len(tasks) == 1:
        records = [_run_one(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            records = list(pool.map(_run_one, tasks))
    records.sort(key=lambda r: r.episode)

    report = score_records(records, config.preset)
    if config.out_dir is not None:
        write_report(report, Path(config.out_dir))
    return report


def records_to_jsonl(records: list[EpisodeRecord]) -> str:
    return "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for r in records)


def write_report(report: AggregateReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "records.jsonl").write_text(records_to_jsonl(report.records), encoding="utf-8")
    doc = {
        "preset": report.preset,
        "episodes": report.episodes,
        "sr": report.sr,
        "spl": report.spl,
        "mean_waypoints": report.mean_waypoints,
    }
    (out_dir / "report.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / "report.txt").write_text(report.summary_table(), encoding="utf-8")


_RECORD_KEYS = {f.name for f in dataclasses.fields(EpisodeRecord)}


def load_records_jsonl(text: str) -> list[EpisodeRecord]:
    """Parse records written by :func:`records_to_jsonl`, rejecting loose types."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"records line {lineno}"
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{where}: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise SchemaError(f"{where}: expected an object")
        _reject_unknown(doc, _RECORD_KEYS, where)
        shortest = doc.get("shortest")
        records.append(
            EpisodeRecord(
                episode=_integer(_require(doc, "episode", where), f"{where}.episode"),
                scenario=_string(doc.get("scenario", ""), f"{where}.scenario"),
                seed=_integer(doc.get("seed", 0), f"{where}.seed"),
                success=_boolean(_require(doc, "success", where), f"{where}.success"),
                traveled=_number(_require(doc, "traveled", where), f"{where}.traveled"),
                shortest=math.inf if shortest is None else _number(shortest, f"{where}.shortest"),
                waypoints_visited=_integer(
                    _require(doc, "waypoints_visited", where), f"{where}.waypoints_visited"
                ),
            )
        )
    if not records:
        raise SchemaError("records file contains no episodes")
    return records


def score_records(records: list[EpisodeRecord], preset: str = "scored") -> AggregateReport:
    return AggregateReport(
        preset=preset,
        episodes=len(records),
        sr=success_rate(records),
        spl=spl(records),
        mean_waypoints=mean_waypoints(records),
        records=records,
    )


def run_config_from_dict(doc: dict) -> RunConfig:
    """Parse a batch-config JSON document, with the scenario parser's strictness."""
    if not isinstance(doc, dict):
        raise SchemaError("batch: expected a JSON object")
    allowed = {
        "preset",
        "episodes",
        "seed_base",
        "parallelism",
        "out",
        "scenarios",
        "suite",
        "suite_seed",
    }
    _reject_unknown(doc, allowed, "batch")
    paths = tuple(Path(p) for p in _strings(doc.get("scenarios", []), "batch.scenarios"))
    return RunConfig(
        preset=_string(doc.get("preset", "full"), "batch.preset"),
        episodes=_integer(doc.get("episodes", len(paths) or 1), "batch.episodes"),
        seed_base=_integer(doc.get("seed_base", 0), "batch.seed_base"),
        parallelism=_integer(doc.get("parallelism", 1), "batch.parallelism"),
        out_dir=Path(_string(doc["out"], "batch.out")) if "out" in doc else None,
        scenario_paths=paths,
        suite=suite_params_from_dict(doc["suite"]) if "suite" in doc else None,
        suite_seed=_integer(doc.get("suite_seed", 0), "batch.suite_seed"),
    )
