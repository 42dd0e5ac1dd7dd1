"""Command-line interface.

Exit codes: 0 on success, 1 when a single ``run`` episode ends in failure
(that is a reported outcome, not an error), 2 on configuration or asset
problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .assets import AssetContext
from .batch import (
    context_for_preset,
    apply_preset,
    load_records_jsonl,
    run_batch,
    run_config_from_dict,
    score_records,
    write_report,
    PRESETS,
)
from .episode import CandidatePatch, run_episode, trace_to_jsonl
from .errors import ObjSearchError, SchemaError
from .suitegen import generate_suite, suite_params_from_dict
from .world import ScenarioSpec, _integer, load_scenario_file, serialize_scenario


def _interactive_confirm(cand: CandidatePatch, scenario: ScenarioSpec) -> bool:
    prompt = (
        f"Candidate patch (score {cand.score:.1f}) at "
        f"({cand.position[0]:.2f}, {cand.position[1]:.2f}) -- is this the target? [y/N] "
    )
    answer = input(prompt)
    return answer.strip().lower() in ("y", "yes")


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario_file(args.scenario)
    scenario = apply_preset(scenario, args.preset)
    ctx = context_for_preset(args.preset, args.assets)
    confirm = _interactive_confirm if args.interactive else None
    result = run_episode(scenario, ctx=ctx, seed=args.seed, confirm_fn=confirm)
    if args.trace:
        Path(args.trace).write_text(trace_to_jsonl(result.trace), encoding="utf-8")
    status = "success" if result.success else "failure"
    print(
        f"{status}: traveled {result.traveled:.2f} m, "
        f"shortest {result.shortest:.2f} m, "
        f"waypoints {result.waypoints_visited}"
    )
    return 0 if result.success else 1


def _load_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def _cmd_batch(args: argparse.Namespace) -> int:
    config = run_config_from_dict(_load_json(args.config))
    report = run_batch(config, asset_root=args.assets)
    print(report.summary_table(), end="")
    return 0


def _cmd_gen_suite(args: argparse.Namespace) -> int:
    doc = _load_json(args.params)
    if not isinstance(doc, dict):
        raise SchemaError("suite: expected an object")
    seed = _integer(doc.pop("seed", 0), "suite.seed")
    params = suite_params_from_dict(doc)
    ctx = AssetContext.load(root=args.assets)
    scenarios = generate_suite(params, seed, ctx=ctx)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, scenario in enumerate(scenarios):
        (out / f"suite-{i:04d}.json").write_text(
            serialize_scenario(scenario) + "\n", encoding="utf-8"
        )
    print(f"wrote {len(scenarios)} scenarios to {out}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    with open(args.records, "r", encoding="utf-8") as fh:
        records = load_records_jsonl(fh.read())
    report = score_records(records)
    if args.report:
        write_report(report, Path(args.report))
    print(report.summary_table(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="objsearch",
        description="Grid-world benchmark for landmark-guided active object search",
    )
    parser.add_argument(
        "--assets",
        type=Path,
        default=None,
        help="override the bundled asset directory (also: OBJSEARCH_ASSETS)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("--preset", choices=PRESETS, default="full")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--trace", type=Path, default=None, help="write the episode trace (JSONL)")
    p_run.add_argument(
        "--interactive",
        action="store_true",
        help="ask on stdin instead of the automated confirmation rule",
    )
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run a batch config (JSON)")
    p_batch.add_argument("config", type=Path)
    p_batch.set_defaults(func=_cmd_batch)

    p_gen = sub.add_parser("gen-suite", help="generate a scenario suite")
    p_gen.add_argument("params", type=Path, help="generator params (JSON, may include seed)")
    p_gen.add_argument("--out", type=Path, required=True)
    p_gen.set_defaults(func=_cmd_gen_suite)

    p_score = sub.add_parser("score", help="aggregate per-episode records")
    p_score.add_argument("records", type=Path)
    p_score.add_argument("--report", type=Path, default=None, help="write report files here")
    p_score.set_defaults(func=_cmd_score)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ObjSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
