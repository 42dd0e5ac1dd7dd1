import dataclasses
import json
import math

import pytest

from objsearch import batch, episode
from objsearch.batch import (
    PRESETS,
    EpisodeRecord,
    RunConfig,
    apply_preset,
    context_for_preset,
    load_records_jsonl,
    records_to_jsonl,
    run_batch,
    run_config_from_dict,
)
from objsearch.cli import build_parser, main
from objsearch.episode import run_episode, trace_to_jsonl
from objsearch.errors import DomainError, SchemaError
from objsearch.knowledge import cooccurrence
from objsearch.planning import ground_truth_shortest, traversable_mask
from objsearch.suitegen import SuiteParams, generate_suite, suite_params_from_dict
from objsearch.world import serialize_scenario
from util import box_scenario

SUITE = {"count": 1}


class TestRunConfigParsing:
    def test_defaults(self):
        config = run_config_from_dict({"suite": SUITE})
        assert config == RunConfig(suite=SuiteParams(count=1))

    def test_scenario_paths_set_episode_count(self):
        config = run_config_from_dict({"scenarios": ["a.json", "b.json"], "out": "out"})
        assert [str(p) for p in config.scenario_paths] == ["a.json", "b.json"]
        assert config.episodes == 2
        assert str(config.out_dir) == "out"

    @pytest.mark.parametrize(
        "doc",
        [
            {"suite": SUITE, "episodes": 2.7},
            {"suite": SUITE, "episodes": True},
            {"suite": SUITE, "parallelism": "2"},
            {"suite": SUITE, "preset": 1},
            {"suite": SUITE, "out": 5},
            {"suite": SUITE, "suite_seed": 0.5},
            {"suite": {**SUITE, "seed": 0.5}},
            {"suite": {**SUITE, "seed": None}},
            {"scenarios": "ab"},
            {"scenarios": ["a.json", 3]},
            {"suite": {"count": "2"}},
            {"suite": SUITE, "bogus": 1},
            ["not", "an", "object"],
        ],
    )
    def test_bad_values_rejected(self, doc):
        with pytest.raises(SchemaError):
            run_config_from_dict(doc)

    @pytest.mark.parametrize(
        "doc",
        [{"suite": SUITE, "seed_base": -3}, {"suite": SUITE, "suite_seed": -3},
         {"suite": {**SUITE, "seed": -3}}],
        ids=["seed_base", "suite_seed", "suite.seed"],
    )
    def test_negative_seeds_rejected(self, doc):
        with pytest.raises(DomainError):
            run_config_from_dict(doc)

    def test_episodes_beyond_the_suite_rejected(self):
        with pytest.raises(DomainError, match="episodes=3 exceeds suite size 2"):
            run_config_from_dict({"suite": {"count": 2}, "episodes": 3})

    @pytest.mark.parametrize("episodes", [1, 3])
    def test_episodes_must_match_scenario_paths(self, episodes):
        with pytest.raises(DomainError, match=rf"scenario paths \({episodes} != 2\)"):
            run_config_from_dict({"scenarios": ["a.json", "b.json"], "episodes": episodes})

    def test_suite_document_seed_is_the_suite_seed(self):
        config = run_config_from_dict({"suite": {**SUITE, "seed": 4}})
        assert config == run_config_from_dict({"suite": SUITE, "suite_seed": 4})
        assert config.suite_seed == 4

    def test_both_suite_seeds_rejected(self):
        with pytest.raises(SchemaError) as err:
            run_config_from_dict({"suite": {**SUITE, "seed": 4}, "suite_seed": 4})
        assert "suite.seed" in str(err.value) and "suite_seed" in str(err.value)


def test_suite_batch_generates_only_the_episodes_it_runs(monkeypatch, ctx):
    shape = SuiteParams(count=3, rooms=1, landmarks=3, map_side=8.0)
    generated = []

    def generate(params, seed, ctx):
        generated.append(generate_suite(params, seed, ctx=ctx))
        return generated[-1]

    monkeypatch.setattr(batch, "generate_suite", generate)
    report = run_batch(RunConfig(episodes=2, suite=shape, suite_seed=1))
    assert len(generated) == 1 and len(report.records) == 2
    assert [serialize_scenario(s) for s in generated[0]] == [
        serialize_scenario(s) for s in generate_suite(shape, 1, ctx=ctx)[:2]
    ]


def test_pool_gets_no_more_workers_than_episodes(monkeypatch):
    # An in-process stand-in for the pool, which would start every worker
    # it is asked for at its first submit.
    started = []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(batch, "ProcessPoolExecutor", Pool)
    shape = SuiteParams(count=2, rooms=1, landmarks=3, map_side=8.0)
    serial = run_batch(RunConfig(episodes=2, suite=shape)).records
    assert started == []
    assert run_batch(RunConfig(episodes=2, suite=shape, parallelism=8)).records == serial
    assert started == [2]
    run_batch(RunConfig(episodes=1, suite=shape, parallelism=8))
    assert started == [2]


class TestSuiteParamsParsing:
    def test_lists_become_tuples_and_sections_parse(self):
        params = suite_params_from_dict(
            {"count": 2, "targets": ["book", "cup"], "sensor": {"clutter": 2, "p_miss": 0}}
        )
        assert params.targets == ("book", "cup")
        assert params.sensor == {"clutter": 2, "p_miss": 0.0}

    @pytest.mark.parametrize(
        "doc",
        [
            {"count": "2"},
            {"map_side": "12"},
            {"targets": "book"},
            {"placement": "uniform"},
            {"placement_weights": {"desk": "heavy"}},
            {"sensor": {"bogus": 1}},
            {"hyperparams": {"scan_headings": 2.5}},
            {"planner": [1]},
            {"resolution": 0.0},
            {"bogus": 1},
            {"placement_power": -1.0},
            {"placement_power": math.inf},
            {"placement_power": math.nan},
            {"placement_weights": {"desk": 1, "bed": -0.5}},
            {"placement_weights": {"desk": math.inf}},
            json.loads('{"placement_weights": {"desk": NaN}}'),
            json.loads('{"placement_power": Infinity}'),
        ],
    )
    def test_bad_values_rejected(self, doc):
        with pytest.raises(SchemaError):
            suite_params_from_dict(doc)

    def test_negative_seed_rejected(self, ctx):
        with pytest.raises(DomainError):
            generate_suite(SuiteParams(count=1), -1, ctx=ctx)

    @pytest.mark.parametrize("doc", [
        {"count": 1, "resolution": math.inf},
        {"count": 1, "resolution": math.nan},
        json.loads('{"count": 1, "resolution": 1e400}'),
    ])
    def test_non_finite_resolution_rejected(self, doc):
        with pytest.raises(SchemaError, match="suite.resolution: must be positive and finite"):
            suite_params_from_dict(doc)

    @pytest.mark.parametrize("resolution", [100.0, 4.0, 0.01, 1e-4])
    def test_out_of_range_resolution_rejected(self, resolution):
        # Rejected as the params are built, before any map is allocated.
        with pytest.raises(SchemaError) as err:
            SuiteParams(count=1, resolution=resolution)
        assert str(err.value) == "suite.resolution: must be in 0.02..0.5 meters"

    @pytest.mark.parametrize("resolution", [0.02, 0.5])
    def test_resolution_limits_are_inclusive(self, resolution):
        assert suite_params_from_dict({"resolution": resolution}).resolution == resolution

    @pytest.mark.parametrize(
        "doc",
        [
            {"count": 1, "targets": []},
            {"count": 1, "known_landmarks": 1, "known_pool": []},
            {"count": 1, "landmarks": 4, "known_landmarks": 2, "unknown_pool": []},
        ],
    )
    def test_empty_name_pools_rejected(self, doc):
        with pytest.raises(SchemaError, match="must not be empty|at least one"):
            suite_params_from_dict(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"count": 1, "known_landmarks": 0, "known_pool": []},
            {"count": 1, "landmarks": 3, "known_landmarks": 3, "unknown_pool": []},
        ],
    )
    def test_unused_empty_pool_allowed(self, doc):
        suite_params_from_dict(doc)


RECORD = {
    "episode": 0, "scenario": "s.json", "seed": 3, "success": True,
    "traveled": 4.5, "shortest": 4.0, "waypoints_visited": 2,
}


class TestRecordsParsing:
    def test_roundtrip(self):
        records = [
            EpisodeRecord(episode=0, scenario="a.json", seed=3, success=True, traveled=4.5,
                          shortest=4.0, waypoints_visited=2),
            EpisodeRecord(episode=1, scenario="b.json", seed=4, success=False, traveled=7.25,
                          shortest=float("inf"), waypoints_visited=0),
        ]
        assert load_records_jsonl(records_to_jsonl(records)) == records

    @pytest.mark.parametrize(
        "change",
        [
            {"success": "false"},
            {"success": 1},
            {"episode": "0"},
            {"episode": 0.0},
            {"seed": 3.5},
            {"scenario": 7},
            {"traveled": "4.5"},
            {"shortest": "4.0"},
            {"waypoints_visited": 2.0},
            {"bogus": 1},
        ],
    )
    def test_loose_values_rejected(self, change):
        with pytest.raises(SchemaError):
            load_records_jsonl(json.dumps({**RECORD, **change}))

    @pytest.mark.parametrize("key", ["episode", "success", "traveled", "waypoints_visited"])
    def test_missing_key_rejected(self, key):
        doc = {k: v for k, v in RECORD.items() if k != key}
        with pytest.raises(SchemaError, match=key):
            load_records_jsonl(json.dumps(doc))

    def test_non_object_line_rejected(self):
        with pytest.raises(SchemaError, match="line 2"):
            load_records_jsonl(json.dumps(RECORD) + "\n[1, 2]\n")


class TestCliExitCodes:
    @pytest.mark.parametrize(
        "command, doc",
        [
            ("batch", {"suite": SUITE, "seed_base": -3}),
            ("batch", {"suite": {"count": "2"}}),
            ("batch", {"suite": SUITE, "out": 5}),
            ("gen-suite", {"count": "2"}),
            ("gen-suite", {"count": 1, "seed": -1}),
            ("gen-suite", {"count": 1, "seed": "7"}),
            ("gen-suite", [1]),
            ("gen-suite", {"count": 1, "sensor": {"lidar_rays": 0}}),
            ("gen-suite", {"count": 1, "map_side": 8.0, "resolution": 100.0}),
        ],
    )
    def test_config_errors_exit_2(self, tmp_path, capsys, command, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, str(path)]
        if command == "gen-suite":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_robot_that_cannot_fit_exits_2(self, tmp_path, capsys, no_inflation):
        # Rejected as the documents are read, before any map is inflated.
        doc = json.loads(serialize_scenario(box_scenario()))
        doc["planner"] = {"robot_radius": 1e6}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path), "--trace", str(tmp_path / "t.jsonl")]) == 2
        assert "planner.robot_radius" in capsys.readouterr().err
        path.write_text(json.dumps({"count": 1, "planner": {"robot_radius": 1e6}}), encoding="utf-8")
        assert main(["gen-suite", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "suite.planner.robot_radius" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "t.jsonl").exists()

    def test_negative_run_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(serialize_scenario(box_scenario()), encoding="utf-8")
        assert main(["run", str(path), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_nan_start_exits_2(self, tmp_path, capsys):
        doc = json.loads(serialize_scenario(box_scenario()))
        doc["start"][2] = math.nan
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert "scenario.start" in capsys.readouterr().err

    def test_score_string_success_exits_2(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps({**RECORD, "success": "false"}) + "\n", encoding="utf-8")
        assert main(["score", str(path)]) == 2
        assert "success" in capsys.readouterr().err

    def test_empty_target_pool_exits_2(self, tmp_path, capsys):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"count": 1, "targets": []}), encoding="utf-8")
        assert main(["gen-suite", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "suite.targets" in capsys.readouterr().err

    def test_score_counts_a_success_without_shortest_path(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        faulty = {**RECORD, "episode": 1, "shortest": None}
        records.write_text(json.dumps(RECORD) + "\n" + json.dumps(faulty) + "\n", encoding="utf-8")
        assert main(["score", str(records), "--report", str(tmp_path / "report")]) == 0
        assert "SPL faults: 1 " in capsys.readouterr().out
        doc = json.loads((tmp_path / "report" / "report.json").read_text(encoding="utf-8"))
        assert doc["spl_faults"] == 1
        assert doc["spl"] == pytest.approx(4.0 / 4.5 / 2)

    @pytest.mark.parametrize("command", ["run", "batch"])
    def test_error_raised_mid_episode_exits_3(self, tmp_path, capsys, monkeypatch, command):
        """An error that escapes the episode loop after its inputs were
        accepted is a fault in the program, not in a document: it exits 3,
        while a bad document still exits 2."""
        def fault(state):
            raise DomainError("injected loop fault")

        monkeypatch.setattr(episode, "_search", fault)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(serialize_scenario(box_scenario()), encoding="utf-8")
        config = tmp_path / "batch.json"
        config.write_text(json.dumps({"scenarios": [str(scenario)]}), encoding="utf-8")
        argv = [command, str(scenario if command == "run" else config)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: episode (seed ") and "injected loop fault" in err
        scenario.write_text("{", encoding="utf-8")
        assert main(argv) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{", encoding="utf-8")
        assert main(["batch", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestPresets:
    OVERRIDES = {
        "full": {},
        "nearest_point": {"lambda1": 0.0, "lambda2": 0.0},
        "no_cooccurrence": {"lambda1": 0.0},
        "no_uncertainty": {"lambda2": 0.0},
        "web_table": {},
    }

    def test_every_preset_is_listed_and_offered_by_the_cli(self):
        assert PRESETS == tuple(self.OVERRIDES)
        (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
        (preset,) = [a for a in commands.choices["run"]._actions if a.dest == "preset"]
        assert tuple(preset.choices) == PRESETS

    @pytest.mark.parametrize("preset", PRESETS)
    def test_hyperparameter_overrides(self, preset):
        scenario = box_scenario()
        assert scenario.hyperparams.lambda1 != 0.0 and scenario.hyperparams.lambda2 != 0.0
        got = apply_preset(scenario, preset)
        want = dataclasses.replace(scenario.hyperparams, **self.OVERRIDES[preset])
        assert got.hyperparams == want
        assert dataclasses.replace(got, hyperparams=scenario.hyperparams) == scenario

    def test_web_table_loads_the_web_table(self):
        full, web = context_for_preset("full", None), context_for_preset("web_table", None)
        assert cooccurrence("cup", "desk", full.generations, full.words) == 1.0
        assert cooccurrence("cup", "desk", web.generations, web.words) == pytest.approx(
            5e-7, rel=0.1
        )

    def test_unknown_preset_rejected(self):
        with pytest.raises(DomainError, match="unknown preset 'bogus'"):
            apply_preset(box_scenario(), "bogus")
        with pytest.raises(DomainError, match="unknown preset 'bogus'"):
            context_for_preset("bogus", None)


class TestCliHappyPath:
    # 7 m is the smallest whole-metre travel budget at which this small suite
    # ends in both outcomes.
    SUITE_DOC = {"count": 4, "rooms": 2, "landmarks": 3, "map_side": 8.0,
                 "hyperparams": {"fail_distance": 7.0}, "seed": 0}

    def test_gen_suite_batch_score_and_run(self, tmp_path, capsys):
        params = tmp_path / "suite.json"
        params.write_text(json.dumps(self.SUITE_DOC), encoding="utf-8")
        suite_dir = tmp_path / "suite"
        assert main(["gen-suite", str(params), "--out", str(suite_dir)]) == 0
        paths = sorted(suite_dir.glob("suite-*.json"))
        assert len(paths) == 4

        out = tmp_path / "out"
        config = tmp_path / "batch.json"
        config.write_text(json.dumps({"scenarios": [str(p) for p in paths], "out": str(out)}),
                          encoding="utf-8")
        assert main(["batch", str(config)]) == 0
        assert sorted(f.name for f in out.iterdir()) == ["records.jsonl", "report.json",
                                                         "report.txt"]

        # Scoring the written records reproduces the batch report; only the
        # preset name differs, because records do not carry it.
        scored = tmp_path / "scored"
        assert main(["score", str(out / "records.jsonl"), "--report", str(scored)]) == 0
        assert (scored / "records.jsonl").read_bytes() == (out / "records.jsonl").read_bytes()
        batch_report = (out / "report.json").read_text(encoding="utf-8")
        assert '"preset": "full"' in batch_report
        assert (scored / "report.json").read_text(encoding="utf-8") == batch_report.replace(
            '"preset": "full"', '"preset": "scored"'
        )
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["score", "--help"])
        assert "Records carry no preset, so the report is labelled 'scored'." in " ".join(
            capsys.readouterr().out.split()
        )

        records = load_records_jsonl((out / "records.jsonl").read_text(encoding="utf-8"))
        assert {r.success for r in records} == {True, False}

        # The same suite document, seed included, is a batch config's suite:
        # the records differ from those of the written files only in their labels.
        suite_out = tmp_path / "suite-out"
        config.write_text(json.dumps({"suite": self.SUITE_DOC, "episodes": 4,
                                      "out": str(suite_out)}), encoding="utf-8")
        assert main(["batch", str(config)]) == 0
        assert capsys.readouterr().out.split()[:4] == ["preset", "SPL", "SR(%)", "waypoints"]
        from_suite = load_records_jsonl((suite_out / "records.jsonl").read_text(encoding="utf-8"))
        assert [dataclasses.replace(r, scenario="") for r in from_suite] == [
            dataclasses.replace(r, scenario="") for r in records
        ]
        for record, path in zip(records, paths):
            code = main(["run", str(path), "--seed", str(record.seed)])
            status = capsys.readouterr().out.split(":")[0]
            assert (code, status) == ((0, "success") if record.success else (1, "failure"))


class TestPresetRun:
    """``run --preset`` runs the episode its preset defines: the scenario's
    hyperparameters rewritten and the preset's generation table loaded."""

    @pytest.mark.parametrize("preset", ["web_table", "nearest_point"])
    def test_trace_is_the_presets_episode(self, preset, tmp_path, ctx):
        scenario = generate_suite(SuiteParams(count=1, rooms=3, landmarks=6, map_side=14.0), 0,
                                  ctx=ctx)[0]
        path = tmp_path / "scenario.json"
        path.write_text(serialize_scenario(scenario), encoding="utf-8")
        trace = tmp_path / "t.jsonl"
        code = main(["run", str(path), "--preset", preset, "--trace", str(trace)])
        result = run_episode(apply_preset(scenario, preset), ctx=context_for_preset(preset, None))
        assert code == (0 if result.success else 1)
        assert trace.read_bytes() == trace_to_jsonl(result.trace).encode("utf-8")
        if preset == "web_table":  # the table is read: this episode's trace shows it
            assert trace_to_jsonl(run_episode(scenario, ctx=ctx).trace) != trace_to_jsonl(
                result.trace)


class TestInteractiveRun:
    """``run --interactive`` asks on stdin; no answer (end of input) is the
    prompt's default, N."""

    def run(self, tmp_path, monkeypatch, answer):
        def ask(prompt):
            if answer is None:
                raise EOFError
            return answer

        monkeypatch.setattr("builtins.input", ask)
        path = tmp_path / "scenario.json"
        path.write_text(serialize_scenario(box_scenario()), encoding="utf-8")
        trace = tmp_path / "t.jsonl"
        code = main(["run", str(path), "--interactive", "--trace", str(trace)])
        return code, [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]

    def test_end_of_input_answers_no(self, tmp_path, monkeypatch):
        code, trace = self.run(tmp_path, monkeypatch, None)
        confirms = [event for event in trace if event["event"] == "confirm"]
        assert code == 1 and confirms
        assert not any(ok for event in confirms for ok in event["results"])

    def test_yes_confirms_the_target(self, tmp_path, monkeypatch):
        code, trace = self.run(tmp_path, monkeypatch, "y")
        assert code == 0 and trace[-1]["success"]


class TestStartInsideInflatedWalls:
    # With a 0.45 m robot, scenarios 5, 15 and 20 of this suite start inside
    # the inflated walls.  The episode's robot drives out of its own disk, so
    # the SPL ground truth must too, or a success has no finite shortest path.
    SHAPE = SuiteParams(count=30, rooms=4, landmarks=6, map_side=14.0)

    def test_shortest_is_finite_and_the_batch_completes(self, tmp_path, ctx):
        suite = generate_suite(self.SHAPE, 5, ctx=ctx)
        for index, want in ((5, 8.83), (15, 17.14), (20, 10.06)):
            scenario = suite[index]
            planner = dataclasses.replace(scenario.planner, robot_radius=0.45)
            scenario = dataclasses.replace(scenario, planner=planner)
            ix, iy = scenario.map.world_to_cell(scenario.start.x, scenario.start.y)
            assert not traversable_mask(scenario.map, 0.45)[iy, ix]
            assert ground_truth_shortest(scenario) == pytest.approx(want, abs=0.005)
            path = tmp_path / f"suite-{index:04d}.json"
            path.write_text(serialize_scenario(scenario), encoding="utf-8")
            report = run_batch(RunConfig(scenario_paths=(path,), seed_base=index))
            assert math.isfinite(report.records[0].shortest)
