import json

import pytest

from objsearch.batch import (
    EpisodeRecord,
    RunConfig,
    load_records_jsonl,
    records_to_jsonl,
    run_config_from_dict,
)
from objsearch.cli import main
from objsearch.errors import DomainError, SchemaError
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

    @pytest.mark.parametrize("key", ["seed_base", "suite_seed"])
    def test_negative_seeds_rejected(self, key):
        with pytest.raises(DomainError):
            run_config_from_dict({"suite": SUITE, key: -3})


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
            {"placement": 3},
            {"placement_weights": {"desk": "heavy"}},
            {"sensor": {"bogus": 1}},
            {"hyperparams": {"scan_headings": 2.5}},
            {"planner": [1]},
            {"resolution": 0.0},
            {"bogus": 1},
        ],
    )
    def test_bad_values_rejected(self, doc):
        with pytest.raises(SchemaError):
            suite_params_from_dict(doc)

    def test_negative_seed_rejected(self, ctx):
        with pytest.raises(DomainError):
            generate_suite(SuiteParams(count=1), -1, ctx=ctx)

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
            EpisodeRecord(0, "a.json", 3, True, 4.5, 4.0, 2),
            EpisodeRecord(1, "b.json", 4, False, 7.25, float("inf"), 0),
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

    def test_negative_run_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(serialize_scenario(box_scenario()), encoding="utf-8")
        assert main(["run", str(path), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

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

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{", encoding="utf-8")
        assert main(["batch", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestCliHappyPath:
    # A travel budget of 8 m makes this small suite end in both outcomes.
    SUITE_DOC = {"count": 4, "rooms": 2, "landmarks": 3, "map_side": 8.0,
                 "hyperparams": {"fail_distance": 8.0}, "seed": 0}

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

        records = load_records_jsonl((out / "records.jsonl").read_text(encoding="utf-8"))
        assert {r.success for r in records} == {True, False}
        for record, path in zip(records, paths):
            code = main(["run", str(path), "--seed", str(record.seed)])
            status = capsys.readouterr().out.split(":")[0]
            assert (code, status) == ((0, "success") if record.success else (1, "failure"))
