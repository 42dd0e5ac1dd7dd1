import json

import pytest

from objsearch.batch import RunConfig, run_config_from_dict
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

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{", encoding="utf-8")
        assert main(["batch", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err
