"""Every package module reads each name it imports (``__init__`` re-exports),
and the package's public names and settable values are the pinned lists."""

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import pytest

import objsearch
from objsearch.batch import RunConfig
from objsearch.cli import build_parser
from objsearch.suitegen import SuiteParams
from objsearch.world import HyperParams, PlannerParams, SensorParams

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "objsearch"
TRACER = Path(__file__).resolve().parents[1] / "objbench" / "tracer.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_modules_are_found():
    assert {"world.py", "batch.py", "suitegen.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert not unused, f"{path.name}: imported but never read (name: line) {unused}"


def test_no_dead_helpers():
    """Every module-level function and class is read or imported somewhere
    in the package; one that nothing uses any more is deleted."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    defined = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    assert {"world.raycast_batch", "sensing.lidar_update"} <= defined
    assert sorted(name for name in defined if name.split(".")[1] not in used) == []


PUBLIC_NAMES = [
    "AggregateReport", "AssetContext", "CameraObservation", "DetectionRecord",
    "EpisodeResult", "Frontier", "GenerationTable", "GridMap", "HyperParams", "LandmarkSpec",
    "ObjectSpec", "Path", "Pose", "RunConfig", "ScenarioSpec", "SuiteParams",
    "TextEmbeddingStore", "Viewpoint", "WordVectorStore", "camera_observe", "cooccurrence",
    "generate_suite", "generate_viewpoints", "iou_ioa", "landmark_probability", "lidar_update",
    "load_scenario", "matching_score", "nearest_frontier", "phrase_vector", "plan_path",
    "plan_waypoints", "run_batch", "run_episode", "semantic_uncertainty", "serialize_scenario",
    "spl", "viewpoint_cost",
]


def test_public_names_are_pinned():
    """A name added to or dropped from the API changes this list on purpose."""
    names = sorted(
        name for name, value in vars(objsearch).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert len(names) == 38


# Everything a user or caller can set: config fields, CLI options,
# environment variables read in the package, and defaulted parameters.
SETTABLE_VALUES = {
    "config fields": [
        "HyperParams.lambda1", "HyperParams.lambda2", "HyperParams.t_c", "HyperParams.t_u",
        "HyperParams.m_t", "HyperParams.temperature", "HyperParams.fail_distance",
        "HyperParams.fov", "HyperParams.cam_range", "HyperParams.scan_headings",
        "HyperParams.pan_views",
        "SensorParams.lidar_rays", "SensorParams.lidar_range", "SensorParams.sigma_emb",
        "SensorParams.p_miss", "SensorParams.clutter",
        "PlannerParams.view_radius", "PlannerParams.view_directions",
        "PlannerParams.min_frontier_cells", "PlannerParams.robot_radius",
        "PlannerParams.step_interval",
        "SuiteParams.count", "SuiteParams.rooms", "SuiteParams.landmarks",
        "SuiteParams.map_side", "SuiteParams.resolution", "SuiteParams.known_landmarks",
        "SuiteParams.distractors", "SuiteParams.targets", "SuiteParams.known_pool",
        "SuiteParams.unknown_pool", "SuiteParams.placement_power",
        "SuiteParams.hyperparams", "SuiteParams.sensor", "SuiteParams.planner",
        "RunConfig.preset", "RunConfig.episodes", "RunConfig.seed_base",
        "RunConfig.parallelism", "RunConfig.out_dir", "RunConfig.scenario_paths",
        "RunConfig.suite", "RunConfig.suite_seed",
    ],
    "CLI options": [
        "--assets", "--preset", "--seed", "--trace", "--interactive", "--out", "--report",
    ],
    "environment variables": [],
    "defaulted parameters": [
        "assets.load.root", "assets.load.table_file",
        "batch.run_batch.asset_root", "cli.main.argv",
        "episode.run_episode.seed", "episode.run_episode.confirm_fn",
    ],
}


def config_fields() -> list[str]:
    classes = (HyperParams, SensorParams, PlannerParams, SuiteParams, RunConfig)
    return [f"{cls.__name__}.{f.name}" for cls in classes for f in dataclasses.fields(cls)]


def cli_options(parser: argparse.ArgumentParser) -> list[str]:
    """The option strings of a parser and its subcommands, in definition order."""
    options = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options += cli_options(sub)
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            options.append(action.option_strings[0])
    return options


def environment_reads() -> list[str]:
    return [
        f"{path.stem}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Attribute, ast.Name))
        and getattr(node, "attr", getattr(node, "id", None)) in ("environ", "getenv")
    ]


def defaulted_parameters() -> list[str]:
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args.posonlyargs + node.args.args
            named = args[len(args) - len(node.args.defaults):] + [
                arg for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if default is not None
            ]
            found += [f"{path.stem}.{node.name}.{arg.arg}" for arg in named]
    return found


def test_settable_values_are_pinned():
    """A new setting, option or default changes this list on purpose."""
    assert {
        "config fields": config_fields(),
        "CLI options": cli_options(build_parser()),
        "environment variables": environment_reads(),
        "defaulted parameters": defaulted_parameters(),
    } == SETTABLE_VALUES
    assert sum(map(len, SETTABLE_VALUES.values())) == 56


# The functions that read the camera's range.  Confirmation and SPL share
# one rule, so a second reader of the range changes this list on purpose.
CAM_RANGE_READERS = [
    "planning.first_confirming", "sensing.camera_observe", "sensing.sighting",
    "world.HyperParams.__post_init__",
]


def attribute_readers(attr: str) -> list[str]:
    """``module.function`` (``module.Class.method`` for a method) of every
    function in the package whose own body reads ``.attr``."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(child)):
                    found.append(f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    for path in MODULES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sorted(found)


def test_cam_range_readers_are_pinned():
    assert attribute_readers("cam_range") == CAM_RANGE_READERS


def load_tracer() -> types.ModuleType:
    """``objbench/tracer.py``, loaded by path: the benchmark is not a package."""
    spec = importlib.util.spec_from_file_location("objbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load_tracer().LAYERS


def test_tracer_layers_are_found():
    assert len(LAYERS) == 21


@pytest.mark.parametrize("module, attr", [layer[:2] for layer in LAYERS],
                         ids=[f"{m}.{a}" for m, a, *_ in LAYERS])
def test_traced_layer_resolves(module, attr):
    """Each name the benchmark's tracer patches is bound where it looks."""
    home = importlib.import_module(f"objsearch.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, attr))


@pytest.mark.parametrize("module, function, position, name", [
    ("world", "raycast_batch", 2, "bearings"),
    ("sensing", "lidar_update", 0, "belief"),
    ("planning", "traversable_mask", 0, "grid"),
    ("planning", "distance_field", 0, "traversable"),
])
def test_traced_hook_parameters(module, function, position, name):
    """The tracer's hooks read these arguments by position or keyword."""
    fn = getattr(importlib.import_module(f"objsearch.{module}"), function)
    assert list(inspect.signature(fn).parameters)[position] == name


@pytest.mark.parametrize("module, cls, name", [
    ("planning", "Path", "cells"),
    ("sensing", "CameraObservation", "detections"),
])
def test_traced_results_carry_fields(module, cls, name):
    """The tracer's hooks read these fields of a traced call's result."""
    home = importlib.import_module(f"objsearch.{module}")
    assert name in {f.name for f in dataclasses.fields(getattr(home, cls))}
