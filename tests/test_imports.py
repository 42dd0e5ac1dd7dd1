"""Every package module reads each name it imports (``__init__`` re-exports),
and the package's public names are the pinned list."""

import ast
import types
from pathlib import Path

import pytest

import objsearch

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "objsearch"
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


PUBLIC_NAMES = [
    "AggregateReport", "AssetContext", "BeliefMap", "CameraObservation", "DetectionRecord",
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
    assert len(names) == 39
