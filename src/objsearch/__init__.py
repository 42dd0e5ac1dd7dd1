"""Deterministic grid-world benchmark for landmark-guided active object search."""

from .assets import AssetContext
from .batch import AggregateReport, RunConfig, run_batch
from .episode import EpisodeResult, run_episode
from .knowledge import GenerationTable, WordVectorStore, cooccurrence, phrase_vector
from .matching import (
    TextEmbeddingStore,
    landmark_probability,
    matching_score,
    semantic_uncertainty,
)
from .metrics import iou_ioa, spl
from .planning import (
    Frontier,
    Path,
    Viewpoint,
    generate_viewpoints,
    nearest_frontier,
    plan_path,
    plan_waypoints,
    viewpoint_cost,
)
from .sensing import BeliefMap, CameraObservation, DetectionRecord, camera_observe, lidar_update
from .suitegen import SuiteParams, generate_suite
from .world import (
    GridMap,
    HyperParams,
    LandmarkSpec,
    ObjectSpec,
    Pose,
    ScenarioSpec,
    load_scenario,
    serialize_scenario,
)

__version__ = "0.1.0"
