"""Procedural scenario suites: connected multi-room maps at household scale.

Rooms come from recursive splits with a guaranteed door per wall, landmarks
hug the walls, and the target object lands next to a landmark drawn from a
co-occurrence-weighted distribution (so knowledge-guided search has something
to exploit).  Generation is a pure function of (params, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np
from scipy import ndimage

from .assets import AssetContext
from .errors import DomainError, GenerationError, SchemaError
from .knowledge import cooccurrence
from .planning import confirming_cells, ground_truth_shortest, traversable_mask
from .world import (
    CellState,
    GridMap,
    HyperParams,
    LandmarkSpec,
    ObjectSpec,
    PlannerParams,
    Pose,
    ScenarioSpec,
    SensorParams,
    _footprint_window,
    _integer,
    _number,
    _parse_section,
    parse_fields,
)

DEFAULT_TARGET_POOL = (
    "book",
    "cup",
    "laptop",
    "cellphone",
    "remote control",
    "alarm clock",
    "bowl",
    "pillow",
    "teddy bear",
    "spray bottle",
)
DEFAULT_KNOWN_POOL = ("tv monitor", "sofa", "dining table")
DEFAULT_UNKNOWN_POOL = ("armchair", "side table", "coffee table", "desk", "bed", "drawer")

_DOOR_WIDTH_M = 1.1
_MIN_ROOM_M = 2.8
_TARGET_RADIUS = 0.15
_MAX_SCENARIO_ATTEMPTS = 40
_MAX_PLACE_ATTEMPTS = 80


class _Retry(Exception):
    """Internal: one placement attempt failed; the caller retries."""


@dataclass(frozen=True)
class SuiteParams:
    """Generator settings; ranges follow the documented limits."""

    count: int = 10
    rooms: int = 2  # 1..4
    landmarks: int = 5  # 3..8
    map_side: float = 12.0  # 8..20 meters
    resolution: float = 0.1
    known_landmarks: int = 1
    distractors: int = 2
    targets: tuple[str, ...] = DEFAULT_TARGET_POOL
    known_pool: tuple[str, ...] = DEFAULT_KNOWN_POOL
    unknown_pool: tuple[str, ...] = DEFAULT_UNKNOWN_POOL
    placement: str = "cooccurrence"  # or "uniform"
    placement_weights: dict | None = None  # explicit name -> weight override
    placement_power: float = 1.0
    hyperparams: dict = field(default_factory=dict)
    sensor: dict = field(default_factory=dict)
    planner: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SchemaError("suite.count: must be >= 1")
        if not 1 <= self.rooms <= 4:
            raise SchemaError("suite.rooms: must be in 1..4")
        if not 3 <= self.landmarks <= 8:
            raise SchemaError("suite.landmarks: must be in 3..8")
        if not 8.0 <= self.map_side <= 20.0:
            raise SchemaError("suite.map_side: must be in 8..20 meters")
        if not (math.isfinite(self.resolution) and self.resolution > 0.0):
            raise SchemaError("suite.resolution: must be positive and finite")
        if self.placement not in ("cooccurrence", "uniform"):
            raise SchemaError("suite.placement: expected 'cooccurrence' or 'uniform'")
        if not 0 <= self.known_landmarks <= self.landmarks:
            raise SchemaError("suite.known_landmarks: must be in 0..landmarks")
        if self.distractors < 0:
            raise SchemaError("suite.distractors: must be >= 0")
        if not self.targets:
            raise SchemaError("suite.targets: must name at least one target")
        if self.known_landmarks > 0 and not self.known_pool:
            raise SchemaError("suite.known_pool: must not be empty when known_landmarks > 0")
        if self.landmarks > self.known_landmarks and not self.unknown_pool:
            raise SchemaError(
                "suite.unknown_pool: must not be empty when landmarks > known_landmarks"
            )
        if not (math.isfinite(self.placement_power) and self.placement_power >= 0):
            raise SchemaError("suite.placement_power: must be non-negative and finite")
        strays = set(self.placement_weights or ()) - {*self.known_pool, *self.unknown_pool}
        if strays:
            raise SchemaError(
                f"suite.placement_weights: names in neither landmark pool {sorted(strays)}"
            )
        for name, weight in (self.placement_weights or {}).items():
            if not (math.isfinite(weight) and weight >= 0):
                raise SchemaError(
                    f"suite.placement_weights.{name}: must be non-negative and finite"
                )
        for name, cls in (("hyperparams", HyperParams), ("sensor", SensorParams),
                          ("planner", PlannerParams)):
            _parse_section(cls, getattr(self, name), f"suite.{name}")  # as in a document


def _weights(value, where: str) -> dict[str, float] | None:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object")
    return {k: _number(v, f"{where}.{k}") for k, v in value.items()}


def _config_fields(value, where: str, cls: type) -> dict:
    """A partial scenario config section, kept as a dict of its given keys."""
    parsed = _parse_section(cls, value, where)
    return {name: getattr(parsed, name) for name in value or {}}


_SUITE_PARSERS = {
    "placement_weights": _weights,
    "hyperparams": partial(_config_fields, cls=HyperParams),
    "sensor": partial(_config_fields, cls=SensorParams),
    "planner": partial(_config_fields, cls=PlannerParams),
}


def suite_params_from_dict(doc: dict) -> SuiteParams:
    """Parse generator settings from JSON, with the scenario parser's strictness.

    The keys are ``SuiteParams``' fields, read by
    :func:`~objsearch.world.parse_fields`.  The placement weights and the
    config sections have their own checks, and a section keeps only the keys
    it is given."""
    return parse_fields(SuiteParams, doc, "suite", _SUITE_PARSERS)


def suite_from_dict(doc: dict) -> tuple[SuiteParams, int | None]:
    """A suite document: :func:`suite_params_from_dict`'s keys plus the suite
    ``seed``, which is None when the document has none."""
    if not isinstance(doc, dict):
        raise SchemaError("suite: expected an object")
    seed = _integer(doc["seed"], "suite.seed") if "seed" in doc else None
    return suite_params_from_dict({k: v for k, v in doc.items() if k != "seed"}), seed


def _pick(rng: np.random.Generator, items: Sequence):
    return items[int(rng.integers(len(items)))]


def _sample_names(rng: np.random.Generator, pool: Sequence[str], k: int) -> list[str]:
    """k names, without replacement while the pool lasts, then with."""
    order = [pool[i] for i in rng.permutation(len(pool))]
    names = order[:k]
    while len(names) < k:
        names.append(_pick(rng, pool))
    return names


def _split_rooms(
    occ: np.ndarray, rng: np.random.Generator, rooms: int, res: float, map_side: float
) -> None:
    """Recursively split the interior with walls, leaving a door per wall."""
    n = occ.shape[0]
    min_cells = int(round(_MIN_ROOM_M / res))
    door_cells = int(round(_DOOR_WIDTH_M / res))
    rects = [(1, 1, n - 1, n - 1)]  # half-open cell rects (x0, y0, x1, y1)
    for _ in range(rooms - 1):
        rects.sort(key=lambda r: ((r[2] - r[0]) * (r[3] - r[1]), r))
        x0, y0, x1, y1 = rects[-1]
        width, height = x1 - x0, y1 - y0
        vertical = width >= height
        span = width if vertical else height
        if span < 2 * min_cells + 1:
            raise GenerationError(
                f"cannot fit {rooms} rooms of >= {_MIN_ROOM_M} m in a "
                f"{map_side} m map"
            )
        cut = int(rng.integers(min_cells, span - min_cells))
        if vertical:
            wall_x = x0 + cut
            occ[y0:y1, wall_x] = True
            door_at = int(rng.integers(y0, y1 - door_cells))
            occ[door_at : door_at + door_cells, wall_x] = False
            rects[-1:] = [(x0, y0, wall_x, y1), (wall_x + 1, y0, x1, y1)]
        else:
            wall_y = y0 + cut
            occ[wall_y, x0:x1] = True
            door_at = int(rng.integers(x0, x1 - door_cells))
            occ[wall_y, door_at : door_at + door_cells] = False
            rects[-1:] = [(x0, y0, x1, wall_y), (x0, wall_y + 1, x1, y1)]


def _connected(occ: np.ndarray) -> bool:
    free = ~occ
    if not free.any():
        return False
    _, count = ndimage.label(free, structure=np.ones((3, 3), dtype=bool))
    return count == 1


def _rect_distance(a: tuple, b: tuple) -> float:
    dx = max(a[0] - b[2], b[0] - a[2], 0.0)
    dy = max(a[1] - b[3], b[1] - a[3], 0.0)
    return math.hypot(dx, dy)


def _wall_footprint(
    rng: np.random.Generator, n: int, res: float
) -> tuple[float, float, float, float]:
    """A footprint rectangle flush against one of the four outer walls."""
    side = int(rng.integers(4))
    along = float(rng.uniform(0.6, 1.4))
    depth = float(rng.uniform(0.4, 0.9))
    extent = n * res
    lo = float(rng.uniform(res, extent - along - res))
    if side == 0:  # south wall
        return (lo, res, lo + along, res + depth)
    if side == 1:  # north wall
        return (lo, extent - res - depth, lo + along, extent - res)
    if side == 2:  # west wall
        return (res, lo, res + depth, lo + along)
    return (extent - res - depth, lo, extent - res, lo + along)  # east wall


def _place_landmarks(
    occ: np.ndarray,
    rng: np.random.Generator,
    names: list[str],
    known: set[str],
    res: float,
) -> list[LandmarkSpec]:
    n = occ.shape[0]
    placed: list[LandmarkSpec] = []
    grid_probe = GridMap(n, n, res, np.where(occ, CellState.OCCUPIED, CellState.FREE))
    for idx, name in enumerate(names):
        for _ in range(_MAX_PLACE_ATTEMPTS):
            rect = _wall_footprint(rng, n, res)
            rows, cols, inside = _footprint_window(grid_probe, rect)
            if not inside.any() or (occ[rows, cols] & inside).any():
                continue
            if any(_rect_distance(rect, lm.footprint) < 0.5 for lm in placed):
                continue
            trial = occ.copy()
            trial[rows, cols] |= inside
            if not _connected(trial):
                continue
            cx = 0.5 * (rect[0] + rect[2])
            cy = 0.5 * (rect[1] + rect[3])
            ring_free = 0
            for a in range(8):
                px = cx + 1.5 * math.cos(2.0 * math.pi * a / 8)
                py = cy + 1.5 * math.sin(2.0 * math.pi * a / 8)
                ix, iy = int(px / res), int(py / res)
                if 0 <= ix < n and 0 <= iy < n and not trial[iy, ix]:
                    ring_free += 1
            if ring_free == 0:
                continue
            occ[:] = trial
            placed.append(
                LandmarkSpec(
                    id=f"L{idx}", name=name, known=name in known, footprint=rect
                )
            )
            break
        else:
            raise _Retry(f"could not place landmark {name!r}")
    return placed


def _cells_near_rect(
    occ: np.ndarray, rect: tuple, res: float, max_dist: float
) -> list[tuple[int, int]]:
    """Free cells whose center sits within (0, max_dist] of the rectangle."""
    n = occ.shape[0]
    x0 = max(0, int((rect[0] - max_dist) / res) - 1)
    y0 = max(0, int((rect[1] - max_dist) / res) - 1)
    x1 = min(n - 1, int((rect[2] + max_dist) / res) + 1)
    y1 = min(n - 1, int((rect[3] + max_dist) / res) + 1)
    out = []
    for iy in range(y0, y1 + 1):
        row = occ[iy].tolist()
        cy = (iy + 0.5) * res
        dy = max(rect[1] - cy, cy - rect[3], 0.0)
        for ix in range(x0, x1 + 1):
            if row[ix]:
                continue
            cx = (ix + 0.5) * res
            dx = max(rect[0] - cx, cx - rect[2], 0.0)
            d = math.hypot(dx, dy)
            if 0.0 < d <= max_dist:
                out.append((ix, iy))
    return out


def _host_weights(
    params: SuiteParams,
    target: str,
    landmarks: list[LandmarkSpec],
    ctx: AssetContext,
) -> np.ndarray:
    if params.placement_weights is not None:
        return np.array(
            [float(params.placement_weights.get(lm.name, 0.0)) for lm in landmarks]
        )
    if params.placement == "uniform":
        return np.ones(len(landmarks))
    scores = [
        max(0.0, cooccurrence(target, lm.name, ctx.generations, ctx.words))
        for lm in landmarks
    ]
    return np.array(scores) ** params.placement_power


def _weighted_pick(rng: np.random.Generator, weights: np.ndarray) -> int:
    total = float(weights.sum())
    if total <= 1e-12:
        raise _Retry("no landmark has positive placement weight")
    cum = np.cumsum(weights)
    r = rng.uniform(0.0, total)
    return int(np.searchsorted(cum, r, side="right").clip(0, len(weights) - 1))


def _place_object(
    occ: np.ndarray,
    rng: np.random.Generator,
    rect: tuple,
    res: float,
    used: set[tuple[int, int]],
) -> tuple[float, float]:
    candidates = [c for c in _cells_near_rect(occ, rect, res, 0.5) if c not in used]
    if not candidates:
        raise _Retry("no free cell near the host landmark")
    ix, iy = candidates[int(rng.integers(len(candidates)))]
    used.add((ix, iy))
    return (ix + 0.5) * res, (iy + 0.5) * res


def _generate_one(
    params: SuiteParams, rng: np.random.Generator, ctx: AssetContext, index: int
) -> ScenarioSpec:
    res = params.resolution
    n = int(round(params.map_side / res))
    occ = np.zeros((n, n), dtype=bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    _split_rooms(occ, rng, params.rooms, res, params.map_side)

    known_names = _sample_names(rng, params.known_pool, params.known_landmarks)
    unknown_names = _sample_names(
        rng, params.unknown_pool, params.landmarks - params.known_landmarks
    )
    names = known_names + unknown_names
    landmarks = _place_landmarks(occ, rng, names, set(known_names), res)

    target_name = None
    weights = None
    for _ in range(2 * len(params.targets)):
        candidate = _pick(rng, params.targets)
        w = _host_weights(params, candidate, landmarks, ctx)
        if float(w.sum()) > 1e-12:
            target_name, weights = candidate, w
            break
    if target_name is None:
        raise _Retry("no target in the pool is placeable under the weights")

    used: set[tuple[int, int]] = set()
    host = landmarks[_weighted_pick(rng, weights)]
    target_pos = _place_object(occ, rng, host.footprint, res, used)
    objects = [
        ObjectSpec(
            id="T0", name=target_name, position=target_pos,
            radius=_TARGET_RADIUS, is_target=True,
        )
    ]
    other_names = [t for t in params.targets if t != target_name]
    for d in range(params.distractors):
        if not other_names:
            break
        name = _pick(rng, other_names)
        lm = _pick(rng, landmarks)
        try:
            pos = _place_object(occ, rng, lm.footprint, res, used)
        except _Retry:
            continue
        objects.append(
            ObjectSpec(id=f"D{d}", name=name, position=pos, radius=_TARGET_RADIUS)
        )

    grid = GridMap(n, n, res, np.where(occ, CellState.OCCUPIED, CellState.FREE))
    hyper = HyperParams(**params.hyperparams)
    sensor = SensorParams(**params.sensor)
    planner = PlannerParams(**params.planner)

    trav = traversable_mask(grid, planner.robot_radius)
    start = None
    for _ in range(300):
        ix, iy = int(rng.integers(1, n - 1)), int(rng.integers(1, n - 1))
        if not trav[iy, ix] or (ix, iy) in used:
            continue
        if confirming_cells(grid, objects[0], hyper.cam_range, np.array([ix]), np.array([iy]))[0]:
            continue  # the target must not be confirmable from the start
        start = Pose((ix + 0.5) * res, (iy + 0.5) * res, float(rng.uniform(-math.pi, math.pi)))
        break
    if start is None:
        raise _Retry("no valid start cell")

    spec = ScenarioSpec(
        grid, landmarks, objects, start, target_name, hyper, sensor, planner,
        seed=int(rng.integers(2**31)),
    )
    if not math.isfinite(ground_truth_shortest(spec)):
        raise _Retry("target is not observable from any reachable cell")
    return spec


def generate_suite(
    params: SuiteParams, seed: int, ctx: AssetContext | None = None
) -> list[ScenarioSpec]:
    """Generate ``params.count`` validated scenarios, deterministically."""
    if seed < 0:
        raise DomainError(f"suite seed {seed} must be >= 0")
    if ctx is None:
        ctx = AssetContext.load()
    scenarios: list[ScenarioSpec] = []
    for i in range(params.count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        last = ""
        for _ in range(_MAX_SCENARIO_ATTEMPTS):
            try:
                scenarios.append(_generate_one(params, rng, ctx, i))
                break
            except _Retry as exc:
                last = str(exc)
        else:
            raise GenerationError(
                f"scenario {i}: placement failed after {_MAX_SCENARIO_ATTEMPTS} "
                f"attempts ({last})"
            )
    return scenarios
