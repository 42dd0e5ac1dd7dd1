"""Procedural scenario suites: connected multi-room maps at household scale.

Rooms come from recursive splits with a guaranteed door per wall, landmarks
hug the walls, and the target object lands next to a landmark drawn from a
co-occurrence-weighted distribution (so knowledge-guided search has something
to exploit).  Generation is a pure function of (params, seed).

Generation checks what a scenario needs and no more: the free space stays
one 8-connected region, which the room split guarantees by construction and
each landmark placement keeps (its ring of free cells is read once around
the footprint's border, and the whole map is labelled only when the ring is
split), the start cell keeps the robot clear of walls and does not confirm
the target, and some cell that confirms the target is reachable from the
start (:func:`~objsearch.planning.target_observable`), so every scenario has
the finite shortest path SPL divides by.  The map is inflated once: the
start check's traversable mask is the one that test reads.  Both checks ask
one confirming rule, the one SPL's search asks,
:func:`~objsearch.planning.first_confirming`, which stops at its first
confirming cell and sorts no cells when the top-ranked one confirms; which
free cells lie near a host landmark, :func:`~objsearch.planning.cells_near`.
Generation never computes the path's length: the episode does, once, with
:func:`~objsearch.planning.ground_truth_shortest`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import ndimage

from .assets import AssetContext
from .errors import DomainError, GenerationError, SchemaError
from .planning import (
    EIGHT_CONNECTED, cells_near, first_confirming, target_observable, traversable_mask,
    viewpoint_ring,
)
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
_FREE = CellState.FREE.value
_OCCUPIED = CellState.OCCUPIED.value


class _Retry(Exception):
    """Internal: one placement attempt failed; the caller retries."""


@dataclass(frozen=True)
class SuiteParams:
    """Generator settings; ranges follow the documented limits.  The target's
    host is drawn by one rule, :func:`_host_weights`."""

    count: int = 10
    rooms: int = 2  # 1..4
    landmarks: int = 5  # 3..8
    map_side: float = 12.0  # 8..20 meters
    resolution: float = 0.1  # 0.02..0.5 meters
    known_landmarks: int = 1
    distractors: int = 2
    targets: tuple[str, ...] = DEFAULT_TARGET_POOL
    known_pool: tuple[str, ...] = DEFAULT_KNOWN_POOL
    unknown_pool: tuple[str, ...] = DEFAULT_UNKNOWN_POOL
    placement_power: float = 1.0  # 0 places the target uniformly over the landmarks
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
        if not 0.02 <= self.resolution <= 0.5:
            raise SchemaError("suite.resolution: must be in 0.02..0.5 meters")
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
        # Each section is read as a scenario document's is and keeps its given
        # keys, now with their parsed values, whether built in code or read.
        for name, cls in (("hyperparams", HyperParams), ("sensor", SensorParams),
                          ("planner", PlannerParams)):
            given = getattr(self, name)
            parsed = _parse_section(cls, given, f"suite.{name}")
            object.__setattr__(self, name, {key: getattr(parsed, key) for key in given or {}})
        planner = PlannerParams(**self.planner)
        if 2.0 * planner.robot_radius >= self.map_side:  # generation inflates the map first
            raise SchemaError(
                "suite.planner.robot_radius: the robot must fit in the map (2 * radius < map_side)"
            )


def suite_params_from_dict(doc: dict) -> SuiteParams:
    """Parse generator settings from JSON, with the scenario parser's strictness.

    The keys are ``SuiteParams``' fields, read by
    :func:`~objsearch.world.parse_fields`, and the config sections are read
    as the suite is built."""
    return parse_fields(SuiteParams, doc, "suite")


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
    cells: np.ndarray, rng: np.random.Generator, rooms: int, res: float, map_side: float
) -> None:
    """Recursively split the interior with walls, leaving a door per wall.

    The free space stays one 8-connected region, by induction over the
    splits.  Before the first split it is the interior rectangle.  Every
    room is a rectangle of free cells: walls and doors lie between rooms.
    A split draws a wall line strictly inside one room R, at least
    ``min_cells`` from either side, so both halves R1 and R2 are non-empty
    rectangles, and opens a door of ``round(1.1 / res) >= 2`` cells on it;
    each door cell is 4-adjacent to a cell of R1 and one of R2, so R1, the
    door and R2 form one region.  Any other free cell c had a path into R;
    cut it at its first cell q in R.  The cells before q lie outside R, so
    they stay free, and the last of them, p, is 8-adjacent to q.  If q is
    not closed wall it stays free.  If it is, p lies beyond one end of the
    wall, since the wall spans R along its own axis and lies inside R
    across it, so q is the wall's end cell.  The two cells beside q lie in
    R1 and R2, and p is 8-adjacent to at least one of them (to both where
    it meets the wall head-on, as an earlier door cell there does).  Either
    way c stays joined to R1 and R2."""
    n = cells.shape[0]
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
            cells[y0:y1, wall_x] = _OCCUPIED
            door_at = int(rng.integers(y0, y1 - door_cells))
            cells[door_at : door_at + door_cells, wall_x] = _FREE
            rects[-1:] = [(x0, y0, wall_x, y1), (wall_x + 1, y0, x1, y1)]
        else:
            wall_y = y0 + cut
            cells[wall_y, x0:x1] = _OCCUPIED
            door_at = int(rng.integers(x0, x1 - door_cells))
            cells[wall_y, door_at : door_at + door_cells] = _FREE
            rects[-1:] = [(x0, y0, x1, wall_y), (x0, wall_y + 1, x1, y1)]


def _connected(cells: np.ndarray) -> bool:
    """Whether the Free cells of a map's ``cells`` form one 8-connected region."""
    return ndimage.label(cells == _FREE, structure=EIGHT_CONNECTED)[1] == 1


def _ring_connected(trial: np.ndarray, rows: slice, cols: slice) -> bool:
    """Sufficient test that occupying a footprint kept a connected map connected.

    ``trial`` is the map's cells with the footprint, the cells ``rows`` by
    ``cols``, occupied, all of which were free before.  The ring is the free
    cells of ``trial`` 8-adjacent to the footprint, so those of the
    rectangle grown by one cell and clipped to the map.  If the map was 8-connected before
    and the ring is non-empty and 8-connected among its own cells, ``trial``
    is 8-connected: a path between two free cells of ``trial`` that crossed
    the footprint enters it from a ring cell and leaves it to a ring cell,
    and that stretch can be replaced by a path through the ring.  A False
    answer proves nothing; the caller then runs :func:`_connected`.

    The ring is read without a label.  Grown by one cell on every side, with
    cells off the map read as occupied, the footprint fills the inside of a
    rectangle at least 3 cells along each axis, so the ring is the free part
    of that rectangle's border.  Two border cells are 8-adjacent exactly
    when they are next to each other on the border's cycle, or both next to
    one corner of it, which makes them diagonal to each other.  So an
    occupied corner between two free cells joins them, as a free one would,
    and after that the ring is one 8-connected region exactly when one run
    of free cells is left on the cycle, the whole cycle counting as one run.
    """
    height, width = trial.shape
    y0, x0 = rows.start - 1, cols.start - 1
    grown = trial[max(y0, 0) : rows.stop + 1, max(x0, 0) : cols.stop + 1]
    off_map = ((int(y0 < 0), int(rows.stop >= height)), (int(x0 < 0), int(cols.stop >= width)))
    if off_map != ((0, 0), (0, 0)):
        grown = np.pad(grown, off_map, constant_values=_OCCUPIED)
    # The border clockwise from the top-left corner, which each side ends before.
    h, w = grown.shape
    free = np.concatenate((grown[0, :-1], grown[:-1, -1], grown[-1, :0:-1],
                           grown[:0:-1, 0])) == _FREE
    for corner in (0, w - 1, w + h - 2, 2 * w + h - 3):
        if not free[corner]:
            free[corner] = free[corner - 1] and free[corner + 1]
    starts = np.count_nonzero(free[1:] > free[:-1]) + (free[0] > free[-1])
    return starts == 1 or bool(free.all())


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
    grid: GridMap,
    rng: np.random.Generator,
    names: list[str],
    known: set[str],
    planner: PlannerParams,
) -> list[LandmarkSpec]:
    """Place each named landmark on a free wall-flush footprint (the cells
    whose centre it covers) that keeps the free space 8-connected and leaves
    a free point on the planner's viewpoint ring around it.

    Precondition: the free space of ``grid`` is one 8-connected region, as
    :func:`_split_rooms` guarantees.  Each accepted placement keeps it so,
    so every trial footprint is first checked with the
    :func:`_ring_connected` shortcut, whose True answer proves the trial
    connected on a connected map.  Only when the ring test fails does the
    full :func:`_connected` label decide.  Each trial occupies a copy of
    ``grid.cells``; an accepted footprint is written into ``grid.cells``."""
    n = grid.width
    res = grid.resolution
    placed: list[LandmarkSpec] = []
    for idx, name in enumerate(names):
        for _ in range(_MAX_PLACE_ATTEMPTS):
            rect = _wall_footprint(rng, n, res)
            rows, cols = _footprint_window(grid, rect)
            window = grid.cells[rows, cols]
            if window.size == 0 or (window == _OCCUPIED).any():
                continue
            if any(_rect_distance(rect, lm.footprint) < 0.5 for lm in placed):
                continue
            trial = grid.cells.copy()
            trial[rows, cols] = _OCCUPIED
            if not (_ring_connected(trial, rows, cols) or _connected(trial)):
                continue
            landmark = LandmarkSpec(id=f"L{idx}", name=name, known=name in known, footprint=rect)
            ring = viewpoint_ring(grid, landmark.center, planner)
            if all(trial[iy, ix] == _OCCUPIED for _, (ix, iy) in ring):
                continue
            grid.cells[rows, cols] = _OCCUPIED
            placed.append(landmark)
            break
        else:
            raise _Retry(f"could not place landmark {name!r}")
    return placed


def _host_weights(
    params: SuiteParams,
    target: str,
    landmarks: list[LandmarkSpec],
    ctx: AssetContext,
) -> np.ndarray:
    """Host weights ``max(0, cooccurrence(target, name)) ** placement_power``."""
    if params.placement_power == 0:  # scores nothing, so any landmark name will do
        return np.ones(len(landmarks))
    scores = [ctx.cooccurrence(target, lm.name) for lm in landmarks]
    return np.array([max(0.0, score) for score in scores]) ** params.placement_power


def _weighted_pick(rng: np.random.Generator, weights: np.ndarray) -> int:
    cum = np.cumsum(weights)
    r = rng.uniform(0.0, float(weights.sum()))
    return int(np.searchsorted(cum, r, side="right").clip(0, len(weights) - 1))


def _place_object(
    free: np.ndarray,
    rng: np.random.Generator,
    rect: tuple,
    res: float,
    used: set[tuple[int, int]],
) -> tuple[float, float]:
    """A cell centre drawn from the unused free cells within 0.5 m of ``rect``."""
    near = zip(*(a.tolist() for a in cells_near(free, rect, res, 0.5)))
    candidates = [c for c in near if c not in used]
    if not candidates:
        raise _Retry("no free cell near the host landmark")
    ix, iy = candidates[int(rng.integers(len(candidates)))]
    used.add((ix, iy))
    return (ix + 0.5) * res, (iy + 0.5) * res


def _generate_one(params: SuiteParams, rng: np.random.Generator, ctx: AssetContext) -> ScenarioSpec:
    res = params.resolution
    n = int(round(params.map_side / res))
    grid = GridMap(n, n, res, np.full((n, n), _FREE, dtype=np.uint8))
    cells = grid.cells
    cells[0, :] = cells[-1, :] = cells[:, 0] = cells[:, -1] = _OCCUPIED
    _split_rooms(cells, rng, params.rooms, res, params.map_side)

    known_names = _sample_names(rng, params.known_pool, params.known_landmarks)
    unknown_names = _sample_names(
        rng, params.unknown_pool, params.landmarks - params.known_landmarks
    )
    names = known_names + unknown_names
    planner = PlannerParams(**params.planner)
    landmarks = _place_landmarks(grid, rng, names, set(known_names), planner)

    for _ in range(2 * len(params.targets)):
        target_name = _pick(rng, params.targets)
        weights = _host_weights(params, target_name, landmarks, ctx)
        if float(weights.sum()) > 1e-12:
            break
    else:
        raise _Retry("no target in the pool is placeable under the weights")

    used: set[tuple[int, int]] = set()
    free = cells == _FREE
    host = landmarks[_weighted_pick(rng, weights)]
    target_pos = _place_object(free, rng, host.footprint, res, used)
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
            pos = _place_object(free, rng, lm.footprint, res, used)
        except _Retry:
            continue
        objects.append(
            ObjectSpec(id=f"D{d}", name=name, position=pos, radius=_TARGET_RADIUS)
        )

    hyper = HyperParams(**params.hyperparams)
    sensor = SensorParams(**params.sensor)

    trav = traversable_mask(grid, planner.robot_radius)
    for _ in range(300):
        ix, iy = int(rng.integers(1, n - 1)), int(rng.integers(1, n - 1))
        if not trav[iy, ix] or (ix, iy) in used:
            continue
        if first_confirming(grid, objects[0], hyper, (ix, iy), None) is None:
            break  # a start cell from which the target is not confirmable
    else:
        raise _Retry("no valid start cell")
    start = Pose((ix + 0.5) * res, (iy + 0.5) * res, float(rng.uniform(-math.pi, math.pi)))

    spec = ScenarioSpec(
        grid, landmarks, objects, start, target_name, hyper, sensor, planner,
        seed=int(rng.integers(2**31)),
    )
    if not target_observable(spec, trav):
        raise _Retry("target is not observable from any reachable cell")
    return spec


def generate_suite(params: SuiteParams, seed: int, ctx: AssetContext) -> list[ScenarioSpec]:
    """Generate ``params.count`` validated scenarios, deterministically."""
    if seed < 0:
        raise DomainError(f"suite seed {seed} must be >= 0")
    scenarios: list[ScenarioSpec] = []
    for i in range(params.count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        last = ""
        for _ in range(_MAX_SCENARIO_ATTEMPTS):
            try:
                scenarios.append(_generate_one(params, rng, ctx))
                break
            except _Retry as exc:
                last = str(exc)
        else:
            raise GenerationError(
                f"scenario {i}: placement failed after {_MAX_SCENARIO_ATTEMPTS} "
                f"attempts ({last})"
            )
    return scenarios
