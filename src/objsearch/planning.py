"""Planning: the drivable rule, grid A*, viewpoints, waypoint order, frontiers, SPL.

Every map here is a :class:`~objsearch.world.GridMap`.  Paths are
8-connected over Free cells; Unknown space never counts as traversable.  The
robot drives by one rule, :func:`drivable_mask`, which the episode applies to
its belief and :func:`ground_truth_shortest` to the scenario's fully known
map for SPL.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .errors import DomainError, NoPathError
from .sensing import lines_of_sight, object_slack
from .world import CellState, GridMap, HyperParams, ObjectSpec, PlannerParams, Pose, ScenarioSpec
from .world import normalize_angle

SQRT2 = math.sqrt(2.0)
COST_FLOOR = 1e-3  # keeps the co-occurrence penalty positive at cooccur = 1

_NEIGHBORS = (
    (1, 0, 1.0),
    (-1, 0, 1.0),
    (0, 1, 1.0),
    (0, -1, 1.0),
    (1, 1, SQRT2),
    (1, -1, SQRT2),
    (-1, 1, SQRT2),
    (-1, -1, SQRT2),
)
# One direction per undirected edge class: E, N, NE, NW.
_FORWARD_NEIGHBORS = ((1, 0, 1.0), (0, 1, 1.0), (1, 1, SQRT2), (-1, 1, SQRT2))
_FORWARD_STEPS = np.array([step for _, _, step in _FORWARD_NEIGHBORS])


@dataclass
class LandmarkEntry:
    """Registry record of one sighted landmark, the planner's input for it.

    The scores are checked on every write, so a merge that replaces them is
    checked as well as the first sighting."""

    id: str
    name: str
    position: tuple[float, float]
    cooccur: float
    sem_uncert: float
    visited: bool = False
    skipped: bool = False  # permanently excluded by the threshold rule

    def __setattr__(self, name: str, value) -> None:
        if name == "cooccur" and not -1.0 <= value <= 1.0:
            raise DomainError(f"cooccur {value} outside [-1, 1]")
        if name == "sem_uncert" and value < 0.0:
            raise DomainError(f"sem_uncert {value} must be >= 0")
        super().__setattr__(name, value)


@dataclass(frozen=True)
class Viewpoint:
    """A pose from which a registry landmark is observable."""

    landmark: LandmarkEntry
    pose: Pose


@dataclass(frozen=True)
class Path:
    """Cells of an 8-connected grid path and its metric length."""

    cells: tuple[tuple[int, int], ...]
    length: float

    @classmethod
    def from_cells(cls, cells: Sequence[tuple[int, int]], resolution: float) -> "Path":
        if not cells:
            raise DomainError("a path needs at least one cell")
        straight = diagonal = 0
        for (ax, ay), (bx, by) in zip(cells, cells[1:]):
            dx, dy = abs(bx - ax), abs(by - ay)
            if dx > 1 or dy > 1 or (dx == 0 and dy == 0):
                raise DomainError(f"cells ({ax},{ay}) -> ({bx},{by}) are not 8-adjacent")
            if dx + dy == 1:
                straight += 1
            else:
                diagonal += 1
        length = (straight + SQRT2 * diagonal) * resolution
        return cls(cells=tuple((int(x), int(y)) for x, y in cells), length=length)


@dataclass(frozen=True)
class Frontier:
    """An 8-connected cluster of observed-free cells touching unknown space."""

    cells: tuple[tuple[int, int], ...]
    centroid: tuple[float, float]
    closest_cell: tuple[int, int]


def _radius_cells(radius: float, resolution: float) -> int:
    """Smallest whole number of cells that covers a metric radius."""
    return int(math.ceil(radius / resolution - 1e-9))


@functools.cache
def _disk_offsets(radius_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """(dy, dx) offsets of the cells within ``radius_cells`` of a centre cell.

    Built once per radius and shared, so the arrays are read-only.
    """
    span = np.arange(-radius_cells, radius_cells + 1)
    dy, dx = np.meshgrid(span, span, indexing="ij")
    disk = (dx * dx + dy * dy) <= radius_cells * radius_cells + 1e-9
    dy, dx = dy[disk], dx[disk]
    dy.setflags(write=False)
    dx.setflags(write=False)
    return dy, dx


def inflate_occupied(occupied: np.ndarray, radius_cells: int) -> np.ndarray:
    """Dilate an occupancy mask by a disk of the given cell radius."""
    if radius_cells <= 0:
        return occupied.copy()
    # OR of the mask shifted by every disk offset; cells beyond the border
    # count as free.
    height, width = occupied.shape
    padded = np.zeros((height + 2 * radius_cells, width + 2 * radius_cells), dtype=bool)
    padded[radius_cells:-radius_cells, radius_cells:-radius_cells] = occupied
    out = np.zeros((height, width), dtype=bool)
    for dy, dx in zip(*_disk_offsets(radius_cells)):
        oy, ox = dy + radius_cells, dx + radius_cells
        out |= padded[oy : oy + height, ox : ox + width]
    return out


def traversable_mask(grid: GridMap, robot_radius: float) -> np.ndarray:
    """Free cells that keep the robot body clear of known obstacles."""
    occupied = grid.cells == CellState.OCCUPIED
    inflated = inflate_occupied(occupied, _radius_cells(robot_radius, grid.resolution))
    return (grid.cells == CellState.FREE) & ~inflated


def clear_robot_disk(
    trav: np.ndarray, grid: GridMap, cell: tuple[int, int], robot_radius: float
) -> np.ndarray:
    """Whitelist the free cells under the robot's own footprint.

    A lidar update can reveal an obstacle right next to the robot, at which
    point inflation would swallow the cell it is standing on and strand it.
    The robot's body is proof those free cells are passable.
    """
    cx, cy = cell
    dy, dx = _disk_offsets(_radius_cells(robot_radius, grid.resolution))
    xs, ys = cx + dx, cy + dy
    inside = (xs >= 0) & (xs < grid.width) & (ys >= 0) & (ys < grid.height)
    xs, ys = xs[inside], ys[inside]
    free = grid.cells[ys, xs] == CellState.FREE
    trav[ys[free], xs[free]] = True
    trav[cy, cx] = True
    return trav


def drivable_mask(grid: GridMap, cell: tuple[int, int], robot_radius: float) -> np.ndarray:
    """The one drivable rule: :func:`traversable_mask` plus the free cells of
    the robot's disk at ``cell`` (:func:`clear_robot_disk`)."""
    return clear_robot_disk(traversable_mask(grid, robot_radius), grid, cell, robot_radius)


def plan_path(
    belief: GridMap,
    start: tuple[int, int],
    goal: tuple[int, int],
    traversable: np.ndarray,
) -> Path:
    """Shortest 8-connected path by A* with an octile heuristic.

    Ties in the open list break on the flat cell index, so equal-cost maps
    always produce the same path.  Only cells set in ``traversable`` are
    entered; navigation passes its :func:`drivable_mask`.
    """
    width, height = belief.width, belief.height
    sx, sy = int(start[0]), int(start[1])
    gx, gy = int(goal[0]), int(goal[1])
    if not (0 <= sx < width and 0 <= sy < height) or not traversable[sy, sx]:
        raise DomainError(f"start cell {start} is not traversable")
    if not (0 <= gx < width and 0 <= gy < height) or not traversable[gy, gx]:
        raise NoPathError(f"goal cell {goal} is not traversable")
    if (sx, sy) == (gx, gy):
        return Path.from_cells([(sx, sy)], belief.resolution)

    trav = traversable.ravel().tolist()
    start_idx = sy * width + sx
    goal_idx = gy * width + gx
    g_cost = {start_idx: 0.0}
    parent: dict[int, int] = {}
    closed: set[int] = set()

    def heuristic(idx: int) -> float:
        x, y = idx % width, idx // width
        dx, dy = abs(x - gx), abs(y - gy)
        return max(dx, dy) + (SQRT2 - 1.0) * min(dx, dy)

    open_heap: list[tuple[float, int]] = [(heuristic(start_idx), start_idx)]
    while open_heap:
        _, idx = heapq.heappop(open_heap)
        if idx in closed:
            continue
        if idx == goal_idx:
            cells = []
            while True:
                cells.append((idx % width, idx // width))
                if idx == start_idx:
                    break
                idx = parent[idx]
            cells.reverse()
            return Path.from_cells(cells, belief.resolution)
        closed.add(idx)
        x, y = idx % width, idx // width
        base = g_cost[idx]
        for dx, dy, step in _NEIGHBORS:
            nx, ny = x + dx, y + dy
            if not (0 <= nx < width and 0 <= ny < height):
                continue
            nidx = ny * width + nx
            if nidx in closed or not trav[nidx]:
                continue
            tentative = base + step
            if tentative < g_cost.get(nidx, math.inf):
                g_cost[nidx] = tentative
                parent[nidx] = idx
                heapq.heappush(open_heap, (tentative + heuristic(nidx), nidx))
    raise NoPathError(f"no path from {start} to {goal}")


def _grid_graph(trav: np.ndarray) -> csr_matrix:
    """Adjacency of the 8-connected graph over traversable cells, in CSR form.

    Each undirected edge is stored once, from its lower-index end, so the
    graph is searched as undirected.  The four forward neighbour masks are
    slices of one padded copy of the mask; the rows come out grouped by
    source cell, so no sparse-format conversion is needed.
    """
    height, width = trav.shape
    padded = np.zeros((height + 1, width + 2), dtype=bool)
    padded[:height, 1:-1] = trav
    edges = np.empty((height, width, len(_FORWARD_NEIGHBORS)), dtype=bool)
    for k, (dx, dy, _) in enumerate(_FORWARD_NEIGHBORS):
        edges[:, :, k] = padded[dy : height + dy, 1 + dx : width + 1 + dx]
    edges &= trav[:, :, None]
    src, kind = np.divmod(np.flatnonzero(edges), len(_FORWARD_NEIGHBORS))
    n = height * width
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    offsets = np.array([dy * width + dx for dx, dy, _ in _FORWARD_NEIGHBORS])
    return csr_matrix((_FORWARD_STEPS[kind], src + offsets[kind], indptr), shape=(n, n))


def distance_field(
    traversable: np.ndarray, resolution: float, sources: Iterable[tuple[int, int]]
) -> np.ndarray:
    """Metric shortest-path distance from the nearest source to every cell.

    Unreachable and non-traversable cells hold ``inf``.  Exact octile costs,
    computed with a C Dijkstra over the 8-connected free-cell graph.  Each
    cell's value is the minimum over its neighbours of (their value + step),
    which does not depend on the order edges are stored or relaxed in.
    """
    height, width = traversable.shape
    trav = traversable.astype(bool)
    indices = [
        int(y) * width + int(x)
        for x, y in sources
        if 0 <= x < width and 0 <= y < height and trav[int(y), int(x)]
    ]
    if not indices:
        return np.full((height, width), np.inf)
    field = _csgraph_dijkstra(_grid_graph(trav), directed=False, indices=indices, min_only=True)
    field[indices] = 0.0
    return field.reshape(height, width) * resolution


def generate_viewpoints(
    belief: GridMap,
    landmark: LandmarkEntry,
    params: PlannerParams,
    traversable: np.ndarray,
    dist_field: np.ndarray,
) -> Viewpoint | None:
    """Best observation pose on a ring around a landmark, or None if unreachable.

    Candidates sit at ``view_radius`` from the landmark center at evenly
    spaced angles, facing the center.  A candidate survives when its cell is
    observed-free, traversable and reachable; the one with the smallest
    ``dist_field`` value (the robot's travel distance) wins, and ties go to
    the lower angle index.
    """
    lx, ly = landmark.position
    ix, iy = belief.world_to_cell(lx, ly)
    if not belief.in_bounds(ix, iy):
        raise DomainError(f"landmark position {landmark.position} outside map bounds")

    best: Viewpoint | None = None
    best_dist = math.inf
    for i in range(params.view_directions):
        angle = 2.0 * math.pi * i / params.view_directions
        px = lx + params.view_radius * math.cos(angle)
        py = ly + params.view_radius * math.sin(angle)
        cx, cy = belief.world_to_cell(px, py)
        if not belief.in_bounds(cx, cy):
            continue
        if belief.cells[cy, cx] != CellState.FREE or not traversable[cy, cx]:
            continue
        dist = float(dist_field[cy, cx])
        if not math.isfinite(dist) or dist >= best_dist:
            continue
        theta = normalize_angle(math.atan2(ly - py, lx - px))
        best = Viewpoint(landmark, Pose(px, py, theta))
        best_dist = dist
    return best


def viewpoint_cost(current: Pose, candidate: Viewpoint, hp: HyperParams) -> float:
    """Travel distance plus weighted co-occurrence and uncertainty penalties."""
    travel = math.hypot(candidate.pose.x - current.x, candidate.pose.y - current.y)
    landmark = candidate.landmark
    return (
        travel
        + hp.lambda1 * (1.0 + COST_FLOOR - landmark.cooccur)
        + hp.lambda2 * landmark.sem_uncert
    )


def passes_thresholds(vp: Viewpoint, hp: HyperParams) -> bool:
    """Skip rule: a viewpoint is planned only when its landmark's co-occurrence
    is at least ``t_c`` and its uncertainty at most ``t_u`` (both inclusive).
    The episode applies it once per candidate and marks a landmark that fails
    it skipped for good."""
    return vp.landmark.cooccur >= hp.t_c and vp.landmark.sem_uncert <= hp.t_u


def plan_waypoints(
    current: Pose, candidates: Iterable[Viewpoint], hp: HyperParams
) -> list[Viewpoint]:
    """Greedy visit order: repeatedly take the cheapest remaining viewpoint,
    its cost measured from the pose taken last (``current`` first).

    The candidates are taken as given, so the caller drops those that fail
    :func:`passes_thresholds` first.  Cost ties break on landmark id.  An
    empty result tells the caller to go explore.
    """
    pool = sorted(candidates, key=lambda vp: vp.landmark.id)
    ordered: list[Viewpoint] = []
    anchor = current
    while pool:
        best = min(pool, key=lambda vp: viewpoint_cost(anchor, vp, hp))
        pool.remove(best)
        ordered.append(best)
        anchor = best.pose
    return ordered


def frontier_cells_mask(belief: GridMap) -> np.ndarray:
    """Free cells with at least one unknown 4-neighbor."""
    free = belief.cells == CellState.FREE
    unknown = belief.cells == CellState.UNKNOWN
    near_unknown = np.zeros_like(free)
    near_unknown[1:, :] |= unknown[:-1, :]
    near_unknown[:-1, :] |= unknown[1:, :]
    near_unknown[:, 1:] |= unknown[:, :-1]
    near_unknown[:, :-1] |= unknown[:, 1:]
    return free & near_unknown


def nearest_frontier(
    belief: GridMap, params: PlannerParams, dist_field: np.ndarray
) -> Frontier | None:
    """Closest sufficiently large frontier cluster, or None when explored out.

    Clusters are 8-connected, clusters smaller than ``min_frontier_cells``
    are noise, and a cluster's distance is the smallest ``dist_field`` value
    (the robot's travel distance) among its members; ties go to the lowest
    cluster label.
    """
    mask = frontier_cells_mask(belief)
    if not mask.any():
        return None
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))

    best_label = None
    best_dist = math.inf
    best_cell: tuple[int, int] | None = None
    for label in range(1, count + 1):
        ys, xs = np.nonzero(labels == label)
        if xs.size < params.min_frontier_cells:
            continue
        dists = dist_field[ys, xs]
        finite = np.isfinite(dists)
        if not finite.any():
            continue
        order = np.argmin(np.where(finite, dists, np.inf))
        cluster_dist = float(dists[order])
        if cluster_dist < best_dist:
            best_dist = cluster_dist
            best_label = label
            best_cell = (int(xs[order]), int(ys[order]))
    if best_label is None:
        return None
    ys, xs = np.nonzero(labels == best_label)
    cells = tuple(sorted((int(x), int(y)) for x, y in zip(xs, ys)))
    cx = float(np.mean([belief.cell_to_world(x, y)[0] for x, y in cells]))
    cy = float(np.mean([belief.cell_to_world(x, y)[1] for x, y in cells]))
    assert best_cell is not None
    return Frontier(cells=cells, centroid=(cx, cy), closest_cell=best_cell)


_LOS_CHUNK = 64  # candidate cells whose line of sight is tested together
_RANGE_MARGIN = 1e-9  # relative; covers np.hypot's rounding against math.hypot


def confirming_cells(
    grid: GridMap, target: ObjectSpec, cam_range: float, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """The one confirming-cell rule: which cells (``xs``, ``ys``) have their
    centre within ``(0, cam_range + resolution]`` of the target by
    ``math.hypot`` (half a cell of tolerance at the rim) and in line of sight
    of it, past its :func:`object_slack`.  The robot can turn, so the field of
    view does not matter."""
    res = grid.resolution
    tx, ty = target.position
    cx, cy = (xs + 0.5) * res, (ys + 0.5) * res
    near = [
        k for k, (dx, dy) in enumerate(zip((tx - cx).tolist(), (ty - cy).tolist()))
        if 0.0 < math.hypot(dx, dy) <= cam_range + res
    ]
    seen = np.zeros(cx.shape, dtype=bool)
    origins = np.column_stack((cx[near], cy[near]))
    seen[near] = lines_of_sight(grid, origins, target.position, object_slack(target, res))
    return seen


def ground_truth_shortest(scenario: ScenarioSpec) -> float:
    """Length of the shortest path from the start, driving by the episode's
    :func:`drivable_mask` on the fully known map, to a cell that
    :func:`confirming_cells` accepts; inf when none is reachable.  So a start
    inside the inflated walls drives out of the robot's own disk.

    Reachable cells are ranked by path length with a stable sort.  ``np.hypot``
    on whole arrays, with a margin for its one-ulp differences from
    ``math.hypot``, drops those clearly out of range; the rest go to
    :func:`confirming_cells` in rank order, ``_LOS_CHUNK`` at a time, because
    most searches end on their first few."""
    grid = scenario.map
    res = grid.resolution
    start = grid.world_to_cell(scenario.start.x, scenario.start.y)
    drivable = drivable_mask(grid, start, scenario.planner.robot_radius)
    dist = distance_field(drivable, res, [start])
    target = scenario.target
    cam_range = scenario.hyperparams.cam_range
    ys, xs = np.nonzero(np.isfinite(dist))
    gap = np.hypot(target.position[0] - (xs + 0.5) * res, target.position[1] - (ys + 0.5) * res)
    near = np.flatnonzero(gap <= (cam_range + res) * (1.0 + _RANGE_MARGIN))
    near = near[np.argsort(dist[ys[near], xs[near]], kind="stable")]
    for lo in range(0, near.size, _LOS_CHUNK):
        chunk = near[lo : lo + _LOS_CHUNK]
        seen = confirming_cells(grid, target, cam_range, xs[chunk], ys[chunk])
        if seen.any():
            i = chunk[int(np.argmax(seen))]
            return float(dist[ys[i], xs[i]])
    return math.inf
