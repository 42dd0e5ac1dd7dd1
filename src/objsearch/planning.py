"""Planning: the drivable rule, shortest paths, viewpoints, waypoint order, frontiers, SPL.

Every map here is a :class:`~objsearch.world.GridMap`.  Paths are
8-connected over Free cells, walked down a Dijkstra distance field; Unknown
space never counts as traversable.  The robot drives by one rule,
:func:`drivable_mask`, which the episode applies to its belief and
:func:`ground_truth_shortest` to the scenario's fully known map for SPL.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .errors import DomainError, NoPathError
from .sensing import line_of_sight, object_slack
from .world import CellState, GridMap, HyperParams, ObjectSpec, PlannerParams, Pose, ScenarioSpec
from .world import normalize_angle

SQRT2 = math.sqrt(2.0)
COST_FLOOR = 1e-3  # keeps the co-occurrence penalty positive at cooccur = 1

# The 8 neighbours as (dx, dy, step), in order of flat index offset.
_NEIGHBORS = tuple(
    (dx, dy, SQRT2 if dx and dy else 1.0) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dx or dy
)
# A cell's out-edge weights in :func:`distance_field`, in :data:`_NEIGHBORS`
# order, indexed by whether the cell is traversable.
_WEIGHT_ROWS = np.array([[math.inf] * len(_NEIGHBORS), [step for _, _, step in _NEIGHBORS]])
# 8-connectivity for ``ndimage.label``: diagonal neighbours join, as on the
# graph :func:`distance_field` searches.
EIGHT_CONNECTED = ndimage.generate_binary_structure(2, 2)
# Relative gap below which two path lengths are one length up to rounding;
# distinct 8-connected lengths on any map here differ far more.
_TIE_TOLERANCE = 1e-9


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
    """Cells of an 8-connected grid path, from its start to its goal."""

    cells: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Frontier:
    """An 8-connected cluster of observed-free cells touching unknown space."""

    cells: tuple[tuple[int, int], ...]
    centroid: tuple[float, float]
    closest_cell: tuple[int, int]


def _radius_cells(radius: float, resolution: float) -> int:
    """Smallest whole number of cells that covers a metric radius."""
    return int(math.ceil(radius / resolution - 1e-9))


def _disk_rows(radius_cells: int) -> Iterator[tuple[int, int]]:
    """The one definition of the disk of cells within ``radius_cells`` of a
    centre cell, row by row: ``(|dy|, half-width)`` for ``|dy|`` from the
    radius down to 0, where row ``dy`` spans ``|dx| <= isqrt(r**2 - dy**2)``."""
    for dy in range(radius_cells, -1, -1):
        yield dy, math.isqrt(radius_cells * radius_cells - dy * dy)


def inflate_occupied(occupied: np.ndarray, radius_cells: int) -> np.ndarray:
    """Dilate an occupancy mask by the disk of :func:`_disk_rows` with the
    given cell radius; cells beyond the border count as free.

    The disk's half-width grows as ``|dy|`` falls.  So the mask is dilated
    along x one half-width at a time, each from the last by two shifted
    ORs, and each dilation is ORed into the result shifted up and down by
    the ``|dy|`` of every row that has that half-width: at most ``4r + 1``
    shifted ORs, not one per disk cell.  Shifts of a whole side or more
    move every cell off the map and are skipped.
    """
    if radius_cells <= 0:
        return occupied.copy()
    height, width = occupied.shape
    row = occupied.copy()  # dilated along x by ``reach``
    out = np.zeros((height, width), dtype=bool)
    reach = 0
    for dy, half in _disk_rows(radius_cells):
        for dx in range(reach + 1, min(half, width - 1) + 1):
            row[:, dx:] |= occupied[:, :-dx]
            row[:, :-dx] |= occupied[:, dx:]
        reach = half
        if dy == 0:
            out |= row
        elif dy < height:
            out[dy:] |= row[:-dy]
            out[:-dy] |= row[dy:]
    return out


def traversable_mask(grid: GridMap, robot_radius: float) -> np.ndarray:
    """Free cells that keep the robot body clear of known obstacles."""
    occupied = grid.cells == CellState.OCCUPIED.value
    inflated = inflate_occupied(occupied, _radius_cells(robot_radius, grid.resolution))
    return (grid.cells == CellState.FREE.value) & ~inflated


def clear_robot_disk(
    trav: np.ndarray, grid: GridMap, cell: tuple[int, int], robot_radius: float
) -> np.ndarray:
    """Whitelist the free cells under the robot's own footprint, the disk of
    :func:`_disk_rows` that :func:`traversable_mask` inflates by, one row of
    cells at a time.

    A lidar update can reveal an obstacle right next to the robot, at which
    point inflation would swallow the cell it is standing on and strand it.
    The robot's body is proof those free cells are passable.
    """
    cx, cy = cell
    free = CellState.FREE.value
    for dy, half in _disk_rows(_radius_cells(robot_radius, grid.resolution)):
        cols = slice(max(cx - half, 0), min(cx + half + 1, grid.width))
        for y in (cy - dy, cy + dy) if dy else (cy,):
            if 0 <= y < grid.height:
                trav[y, cols] |= grid.cells[y, cols] == free
    trav[cy, cx] = True
    return trav


def drivable_mask(grid: GridMap, cell: tuple[int, int], robot_radius: float) -> np.ndarray:
    """The one drivable rule: :func:`traversable_mask` plus the free cells of
    the robot's disk at ``cell`` (:func:`clear_robot_disk`)."""
    return clear_robot_disk(traversable_mask(grid, robot_radius), grid, cell, robot_radius)


def plan_path(dist_field: np.ndarray, goal: tuple[int, int], resolution: float) -> Path:
    """Shortest 8-connected path from the source of a :func:`distance_field`
    to ``goal``, walked down the field from the goal.

    Each step goes to the neighbour with the smallest ``dist + step *
    resolution``; values equal but for rounding tie, and ties go to the lowest
    flat cell index.  The walk ends at the source, where the distance is 0.
    The path's length is ``dist_field[goal]``, which the caller holds.
    A goal off the map or at distance ``inf`` raises :class:`NoPathError`.

    On a field bounded at some reach (:func:`distance_field`), a goal with a
    finite value gets the whole field's path.  Every cell of the walk is
    nearer than the goal, so within the reach, with its exact value.  A
    neighbour beyond the reach (``inf`` here) has a whole-field value above
    the goal's, so with its step it exceeds the best by more than a step and
    would never win or tie there either.
    """
    height, width = dist_field.shape
    x, y = int(goal[0]), int(goal[1])
    if not (0 <= x < width and 0 <= y < height) or not math.isfinite(dist_field[y, x]):
        raise NoPathError(f"goal cell {goal} is not reachable")
    cells = [(x, y)]
    here = float(dist_field[y, x])
    while here > 0.0:
        tolerance = _TIE_TOLERANCE * here
        best = math.inf
        for dx, dy, step in _NEIGHBORS:
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height:
                value = float(dist_field[ny, nx]) + step * resolution
                if value < best - tolerance:
                    best, bx, by = value, nx, ny
        x, y = bx, by
        cells.append((x, y))
        here = float(dist_field[y, x])
    cells.reverse()
    return Path(tuple(cells))


@functools.lru_cache(maxsize=8)
def _neighbor_slots(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices and row pointers of a CSR graph over a ``height`` by
    ``width`` grid with 8 slots per cell, one per direction of
    :data:`_NEIGHBORS` in that order; a neighbour off the map is a self loop.
    Both arrays are int32 and read-only, shared by every call on the shape."""
    cells = np.arange(height * width, dtype=np.int32).reshape(height, width)
    padded = np.pad(cells, 1, constant_values=-1)
    indices = np.empty((height, width, len(_NEIGHBORS)), dtype=np.int32)
    for k, (dx, dy, _) in enumerate(_NEIGHBORS):
        neighbor = padded[1 + dy : height + 1 + dy, 1 + dx : width + 1 + dx]
        indices[:, :, k] = np.where(neighbor < 0, cells, neighbor)
    indptr = np.arange(0, indices.size + 1, len(_NEIGHBORS), dtype=np.int32)
    indices = indices.ravel()
    indices.flags.writeable = indptr.flags.writeable = False
    return indices, indptr


def distance_field(
    traversable: np.ndarray,
    resolution: float,
    source: tuple[int, int],
    reach: float,
) -> np.ndarray:
    """Metric shortest-path distance from the ``source`` cell (x, y) to every
    cell within ``reach`` metres of travel; ``math.inf`` gives the whole field.

    Unreachable and non-traversable cells, and cells farther than ``reach``,
    hold ``inf``; so does every cell when the source is off the map or not
    traversable.  Exact octile costs, computed with a C Dijkstra over the
    8-connected free-cell graph.  The
    graph's layout is fixed per map shape (:func:`_neighbor_slots`, cached):
    every cell has one directed slot per neighbour direction, so a call
    builds only the weights, by the cell an edge leaves: the step out of a
    traversable cell and ``inf`` out of any other, one row gathered from
    :data:`_WEIGHT_ROWS` per cell.  An ``inf`` edge is never relaxed.  A
    non-traversable cell may receive a finite value over its in-edges, but
    its out-edges are all ``inf``, so it passes nothing on and every other
    cell gets the value it would get without those edges; it is set to
    ``inf`` afterwards.  Each cell's
    value is the minimum over its neighbours of (their value + step), which
    does not depend on the order edges are stored or relaxed in.

    A finite reach bounds the search in two ways, neither of which changes
    a value it keeps; a cell keeps its whole-field value exactly when that
    value is at most ``reach``.

    - Dijkstra stops at ``limit``, ``reach / resolution`` in steps (widened
      by :data:`_TIE_TOLERANCE` against the division's rounding; values past
      ``reach`` are set to ``inf`` afterwards).  Every step costs at least
      one, so a neighbour that gives a cell its minimum is at least one step
      nearer; a cell within the limit is therefore settled after every such
      neighbour, its minimising edge is relaxed, and it gets its whole-field
      value.  A cell past the limit never gets a value.
    - The mask is cropped to the square window of ``k = ceil(reach /
      resolution) + 1`` cells on each side of the source, padded with
      non-traversable cells where it passes the map's border, so the
      window is always ``2k + 1`` cells wide and :func:`_neighbor_slots`
      has one cached layout per ``k``.  A step moves at most one cell along
      each axis and costs at least one, so a cell within the limit (whose
      widening is far below a step) lies at most ``ceil(reach /
      resolution)`` cells from the source along each axis; the ``+ 1`` is a
      ring beyond that, so every edge of every such cell is an edge of the
      window's graph, as of the map's.  Padding adds only blocked cells,
      which pass nothing on.  The same weights, graph and Dijkstra then run
      on the window, or on the whole mask when the window would hold as
      many cells as the map or more.  ``reach / resolution`` is clamped to
      the map's longer side before the ``ceil``, which keeps ``k`` finite.
    """
    if not reach >= 0.0:
        raise DomainError(f"distance_field reach {reach} must be >= 0")
    height, width = traversable.shape
    trav = np.ascontiguousarray(traversable, dtype=bool)
    x, y = int(source[0]), int(source[1])
    if not (0 <= x < width and 0 <= y < height and trav[y, x]):
        return np.full((height, width), np.inf)
    limit = reach / resolution * (1.0 + _TIE_TOLERANCE)
    k = math.ceil(min(reach / resolution, max(height, width))) + 1
    side = 2 * k + 1
    if side * side >= height * width:
        field = _window_field(trav, y * width + x, limit) * resolution
        field[field > reach] = np.inf
        return field
    # The window's part on the map, in map and in window coordinates.
    x0, y0 = x - k, y - k
    on_map = (slice(max(y0, 0), min(y0 + side, height)),
              slice(max(x0, 0), min(x0 + side, width)))
    in_window = tuple(slice(s.start - o, s.stop - o) for s, o in zip(on_map, (y0, x0)))
    window = np.zeros((side, side), dtype=bool)
    window[in_window] = trav[on_map]
    kept = _window_field(window, k * side + k, limit)[in_window]
    kept *= resolution
    kept[kept > reach] = np.inf
    field = np.full((height, width), np.inf)
    field[on_map] = kept
    return field


def _window_field(trav: np.ndarray, index: int, limit: float) -> np.ndarray:
    """:func:`distance_field`'s Dijkstra in steps on a contiguous mask, from
    the traversable cell at flat ``index``, searching no farther than ``limit``."""
    height, width = trav.shape
    weights = _WEIGHT_ROWS.take(trav.reshape(-1).view(np.uint8), axis=0)
    n = height * width
    graph = csr_matrix((weights.reshape(-1), *_neighbor_slots(height, width)), shape=(n, n))
    field = _csgraph_dijkstra(graph, directed=True, indices=index, min_only=True, limit=limit)
    field[~trav.reshape(-1)] = np.inf
    field[index] = 0.0
    return field.reshape(height, width)


def viewpoint_ring(
    grid: GridMap, center: tuple[float, float], params: PlannerParams
) -> Iterator[tuple[tuple[float, float], tuple[int, int]]]:
    """The ring of candidate viewpoints around ``center``: the points at
    ``view_radius`` at ``view_directions`` evenly spaced angles, in angle
    order, each with its cell.  Points whose cell is off the map are left out."""
    x, y = center
    for i in range(params.view_directions):
        angle = 2.0 * math.pi * i / params.view_directions
        px = x + params.view_radius * math.cos(angle)
        py = y + params.view_radius * math.sin(angle)
        cell = grid.world_to_cell(px, py)
        if grid.in_bounds(*cell):
            yield (px, py), cell


def generate_viewpoints(
    belief: GridMap,
    landmark: LandmarkEntry,
    params: PlannerParams,
    dist_field: np.ndarray,
) -> Viewpoint | None:
    """Best observation pose on a ring around a landmark, or None if unreachable.

    Candidates are the :func:`viewpoint_ring` points, facing the landmark's
    center.  ``dist_field`` must be the robot's travel distance, a
    :func:`distance_field` over the belief's :func:`drivable_mask` from the
    robot's cell: a finite value then marks an observed-free, traversable and
    reachable cell, and the others hold ``inf``.  The candidate with the
    smallest finite value wins, and ties go to the lower angle index.

    On a field bounded at some reach (:func:`distance_field`), a viewpoint
    found is the whole field's: the winner is within the reach, so every
    candidate that could beat or tie it is too, with its exact value.
    """
    lx, ly = landmark.position
    if not belief.in_bounds(*belief.world_to_cell(lx, ly)):
        raise DomainError(f"landmark position {landmark.position} outside map bounds")

    best: Viewpoint | None = None
    best_dist = math.inf
    for (px, py), (cx, cy) in viewpoint_ring(belief, landmark.position, params):
        dist = float(dist_field[cy, cx])
        if dist >= best_dist:
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
    free = belief.cells == CellState.FREE.value
    unknown = belief.cells == CellState.UNKNOWN.value
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
    cluster label.  The closest cell is the first member at that distance in
    row-major order.  The cluster's cells are listed in (x, y) order, and its
    centroid is the mean of their centres, summed in that order.

    The clusters are labelled in the bounding box of the frontier cells
    alone.  Cropping keeps the row-major order of the cells in the box, so
    the labels, which number the clusters in the order their first cells
    come, are those of the whole map, and so are the ties.

    On a field bounded at some reach (:func:`distance_field`), a frontier
    found is the whole field's: its distance is within the reach, so every
    cell at that distance or nearer holds its exact value, and cluster size
    does not read the field.
    """
    mask = frontier_cells_mask(belief)
    rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return None
    y0, x0 = int(rows[0]), int(cols[0])
    window = (slice(y0, int(rows[-1]) + 1), slice(x0, int(cols[-1]) + 1))
    mask, dist = mask[window], dist_field[window]
    labels, _ = ndimage.label(mask, structure=EIGHT_CONNECTED)
    ys, xs = np.nonzero(mask & np.isfinite(dist))
    cell_labels = labels[ys, xs]
    large = np.bincount(labels.ravel())[cell_labels] >= params.min_frontier_cells
    ys, xs, cell_labels = ys[large], xs[large], cell_labels[large]
    if xs.size == 0:
        return None
    cell_dist = dist[ys, xs]
    nearest = np.flatnonzero(cell_dist == cell_dist.min())  # in row-major order
    win = nearest[np.argmin(cell_labels[nearest])]
    closest = (int(xs[win]) + x0, int(ys[win]) + y0)
    ys, xs = np.nonzero(labels == cell_labels[win])
    by_cell = np.lexsort((ys, xs))  # (x, y) order, as the cells are listed
    xs, ys = xs[by_cell] + x0, ys[by_cell] + y0
    res = belief.resolution
    centroid = (float(np.mean((xs + 0.5) * res)), float(np.mean((ys + 0.5) * res)))
    return Frontier(cells=tuple(zip(xs.tolist(), ys.tolist())), centroid=centroid,
                    closest_cell=closest)


_RANGE_MARGIN = 1e-9  # relative; covers np.hypot's rounding against math.hypot


def _axis_gaps(
    lo: float, hi: float, reach: float, resolution: float, size: int
) -> tuple[int, np.ndarray]:
    """First index, and gaps to ``[lo, hi]`` of the cell centres, of the cells
    along one axis whose centres can lie within ``reach`` of that span, with a
    cell to spare on each side, clipped to the map's ``size`` cells."""
    start = math.floor(max((lo - reach) / resolution - 1.5, 0.0))
    stop = math.ceil(min((hi + reach) / resolution + 0.5, size))
    centres = (np.arange(start, stop) + 0.5) * resolution
    return start, np.maximum(np.maximum(lo - centres, centres - hi), 0.0)


def cells_near(
    mask: np.ndarray, rect: tuple, resolution: float, max_dist: float
) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys) of the cells set in ``mask`` whose centres lie within ``(0,
    max_dist]`` of the rectangle ``rect = (x0, y0, x1, y1)``, in row-major
    order; a point is a rectangle with no area.  This is the one range rule:
    ``math.hypot`` of a centre's gaps to the rectangle along x and y decides.

    Only the rows and columns that can qualify are read, also when
    ``max_dist`` is infinite.  ``np.hypot`` decides every cell clear of
    ``max_dist`` by the relative ``_RANGE_MARGIN``, far wider than its
    one-ulp differences from ``math.hypot``, which decides the cells inside it."""
    reach = max_dist * (1.0 + _RANGE_MARGIN)
    x0, dx = _axis_gaps(rect[0], rect[2], reach, resolution, mask.shape[1])
    y0, dy = _axis_gaps(rect[1], rect[3], reach, resolution, mask.shape[0])
    window = mask[y0 : y0 + dy.size, x0 : x0 + dx.size]
    ys, xs = np.divmod(np.flatnonzero(window), dx.size)
    dx, dy = dx[xs], dy[ys]
    gap = np.hypot(dx, dy)
    near = (gap > 0.0) & (gap <= reach)
    band = np.flatnonzero(near & (gap >= max_dist * (1.0 - _RANGE_MARGIN)))
    for k, gx, gy in zip(band.tolist(), dx[band].tolist(), dy[band].tolist()):
        near[k] = math.hypot(gx, gy) <= max_dist
    return xs[near] + x0, ys[near] + y0


def _by_rank(xs: np.ndarray, ys: np.ndarray, keys: np.ndarray) -> Iterator[tuple[int, int]]:
    """Cells ``(x, y)`` in stable order of ``keys``, lazily: the first by
    ``np.argmin``, the rest from a stable sort made only if they are asked for."""
    top = int(np.argmin(keys))
    yield int(xs[top]), int(ys[top])
    rest = np.argsort(keys, kind="stable")[1:]
    yield from zip(xs[rest].tolist(), ys[rest].tolist())


def first_confirming(
    grid: GridMap, target: ObjectSpec, hyper: HyperParams, mask: np.ndarray | tuple[int, int],
    rank: Callable[[np.ndarray, np.ndarray], np.ndarray] | None,
) -> tuple[int, int] | None:
    """The one confirming rule: the first cell set in ``mask``, in stable
    order of the keys ``rank(xs, ys)``, whose centre lies in ``(0, max_dist]``
    of the target and in line of sight of it past its :func:`object_slack`;
    None when none is.  :func:`cells_near` finds the cells in range, and each
    is tested with one :func:`~objsearch.sensing.line_of_sight` ray until one
    confirms.  The robot can turn, so the field of view does not matter.

    The top-ranked cell is tried first, before any sort: ``np.argmin`` of
    the keys, which picks the first of tied keys, as the stable sort puts
    first.  The rest are sorted only when that cell does not confirm.  Both
    callers' keys are finite; a NaN key would break the agreement, since
    ``argmin`` picks the first NaN and the sort puts NaNs last.

    ``max_dist`` is ``cam_range`` and one whole cell: the robot confirms from
    poses anywhere in a cell, at most half its diagonal from the centre, so a
    target the camera sees lies within ``max_dist`` of that centre.

    ``mask`` may be one cell ``(x, y)`` instead, for the generator's start
    check; ``rank`` is then unused, and ``math.hypot`` of the centre's
    offsets decides the range, as for a point's gaps in :func:`cells_near`."""
    res = grid.resolution
    tx, ty = target.position
    max_dist = hyper.cam_range + res
    if isinstance(mask, tuple):
        x, y = mask
        gap = math.hypot((x + 0.5) * res - tx, (y + 0.5) * res - ty)
        cells = [mask] if 0.0 < gap <= max_dist else []
    else:
        xs, ys = cells_near(mask, (tx, ty, tx, ty), res, max_dist)
        cells = _by_rank(xs, ys, rank(xs, ys)) if xs.size else []
    slack = object_slack(target, res)
    for x, y in cells:
        if line_of_sight(grid, ((x + 0.5) * res, (y + 0.5) * res), target.position, slack):
            return x, y
    return None


def ground_truth_shortest(scenario: ScenarioSpec) -> float:
    """Length of the shortest path from the start, driving by the episode's
    :func:`drivable_mask` on the fully known map, to a reachable cell that
    :func:`first_confirming` accepts; inf when none is.  So a start inside the
    inflated walls drives out of the robot's own disk.  The cells are ranked
    by path length, so the first that confirms is a nearest one.  The length
    is finite exactly when :func:`target_observable` holds, which answers
    that without the distance field."""
    grid = scenario.map
    start = grid.world_to_cell(scenario.start.x, scenario.start.y)
    drivable = drivable_mask(grid, start, scenario.planner.robot_radius)
    dist = distance_field(drivable, grid.resolution, start, math.inf)
    hit = first_confirming(grid, scenario.target, scenario.hyperparams, np.isfinite(dist),
                           lambda xs, ys: dist[ys, xs])
    return math.inf if hit is None else float(dist[hit[1], hit[0]])


def target_observable(scenario: ScenarioSpec, traversable: np.ndarray) -> bool:
    """Whether :func:`ground_truth_shortest` is finite: some cell that
    :func:`first_confirming` accepts is reachable from the start.
    ``traversable`` is the scenario map's :func:`traversable_mask` at the
    planner's robot radius; the start's disk is freed on a copy of it, which
    gives :func:`drivable_mask` without inflating the map again.

    The reachable cells are the start's 8-connected component of the
    drivable mask, which ``ndimage.label`` with a 3x3 structure finds over
    the same graph :func:`distance_field` searches (diagonal steps need no
    free side cell).  The start's cell is drivable, so when the label finds
    one component, that component is the drivable mask itself, which is
    searched as it is; this is the common case on generated maps.  The
    cells are ranked nearest the target first, where a cell that confirms
    is most likely; the answer is whether any cell confirms, so the order
    cannot change it."""
    grid = scenario.map
    res = grid.resolution
    sx, sy = start = grid.world_to_cell(scenario.start.x, scenario.start.y)
    drivable = clear_robot_disk(traversable.copy(), grid, start, scenario.planner.robot_radius)
    labels, count = ndimage.label(drivable, structure=EIGHT_CONNECTED)
    reachable = drivable if count == 1 else labels == labels[sy, sx]
    tx, ty = scenario.target.position
    return first_confirming(
        grid, scenario.target, scenario.hyperparams, reachable,
        lambda xs, ys: np.hypot((xs + 0.5) * res - tx, (ys + 0.5) * res - ty),
    ) is not None
