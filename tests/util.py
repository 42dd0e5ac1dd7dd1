"""Shared helpers: small test scenarios, the step-by-step grid walk, the
confirming rule tested one cell at a time on it, one camera frame and one
candidate's confirmation computed entity by entity from its pose alone,
and a lookup of a lidar sweep's cached cell offsets."""

from __future__ import annotations

import json
import math

import numpy as np

from objsearch import world
from objsearch.errors import DomainError
from objsearch.matching import UNKNOWN_LABEL, unit
from objsearch.sensing import bbox_from_geometry
from objsearch.world import CellState, GridMap, ScenarioSpec, load_scenario, normalize_angle


def unknown_belief(grid: GridMap) -> GridMap:
    """An all-Unknown belief of the grid's shape, as an episode starts with."""
    return GridMap(grid.width, grid.height, grid.resolution,
                   np.full(grid.cells.shape, CellState.UNKNOWN, dtype=np.uint8))


def empty_rows(width: int, height: int, border: bool = True) -> list[str]:
    rows = []
    for iy in range(height - 1, -1, -1):
        row = []
        for ix in range(width):
            wall = border and (ix in (0, width - 1) or iy in (0, height - 1))
            row.append("#" if wall else ".")
        rows.append("".join(row))
    return rows


def carve_footprint(rows: list[str], footprint, res: float) -> None:
    """Mark the cells under a footprint rectangle as occupied (rows mutate)."""
    x0, y0, x1, y1 = footprint
    height = len(rows)
    for iy in range(int(y0 / res), int(y1 / res) + 1):
        for ix in range(int(x0 / res), int(x1 / res) + 1):
            cx, cy = (ix + 0.5) * res, (iy + 0.5) * res
            if x0 <= cx <= x1 and y0 <= cy <= y1:
                r = height - 1 - iy
                rows[r] = rows[r][:ix] + "#" + rows[r][ix + 1 :]


def box_scenario(
    size_m: float = 8.0,
    landmarks: list[dict] | None = None,
    objects: list[dict] | None = None,
    start: tuple[float, float, float] = (1.0, 1.0, 0.0),
    target: str = "book",
    res: float = 0.1,
    hyperparams: dict | None = None,
    sensor: dict | None = None,
    planner: dict | None = None,
    seed: int = 0,
) -> ScenarioSpec:
    """A bordered square room with the given landmarks/objects, validated."""
    n = int(round(size_m / res))
    rows = empty_rows(n, n)
    landmarks = landmarks or []
    for lm in landmarks:
        carve_footprint(rows, lm["footprint"], res)
    doc = {
        "map": {"rows": rows, "resolution": res},
        "landmarks": landmarks,
        "objects": objects
        if objects is not None
        else [
            {
                "id": "T0",
                "name": target,
                "position": [size_m / 2, size_m / 2],
                "radius": 0.15,
                "is_target": True,
            }
        ],
        "start": list(start),
        "target": target,
        "seed": seed,
    }
    if hyperparams:
        doc["hyperparams"] = hyperparams
    if sensor:
        doc["sensor"] = sensor
    if planner:
        doc["planner"] = planner
    return load_scenario(json.dumps(doc))


def open_border_scenario(cam_range: float | None = None) -> ScenarioSpec:
    """A 6 m by 3 m map at 0.1 m whose border cells are free: a one-cell wall
    at x = 3 m with a 0.4 m door, an unknown 0.4 m desk, the target cup
    beyond the wall, and three clutter detections per frame."""
    rows = ["".join("#" if (ix == 30 and not 13 <= iy <= 16)
                    or (10 <= ix <= 13 and 20 <= iy <= 23) else "."
                    for ix in range(60))
            for iy in range(29, -1, -1)]
    doc = {
        "map": {"rows": rows, "resolution": 0.1},
        "landmarks": [{"id": "L0", "name": "desk", "known": False,
                       "footprint": [1.0, 2.0, 1.4, 2.4]}],
        "objects": [{"id": "T0", "name": "cup", "position": [5.55, 2.55], "radius": 0.15,
                     "is_target": True}],
        "start": [0.55, 0.55, 0.0],
        "target": "cup",
        "sensor": {"clutter": 3},
        "hyperparams": {"fail_distance": 30.0},
    }
    if cam_range is not None:
        doc["hyperparams"]["cam_range"] = cam_range
    return load_scenario(json.dumps(doc))


def minimal_doc() -> dict:
    """A valid 10 x 10 scenario document with one landmark and the target."""
    rows = empty_rows(10, 10)
    # one landmark footprint occupying a cell block
    for iy in (7, 8):
        r = 10 - 1 - iy
        rows[r] = rows[r][:2] + "##" + rows[r][4:]
    return {
        "map": {"rows": rows, "resolution": 0.1},
        "landmarks": [
            {"id": "L0", "name": "desk", "known": False, "footprint": [0.2, 0.7, 0.4, 0.9]}
        ],
        "objects": [
            {"id": "T0", "name": "book", "position": [0.5, 0.5], "radius": 0.1, "is_target": True}
        ],
        "start": [0.55, 0.25, 0.0],
        "target": "book",
    }


def stepwise_raycast_batch(grid, origin, bearings, max_range, free_mask=None, hit_mask=None):
    """Reference: the Amanatides & Woo (1987) grid walk, advanced one
    grid-line crossing per iteration for every active ray at once.  It
    shares no code with ``objsearch.world``; ``free_mask`` and ``hit_mask``,
    when given, collect the cells the rays cross and hit."""
    x0, y0 = float(origin[0]), float(origin[1])
    res = grid.resolution
    ix0, iy0 = math.floor(x0 / res), math.floor(y0 / res)
    if not (0 <= ix0 < grid.width and 0 <= iy0 < grid.height):
        raise DomainError(f"raycast origin {origin} outside map bounds")
    bearings = np.asarray(bearings, dtype=np.float64)
    n = bearings.shape[0]
    dist = np.full(n, float(max_range))
    blocked = np.zeros(n, dtype=bool)
    if grid.cells[iy0, ix0] == CellState.OCCUPIED:
        if hit_mask is not None:
            hit_mask[iy0, ix0] = True
        return np.zeros(n), np.ones(n, dtype=bool)
    if free_mask is not None:
        free_mask[iy0, ix0] = True

    dx = np.cos(bearings)
    dy = np.sin(bearings)
    step_x = np.sign(dx).astype(np.int64)
    step_y = np.sign(dy).astype(np.int64)
    with np.errstate(divide="ignore"):
        inv_dx = np.where(dx != 0.0, 1.0 / dx, np.inf)
        inv_dy = np.where(dy != 0.0, 1.0 / dy, np.inf)
    ix = np.full(n, ix0, dtype=np.int64)
    iy = np.full(n, iy0, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        tmax_x = np.where(step_x != 0, ((ix + (step_x > 0)) * res - x0) * inv_dx, np.inf)
        tmax_y = np.where(step_y != 0, ((iy + (step_y > 0)) * res - y0) * inv_dy, np.inf)
    tdelta_x = np.where(step_x != 0, res * np.abs(inv_dx), np.inf)
    tdelta_y = np.where(step_y != 0, res * np.abs(inv_dy), np.inf)

    active = np.ones(n, dtype=bool)
    cells = grid.cells
    while active.any():
        t_entry = np.minimum(tmax_x, tmax_y)
        active &= t_entry <= max_range
        if not active.any():
            break
        go_x = active & (tmax_x <= tmax_y)
        go_y = active & ~go_x
        ix[go_x] += step_x[go_x]
        tmax_x[go_x] += tdelta_x[go_x]
        iy[go_y] += step_y[go_y]
        tmax_y[go_y] += tdelta_y[go_y]
        inside = (ix >= 0) & (ix < grid.width) & (iy >= 0) & (iy < grid.height)
        active &= inside
        if not active.any():
            break
        hit = active.copy()
        hit[active] = cells[iy[active], ix[active]] == CellState.OCCUPIED
        if hit.any():
            dist[hit] = t_entry[hit]
            blocked[hit] = True
            if hit_mask is not None:
                hit_mask[iy[hit], ix[hit]] = True
            active &= ~hit
        if free_mask is not None and active.any():
            free_mask[iy[active], ix[active]] = True
    return dist, blocked


def stepwise_ray(grid, origin, bearing, max_range):
    """Reference: one ray of :func:`stepwise_raycast_batch`, walked with
    Python scalars for callers that trace one ray at a time.  It shares no
    code with ``objsearch.world``: it reads the grid's size, resolution and
    cells alone, and takes its direction cosines from a one-element array,
    as the batch walk does.  Returns (distance, blocked)."""
    x0, y0 = float(origin[0]), float(origin[1])
    res = grid.resolution
    ix, iy = math.floor(x0 / res), math.floor(y0 / res)
    width, height, cell = grid.width, grid.height, grid.cells.item
    occupied = CellState.OCCUPIED.value
    if not (0 <= ix < width and 0 <= iy < height):
        raise DomainError(f"raycast origin {origin} outside map bounds")
    max_range = float(max_range)
    if cell(iy, ix) == occupied:
        return 0.0, True
    bearings = np.array([bearing], dtype=np.float64)
    dx, dy = float(np.cos(bearings)[0]), float(np.sin(bearings)[0])
    step_x, step_y = (dx > 0.0) - (dx < 0.0), (dy > 0.0) - (dy < 0.0)
    tmax_x = tdelta_x = tmax_y = tdelta_y = math.inf
    if step_x:
        inv = 1.0 / dx
        tmax_x, tdelta_x = ((ix + (step_x > 0)) * res - x0) * inv, res * abs(inv)
    if step_y:
        inv = 1.0 / dy
        tmax_y, tdelta_y = ((iy + (step_y > 0)) * res - y0) * inv, res * abs(inv)
    while True:
        t_entry = tmax_x if tmax_x < tmax_y else tmax_y
        if not t_entry <= max_range:
            return max_range, False
        if tmax_x <= tmax_y:
            ix += step_x
            tmax_x += tdelta_x
        else:
            iy += step_y
            tmax_y += tdelta_y
        if not (0 <= ix < width and 0 <= iy < height):
            return max_range, False
        if cell(iy, ix) == occupied:
            return t_entry, True


def reference_line_of_sight(grid, origin, point, slack):
    """Reference: whether ``point`` is in sight from ``origin``, that is
    whether :func:`stepwise_ray` toward it is clear or stops within ``slack``
    of it; a point is in sight of itself."""
    dx, dy = point[0] - origin[0], point[1] - origin[1]
    distance = math.hypot(dx, dy)
    if distance <= 0.0:
        return True
    dist, blocked = stepwise_ray(grid, origin, math.atan2(dy, dx), distance)
    return not blocked or dist >= distance - slack


def reference_first_confirming(grid, target, cam_range, xs, ys):
    """Reference: the range and confirming-cell rules one cell at a time, in
    the given order.  Index of the first cell whose centre lies within (0,
    cam_range + resolution] of the target and sees it, past the target's
    radius and two cells, by :func:`reference_line_of_sight`; None when no
    cell does."""
    res = grid.resolution
    tx, ty = target.position
    for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        cx, cy = (x + 0.5) * res, (y + 0.5) * res
        if not 0.0 < math.hypot(tx - cx, ty - cy) <= cam_range + res:
            continue
        if reference_line_of_sight(grid, (cx, cy), target.position, target.radius + 2.0 * res):
            return i
    return None


def reference_confirms(scenario, box, pose):
    """Reference: whether a candidate box seen from ``pose`` confirms the
    target.  The target must lie within (0, cam_range] of the pose, within
    fov/2 of its heading and in :func:`reference_line_of_sight`, past its
    radius and two cells; then the box must overlap the target's projected
    box with IoU above 0.3 or cover it with IoA (over the candidate's area)
    above 0.5."""
    grid, hp, target = scenario.map, scenario.hyperparams, scenario.target
    tx, ty = target.position
    distance = math.hypot(tx - pose.x, ty - pose.y)
    if not 0.0 < distance <= hp.cam_range:
        return False
    rel = normalize_angle(math.atan2(ty - pose.y, tx - pose.x) - pose.theta)
    if abs(rel) > hp.fov / 2.0:
        return False
    slack = target.radius + 2.0 * grid.resolution
    if not reference_line_of_sight(grid, (pose.x, pose.y), target.position, slack):
        return False
    truth = bbox_from_geometry(rel, distance, target.radius, hp.fov)
    overlap = (max(0.0, min(box.x_max, truth.x_max) - max(box.x_min, truth.x_min))
               * max(0.0, min(box.y_max, truth.y_max) - max(box.y_min, truth.y_min)))
    box_area = (box.x_max - box.x_min) * (box.y_max - box.y_min)
    truth_area = (truth.x_max - truth.x_min) * (truth.y_max - truth.y_min)
    return overlap / (box_area + truth_area - overlap) > 0.3 or overlap / box_area > 0.5


def reference_camera_frame(scenario, store, pose, rng):
    """Reference: one camera frame worked out from its pose alone, entity by
    entity, as ``(source, label, bbox, embedding, range, bearing)`` tuples.
    Each entity's range, bearing, field of view and
    :func:`reference_line_of_sight` are computed for this frame, and the
    draws come in the camera's order: a miss, then the embedding noise, per
    seen entity, then each clutter detection's bearing, its limit, range and
    embedding.  The limit is a cell short of where the clutter ray ends: its
    :func:`stepwise_ray` hit or range, or the map's edge, whichever is
    nearer.  It shares no sighting code with ``objsearch.sensing``; only the
    box projection is the package's."""
    grid, hp, sp = scenario.map, scenario.hyperparams, scenario.sensor
    res = grid.resolution
    entities = [(lm.id, lm.name, lm.center, lm.radius, lm.known, lm.radius + res)
                for lm in scenario.landmarks]
    entities += [(ob.id, ob.name, ob.position, ob.radius, False, ob.radius + 2.0 * res)
                 for ob in scenario.objects]
    frame = []
    for entity_id, name, (px, py), radius, known, slack in entities:
        distance = math.hypot(px - pose.x, py - pose.y)
        if not 0.0 < distance <= hp.cam_range:
            continue
        rel = normalize_angle(math.atan2(py - pose.y, px - pose.x) - pose.theta)
        if abs(rel) > hp.fov / 2.0:
            continue
        if not reference_line_of_sight(grid, (pose.x, pose.y), (px, py), slack):
            continue
        if sp.p_miss > 0.0 and rng.random() < sp.p_miss:
            continue
        emb = store.get(name)
        if sp.sigma_emb > 0.0:
            emb = unit(emb + sp.sigma_emb * rng.standard_normal(emb.shape[0]))
        frame.append((entity_id, name if known else UNKNOWN_LABEL,
                      bbox_from_geometry(rel, distance, radius, hp.fov), emb, distance, rel))
    for _ in range(sp.clutter):
        rel = rng.uniform(-hp.fov / 2.0, hp.fov / 2.0)
        bearing = pose.theta + rel
        # Per axis, the range to the map side the ray heads for.
        edges = [((cells * res if step > 0.0 else 0.0) - start) / step
                 for start, step, cells in ((pose.x, math.cos(bearing), grid.width),
                                            (pose.y, math.sin(bearing), grid.height))
                 if step != 0.0]
        ray = stepwise_ray(grid, (pose.x, pose.y), bearing, hp.cam_range)[0]
        limit = min([ray, *edges]) - res
        if limit <= 0.3:
            continue
        distance = rng.uniform(0.3, limit)
        emb = unit(rng.standard_normal(store.get(scenario.target_phrase).shape[0]))
        frame.append(("clutter", UNKNOWN_LABEL, bbox_from_geometry(rel, distance, 0.2, hp.fov),
                      emb, distance, rel))
    return frame


def sweep_offsets(grid, origin, rays, max_range):
    """The cached flat-index offsets of each block of a sweep, looked up by
    the key the sweep derives from its geometry."""
    (x, y), res = origin, grid.resolution
    ix, iy = grid.world_to_cell(x, y)
    crossings = world._crossing_count(grid, max_range)
    offsets = ((ix + 1) * res - x, ix * res - x, (iy + 1) * res - y, iy * res - y)
    entry = world._sweep_geometry(res, rays, max_range, crossings, offsets)
    return [world._ray_offsets(packed.tobytes(), int(within.max()), block.start, block.stop,
                               rays, grid.width + 2)
            for block, packed, within in entry]
