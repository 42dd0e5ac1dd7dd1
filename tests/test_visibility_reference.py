"""Batched visibility against the one-at-a-time code it replaced.

``reference_line_of_sight`` is the single-pair occlusion test: one ray with
a shared origin and a scalar range.  ``stepwise_ground_truth_shortest`` is
the SPL reference search: it frees the robot's disk at the start cell by
cell, then walks the reachable cells in distance order and tests range and
line of sight one cell at a time.  The batched versions
must give the same flags and the same float, bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from objsearch.planning import distance_field, ground_truth_shortest, traversable_mask
from objsearch.sensing import line_of_sight, lines_of_sight
from objsearch.suitegen import SuiteParams, generate_suite
from objsearch.world import (
    CellState,
    GridMap,
    Pose,
    load_scenario,
    raycast_batch,
    scenario_to_dict,
)
from util import box_scenario, empty_rows

GEN_SHAPE = SuiteParams(count=60, rooms=4, landmarks=8, map_side=20.0)
NAV_SHAPE = SuiteParams(count=24, rooms=3, landmarks=6, map_side=14.0)


def reference_line_of_sight(world, origin, point, slack):
    dx, dy = point[0] - origin[0], point[1] - origin[1]
    distance = math.hypot(dx, dy)
    if distance <= 0.0:
        return True
    bearing = math.atan2(dy, dx)
    dist, blocked = raycast_batch(world, origin, np.array([bearing]), distance)
    return (not bool(blocked[0])) or float(dist[0]) >= distance - slack


def stepwise_ground_truth_shortest(scenario):
    grid = scenario.map
    target = scenario.target
    radius = scenario.planner.robot_radius
    trav = traversable_mask(grid, radius)
    start = sx, sy = grid.world_to_cell(scenario.start.x, scenario.start.y)
    # The free cells of the robot's disk at the start are drivable.
    r = math.ceil(radius / grid.resolution - 1e-9)
    for iy in range(sy - r, sy + r + 1):
        for ix in range(sx - r, sx + r + 1):
            inside = (ix - sx) ** 2 + (iy - sy) ** 2 <= r * r
            if inside and grid.in_bounds(ix, iy) and grid.is_free(ix, iy):
                trav[iy, ix] = True
    trav[sy, sx] = True
    dist = distance_field(trav, grid.resolution, [start])
    hp = scenario.hyperparams
    slack = target.radius + 2.0 * grid.resolution
    max_range = hp.cam_range + grid.resolution
    ys, xs = np.nonzero(np.isfinite(dist))
    order = np.argsort(dist[ys, xs], kind="stable")
    for idx in order:
        x, y = int(xs[idx]), int(ys[idx])
        cx, cy = grid.cell_to_world(x, y)
        d = math.hypot(target.position[0] - cx, target.position[1] - cy)
        if d <= 0.0 or d > max_range:
            continue
        if reference_line_of_sight(grid, (cx, cy), target.position, slack):
            return float(dist[y, x])
    return math.inf


def cam_range_reaching(rim, res):
    """The camera range whose search radius ``cam_range + res`` is exactly ``rim``."""
    cam_range = rim - res
    while cam_range + res > rim:
        cam_range = math.nextafter(cam_range, 0.0)
    while cam_range + res < rim:
        cam_range = math.nextafter(cam_range, math.inf)
    assert cam_range + res == rim
    return cam_range


def assert_same_shortest(scenario):
    got = ground_truth_shortest(scenario)
    want = stepwise_ground_truth_shortest(scenario)
    assert math.isinf(got) == math.isinf(want)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    return got


# --------------------------------------------------------------------------
# lines_of_sight
# --------------------------------------------------------------------------


def random_grid(rng, width=30, height=25, density=0.2, res=0.1):
    cells = np.where(rng.random((height, width)) < density, CellState.OCCUPIED, CellState.FREE)
    return GridMap(width, height, res, cells)


def random_points(grid, rng, count):
    """Points anywhere on the map: off-centre, cell centres, on grid lines
    and on grid corners, in free and occupied cells alike."""
    res = grid.resolution
    ix = rng.integers(0, grid.width, size=count)
    iy = rng.integers(0, grid.height, size=count)
    fx, fy = rng.uniform(0.0, 1.0, size=(2, count))
    kind = np.arange(count) % 4
    fx = np.where(kind == 1, 0.5, np.where(kind >= 2, 0.0, fx))
    fy = np.where(kind == 1, 0.5, np.where(kind == 3, 0.0, fy))
    return np.column_stack(((ix + fx) * res, (iy + fy) * res))


class TestLinesOfSight:
    def test_random_pairs_match_one_pair_test(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            grid = random_grid(rng)
            origins = random_points(grid, rng, 60)
            points = random_points(grid, rng, 60)
            points[::7] = origins[::7]  # zero-length pairs
            slacks = rng.uniform(0.0, 0.5, size=60)
            got = lines_of_sight(grid, origins, points, slacks)
            want = [
                reference_line_of_sight(grid, tuple(o), tuple(p), s)
                for o, p, s in zip(origins.tolist(), points.tolist(), slacks.tolist())
            ]
            assert got.tolist() == want
            occupied = grid.cells[
                np.floor(origins[:, 1] / 0.1).astype(int), np.floor(origins[:, 0] / 0.1).astype(int)
            ] == CellState.OCCUPIED
            assert occupied.any()  # occupied origins were among the pairs

    def test_shared_origin_or_shared_point(self):
        rng = np.random.default_rng(32)
        grid = random_grid(rng, density=0.1)
        points = random_points(grid, rng, 40)
        for origin in [(1.25, 1.15), (1.2, 1.2), (1.2, 1.15)]:
            got = lines_of_sight(grid, origin, points, 0.25)
            want = [reference_line_of_sight(grid, origin, tuple(p), 0.25) for p in points.tolist()]
            assert got.tolist() == want
            got = lines_of_sight(grid, points, origin, 0.25)
            want = [reference_line_of_sight(grid, tuple(p), origin, 0.25) for p in points.tolist()]
            assert got.tolist() == want

    def test_one_pair_function_is_the_batch_of_one(self):
        rng = np.random.default_rng(33)
        grid = random_grid(rng)
        for origin, point in zip(random_points(grid, rng, 50), random_points(grid, rng, 50)):
            o, p = tuple(origin.tolist()), tuple(point.tolist())
            assert line_of_sight(grid, o, p, 0.3) == reference_line_of_sight(grid, o, p, 0.3)

    def test_zero_length_pair_needs_no_valid_origin(self):
        grid = random_grid(np.random.default_rng(34))
        outside = (-1.0, -1.0)
        assert lines_of_sight(grid, [outside], [outside], 0.0).tolist() == [True]
        assert line_of_sight(grid, outside, outside, 0.0)

    def test_no_pairs(self):
        grid = random_grid(np.random.default_rng(35))
        assert lines_of_sight(grid, np.zeros((0, 2)), np.zeros((0, 2)), 0.1).shape == (0,)


# --------------------------------------------------------------------------
# ground_truth_shortest
# --------------------------------------------------------------------------


def with_map(scenario, rows, target_position):
    """The scenario on other map rows with its target moved."""
    doc = scenario_to_dict(scenario)
    doc["map"]["rows"] = rows
    doc["objects"][0]["position"] = list(target_position)
    return load_scenario(json.dumps(doc))


class TestGroundTruthShortest:
    @pytest.mark.parametrize("params", [GEN_SHAPE, NAV_SHAPE], ids=["gen", "nav"])
    def test_generated_scenarios(self, params, ctx):
        scenarios = generate_suite(params, 7, ctx=ctx)
        assert len(scenarios) == params.count
        for scenario in scenarios:
            assert math.isfinite(assert_same_shortest(scenario))

    def test_moved_starts_and_wider_robot(self, ctx):
        # Other start cells and a wider robot reach the target from other
        # cells.  Starts inside the inflated walls drive out of the robot's
        # own disk, as the episode's robot does.
        rng = np.random.default_rng(36)
        results = []
        swallowed = []
        for scenario in generate_suite(dataclasses.replace(NAV_SHAPE, count=12), 8, ctx=ctx):
            grid = scenario.map
            free = np.argwhere(grid.cells == CellState.FREE)
            for radius in (0.2, 0.45):
                iy, ix = free[rng.integers(len(free))]
                x, y = grid.cell_to_world(int(ix), int(iy))
                moved = dataclasses.replace(
                    scenario,
                    start=Pose(x, y),
                    planner=dataclasses.replace(scenario.planner, robot_radius=radius),
                )
                results.append(assert_same_shortest(moved))
                swallowed.append(not traversable_mask(grid, radius)[iy, ix])
        assert any(swallowed)
        assert all(math.isfinite(r) for r in results)
        assert any(r > 0.0 for r in results)

    def test_unreachable_target(self):
        # The target sits in a closed room the start cannot reach.
        rows = empty_rows(50, 50)
        for k in range(30, 41):
            for ix, iy in ((k, 30), (k, 40), (30, k), (40, k)):
                r = 49 - iy
                rows[r] = rows[r][:ix] + "#" + rows[r][ix + 1 :]
        scenario = with_map(box_scenario(size_m=5.0, start=(1.0, 1.0, 0.0)), rows, (3.55, 3.55))
        assert assert_same_shortest(scenario) == math.inf

    def test_target_seen_only_from_the_rim(self):
        # A solid wall with a one-cell tunnel the robot is too wide to drive
        # through: from the start side the target is seen only along the
        # tunnel's row, at best from (28, 10), 1.7 m away and 2.3 m from the
        # start.  That cell counts while its distance is at most
        # cam_range + resolution, the boundary included.
        rows = empty_rows(60, 21)
        for ix in range(30, 33):
            for iy in range(21):
                if iy != 10:
                    r = 20 - iy
                    rows[r] = rows[r][:ix] + "#" + rows[r][ix + 1 :]
        base = with_map(box_scenario(size_m=6.0, start=(0.55, 1.05, 0.0)), rows, (4.55, 1.05))
        cx, cy = base.map.cell_to_world(28, 10)
        rim = math.hypot(4.55 - cx, 1.05 - cy)
        cam_range = cam_range_reaching(rim, 0.1)

        def with_range(value):
            hp = dataclasses.replace(base.hyperparams, cam_range=value)
            return dataclasses.replace(base, hyperparams=hp)

        at_rim = assert_same_shortest(with_range(cam_range))
        assert at_rim == pytest.approx(2.3)
        assert assert_same_shortest(with_range(math.nextafter(cam_range, 0.0))) == math.inf
        # A longer range reaches cells closer to the start.
        assert assert_same_shortest(with_range(cam_range + 0.1)) < at_rim

    def test_start_cell_blocked_by_inflation(self):
        scenario = box_scenario(size_m=8.0, start=(0.25, 0.25, 0.0))
        trav = traversable_mask(scenario.map, scenario.planner.robot_radius)
        assert not trav[2, 2]
        assert assert_same_shortest(scenario) > 0.0
        # A wider robot is walled in at the start cell and its diagonal
        # neighbour; it drives out of its own disk.
        boxed = dataclasses.replace(
            scenario, planner=dataclasses.replace(scenario.planner, robot_radius=0.3)
        )
        wide = traversable_mask(scenario.map, 0.3)
        assert not wide[2, 2] and not wide[3, 3]
        assert 0.0 < assert_same_shortest(boxed) < math.inf
        # The start cell itself still counts.
        near = dataclasses.replace(boxed, objects=[
            dataclasses.replace(scenario.target, position=(1.5, 1.5))
        ])
        assert assert_same_shortest(near) == 0.0

    def test_range_decided_by_math_hypot(self):
        # Only the start cell is reachable, and the target lies exactly
        # cam_range + resolution from its centre by math.hypot.  With glibc,
        # np.hypot rounds this distance one ulp higher; the cell still counts.
        boxed = box_scenario(size_m=8.0, start=(0.25, 0.25, 0.0), planner={"robot_radius": 0.3})
        target = dataclasses.replace(boxed.target, position=(1.39, 2.05))
        rim = math.hypot(1.39 - 0.25, 2.05 - 0.25)
        cam_range = cam_range_reaching(rim, 0.1)
        scenario = dataclasses.replace(
            boxed, objects=[target],
            hyperparams=dataclasses.replace(boxed.hyperparams, cam_range=cam_range),
        )
        assert assert_same_shortest(scenario) == 0.0
