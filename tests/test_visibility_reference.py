"""Visibility searches against one-at-a-time references.

``util.reference_line_of_sight`` is the single-pair occlusion test on one ray
of the independent step-by-step grid walk, ``util.stepwise_ray``, which
``test_raycast_reference`` shows bit-equal to ``util.stepwise_raycast_batch``.
``stepwise_ground_truth_shortest`` is the SPL reference search: it frees the
robot's disk at the start cell by cell, then walks the reachable cells in
distance order and tests range and line of sight one cell at a time.
``loop_cells_near_rect`` is the range
rule tested one cell at a time over the whole map, and
``util.reference_first_confirming`` the range and confirming-cell rules
together, one cell at a time.  The code under test must give the same cells, flags,
indices and float, bit for bit.  Generation's reachability test
``target_observable``, which tries the cells nearest the target first, must
hold exactly when that float is finite, which ``assert_same_shortest``
checks on every scenario here, and whatever order the reference search
takes.  Both searches read only the target's camera window, the rows and
columns ``cells_near`` reads, so the window cases put the target and its
confirming cells where the window is clipped or at its rim.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from scipy import ndimage

from objsearch import planning, suitegen, world
from objsearch.errors import DomainError
from objsearch.planning import (
    cells_near,
    distance_field,
    drivable_mask,
    first_confirming,
    ground_truth_shortest,
    target_observable,
    traversable_mask,
)
from objsearch.sensing import line_of_sight
from objsearch.suitegen import SuiteParams, generate_suite
from objsearch.world import (
    CellState,
    GridMap,
    HyperParams,
    ObjectSpec,
    Pose,
    load_scenario,
    scenario_to_dict,
)
from util import (
    box_scenario,
    empty_rows,
    reference_first_confirming,
    reference_line_of_sight,
    stepwise_raycast_batch,
)

GEN_SHAPE = SuiteParams(count=60, rooms=4, landmarks=8, map_side=20.0)
NAV_SHAPE = SuiteParams(count=24, rooms=3, landmarks=6, map_side=14.0)


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
    dist = distance_field(trav, grid.resolution, start, math.inf)
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


def observable(scenario):
    """``target_observable`` over the scenario map's own traversable mask."""
    trav = traversable_mask(scenario.map, scenario.planner.robot_radius)
    return target_observable(scenario, trav)


def assert_same_shortest(scenario):
    got = ground_truth_shortest(scenario)
    want = stepwise_ground_truth_shortest(scenario)
    assert math.isinf(got) == math.isinf(want)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert observable(scenario) == math.isfinite(got)
    return got


# --------------------------------------------------------------------------
# line_of_sight
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


class TestLineOfSight:
    def test_random_pairs_match_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            grid = random_grid(rng)
            origins = random_points(grid, rng, 60)
            points = random_points(grid, rng, 60)
            points[::7] = origins[::7]  # zero-length pairs
            slacks = rng.uniform(0.0, 0.5, size=60)
            pairs = [(tuple(o), tuple(p), s)
                     for o, p, s in zip(origins.tolist(), points.tolist(), slacks.tolist())]
            got = [line_of_sight(grid, *pair) for pair in pairs]
            assert got == [reference_line_of_sight(grid, *pair) for pair in pairs]
            occupied = grid.cells[
                np.floor(origins[:, 1] / 0.1).astype(int), np.floor(origins[:, 0] / 0.1).astype(int)
            ] == CellState.OCCUPIED
            assert occupied.any()  # occupied origins were among the pairs

    def test_shared_origin_or_shared_point(self):
        rng = np.random.default_rng(32)
        grid = random_grid(rng, density=0.1)
        points = random_points(grid, rng, 40)
        for origin in [(1.25, 1.15), (1.2, 1.2), (1.2, 1.15)]:
            for p in points.tolist():
                p = tuple(p)
                assert line_of_sight(grid, origin, p, 0.25) == reference_line_of_sight(
                    grid, origin, p, 0.25)
                assert line_of_sight(grid, p, origin, 0.25) == reference_line_of_sight(
                    grid, p, origin, 0.25)

    def test_fixed_slack_pairs(self):
        rng = np.random.default_rng(33)
        grid = random_grid(rng)
        for origin, point in zip(random_points(grid, rng, 50), random_points(grid, rng, 50)):
            o, p = tuple(origin.tolist()), tuple(point.tolist())
            assert line_of_sight(grid, o, p, 0.3) == reference_line_of_sight(grid, o, p, 0.3)

    def test_walk_matches_reference_bit_for_bit(self):
        # The ray line_of_sight walks: range and bearing from math.hypot and
        # math.atan2, direction cosines from np.cos and np.sin of the one
        # bearing.  Its distance equals the stepwise walk's, down to the sign
        # of a zero, as does its blocked flag.
        rng = np.random.default_rng(36)
        for _ in range(6):
            grid = random_grid(rng)
            for origin, point in zip(random_points(grid, rng, 80).tolist(),
                                     random_points(grid, rng, 80).tolist()):
                dx, dy = point[0] - origin[0], point[1] - origin[1]
                reach = math.hypot(dx, dy)
                bearing = math.atan2(dy, dx)
                got = world._walk(grid, *origin, float(np.cos(bearing)), float(np.sin(bearing)),
                                  reach)
                want = stepwise_raycast_batch(grid, origin, np.array([bearing]), reach)
                assert np.float64(got[0]).tobytes() == want[0].tobytes()
                assert got[1] == bool(want[1][0])

    def test_zero_length_pair_needs_no_valid_origin(self):
        grid = random_grid(np.random.default_rng(34))
        outside = (-1.0, -1.0)
        assert line_of_sight(grid, outside, outside, 0.0)

    def test_origin_outside_the_map_is_named(self):
        grid = random_grid(np.random.default_rng(35))
        for origin in [(-1.0, 0.5), (0.5, 2.5), (3.0, 0.5), (math.nan, 0.5)]:
            with pytest.raises(DomainError, match="raycast origin .* outside map bounds"):
                line_of_sight(grid, origin, (1.0, 1.0), 0.1)


# --------------------------------------------------------------------------
# cells_near
# --------------------------------------------------------------------------


def loop_cells_near_rect(mask, rect, res, max_dist):
    """Reference: the cells set in ``mask`` whose centres lie within (0,
    max_dist] of the rectangle, every cell of the map tested on its own."""
    out = []
    for iy, ix in zip(*(a.tolist() for a in np.nonzero(mask))):
        cx, cy = (ix + 0.5) * res, (iy + 0.5) * res
        dx = max(rect[0] - cx, cx - rect[2], 0.0)
        dy = max(rect[1] - cy, cy - rect[3], 0.0)
        if 0.0 < math.hypot(dx, dy) <= max_dist:
            out.append((ix, iy))
    return out


def near_cells(mask, rect, res, max_dist):
    xs, ys = cells_near(mask, rect, res, max_dist)
    return list(zip(xs.tolist(), ys.tolist()))


class WindowSpy(np.ndarray):
    """A mask that records the keys it is read through."""

    def __getitem__(self, key):
        self.reads.append(key)
        return np.asarray(self)[key]


class TestCellsNear:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_cell_loop(self, seed):
        # Random masks, resolutions and rectangles on and off the map; each
        # side of a rectangle is zero with probability 0.4, so many are
        # segments and some are points.
        rng = np.random.default_rng(seed)
        for _ in range(25):
            height, width = (int(v) for v in rng.integers(20, 61, size=2))
            mask = rng.random((height, width)) < 0.7
            res = float(rng.choice([0.05, 0.1, 0.25]))
            x0, y0 = rng.uniform(-0.1, 1.1, size=2) * (width * res, height * res)
            w, h = rng.uniform(0.0, 1.5, size=2) * (rng.random(2) < 0.6)
            rect = (x0, y0, x0 + w, y0 + h)
            max_dist = float(rng.choice([0.05, 0.1, 0.5, 1.0, 3.6]))
            assert near_cells(mask, rect, res, max_dist) == loop_cells_near_rect(
                mask, rect, res, max_dist
            )

    def test_points_at_cell_centres(self):
        # A point at a cell centre is 0 from that cell, which never counts,
        # and a whole number of cells from others: their distances fall
        # within rounding of max_dist, where math.hypot decides.
        mask = np.ones((40, 50), dtype=bool)
        on_rim = 0
        for ix, iy in [(25, 20), (0, 0), (49, 39), (3, 37)]:
            cx, cy = (ix + 0.5) * 0.1, (iy + 0.5) * 0.1
            for max_dist in (0.1, 0.2, 0.3, 0.5, 1.0, 2.5):
                got = near_cells(mask, (cx, cy, cx, cy), 0.1, max_dist)
                assert got == loop_cells_near_rect(mask, (cx, cy, cx, cy), 0.1, max_dist)
                assert (ix, iy) not in got
                on_rim += sum(math.hypot((x - ix) * 0.1, (y - iy) * 0.1) == max_dist
                              for x, y in got)
        assert on_rim > 0

    def test_windows_past_the_map_edge(self):
        # Rectangles across an edge or a corner, wholly beyond the map, or
        # around all of it, out to an infinite distance.
        rng = np.random.default_rng(7)
        mask = rng.random((60, 45)) < 0.7
        for rect in ((-0.6, -0.6, -0.35, -0.35), (-2.0, 1.0, -1.5, 2.0), (5.5, 5.5, 6.5, 6.5),
                     (-0.3, -0.3, 0.2, 0.2), (1.0, -3.0, 2.0, -2.5), (4.4, 5.9, 4.6, 6.1),
                     (2.0, 6.3, 2.0, 6.3), (-1.0, -1.0, 10.0, 10.0)):
            for max_dist in (0.05, 0.5, 1.0, 50.0, math.inf):
                assert near_cells(mask, rect, 0.1, max_dist) == loop_cells_near_rect(
                    mask, rect, 0.1, max_dist
                )

    def test_band_decided_by_math_hypot(self):
        # Targets whose distance to the centre of cell (23, 20) np.hypot
        # rounds an ulp above or below math.hypot's: the cell counts at
        # max_dist equal to math.hypot's distance and not one ulp below it.
        rng = np.random.default_rng(9)
        mask = np.zeros((50, 50), dtype=bool)
        mask[20, 23] = True
        cx, cy = (23 + 0.5) * 0.1, (20 + 0.5) * 0.1
        cases = {"above": 0, "below": 0}
        for tx, ty in rng.uniform(0.0, 5.0, size=(2000, 2)).tolist():
            exact = math.hypot(tx - cx, ty - cy)
            rounded = float(np.hypot(tx - cx, ty - cy))
            if rounded == exact:
                continue
            cases["above" if rounded > exact else "below"] += 1
            assert near_cells(mask, (tx, ty, tx, ty), 0.1, exact) == [(23, 20)]
            assert near_cells(mask, (tx, ty, tx, ty), 0.1, math.nextafter(exact, 0.0)) == []
        assert min(cases.values()) > 0

    def test_reads_only_the_window(self):
        # One read, through the rows and columns whose centres can lie within
        # max_dist of the rectangle, with at most two cells to spare each
        # side; the whole map when max_dist is infinite.
        mask = (np.random.default_rng(8).random((60, 45)) < 0.7).view(WindowSpy)

        def bounds(lo, hi, max_dist, size):
            return (math.floor(max((lo - max_dist) / 0.1 - 2.0, 0.0)),
                    math.ceil(min((hi + max_dist) / 0.1 + 2.0, size)))

        for rect, max_dist in [((2.0, 3.0, 2.0, 3.0), 0.5), ((1.0, 1.0, 1.6, 1.2), 1.0),
                               ((0.05, 5.95, 0.05, 5.95), 0.3), ((2.0, 3.0, 2.0, 3.0), math.inf),
                               ((9.0, 3.0, 9.5, 3.0), 1.0)]:
            mask.reads = []
            got = near_cells(mask, rect, 0.1, max_dist)
            assert got == loop_cells_near_rect(mask, rect, 0.1, max_dist)
            (rows, cols), = mask.reads
            lo, hi = bounds(rect[1], rect[3], max_dist, 60)
            assert lo <= rows.start and rows.stop <= hi
            lo, hi = bounds(rect[0], rect[2], max_dist, 45)
            assert lo <= cols.start and (cols.stop <= hi or cols.stop <= cols.start)
            if max_dist == math.inf:
                assert (rows, cols) == (slice(0, 60), slice(0, 45))


# --------------------------------------------------------------------------
# first_confirming
# --------------------------------------------------------------------------


def search(grid, target, cam_range, xs, ys):
    """``first_confirming`` over a mask of the given (distinct) cells, ranked
    in the given order; the answer is an index into the given cells."""
    mask = np.zeros((grid.height, grid.width), dtype=bool)
    position = np.full(mask.shape, -1)
    mask[ys, xs] = True
    position[ys, xs] = np.arange(xs.size)
    hit = first_confirming(grid, target, HyperParams(cam_range=cam_range), mask,
                           lambda xs, ys: position[ys, xs])
    return None if hit is None else int(position[hit[1], hit[0]])


def one_cell(grid, target, cam_range, x, y):
    """``first_confirming`` asked of one cell, as the start check asks it,
    with the answer as ``reference_first_confirming`` gives it."""
    hit = first_confirming(grid, target, HyperParams(cam_range=cam_range), (x, y), None)
    assert hit in (None, (x, y))
    return None if hit is None else 0


class TestFirstConfirming:
    def case(self, seed):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, width=40, height=40, density=rng.uniform(0.1, 0.4))
        (tx, ty), = random_points(grid, rng, 1)
        target = ObjectSpec("T0", "cup", (float(tx), float(ty)), 0.15, is_target=True)
        ys, xs = np.nonzero(np.ones((grid.height, grid.width), dtype=bool))
        return rng, grid, target, float(rng.uniform(1.0, 2.5)), xs, ys

    @pytest.mark.parametrize("seed", range(8))
    def test_every_answer_of_a_shuffled_order(self, seed):
        # Searching what follows each answer in turn walks through every
        # confirming cell.
        rng, grid, target, cam_range, xs, ys = self.case(40 + seed)
        order = rng.permutation(xs.size)
        xs, ys = xs[order], ys[order]
        lo = answers = 0
        while True:
            got = search(grid, target, cam_range, xs[lo:], ys[lo:])
            assert got == reference_first_confirming(grid, target, cam_range, xs[lo:], ys[lo:])
            if got is None:
                break
            lo += got + 1
            answers += 1
        assert answers > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_answer_after_many_near_cells(self, seed):
        # A long run of near cells that do not confirm, then the confirming
        # ones, each order shuffled; given the near cells alone,
        # first_confirming walks the whole blind run before it answers.
        rng, grid, target, cam_range, xs, ys = self.case(50 + seed)
        res = grid.resolution
        tx, ty = target.position
        gap = np.hypot(tx - (xs + 0.5) * res, ty - (ys + 0.5) * res)
        near = np.flatnonzero((gap > 0.0) & (gap <= cam_range + res))
        hits = np.array([
            reference_first_confirming(grid, target, cam_range, xs[[k]], ys[[k]]) == 0
            for k in near.tolist()
        ])
        blind, seen = rng.permutation(near[~hits]), rng.permutation(near[hits])
        assert blind.size > 100 and seen.size > 0
        order = np.concatenate([blind, seen])
        assert search(grid, target, cam_range, xs[order], ys[order]) == blind.size
        order = np.concatenate([order, rng.permutation(np.flatnonzero(gap > cam_range))])
        got = search(grid, target, cam_range, xs[order], ys[order])
        assert got == blind.size
        assert got == reference_first_confirming(grid, target, cam_range, xs[order], ys[order])

    @pytest.mark.parametrize("seed", range(4))
    def test_one_cell_calls(self, seed):
        # A one-cell mask, and the one cell asked directly.
        rng, grid, target, cam_range, xs, ys = self.case(60 + seed)
        for k in rng.choice(xs.size, size=300, replace=False).tolist():
            cell = xs[k : k + 1], ys[k : k + 1]
            got = search(grid, target, cam_range, *cell)
            assert got in (0, None)
            assert got == reference_first_confirming(grid, target, cam_range, *cell)
            assert one_cell(grid, target, cam_range, int(xs[k]), int(ys[k])) == got

    @pytest.mark.parametrize("seed", range(4))
    def test_the_target_cell_is_skipped(self, seed):
        # A target at a cell centre is 0 from that cell, which never confirms;
        # the answer still indexes the cells as given.
        rng, grid, _, cam_range, xs, ys = self.case(80 + seed)
        ix, iy = (int(v) for v in rng.integers(5, 35, size=2))
        target = ObjectSpec("T0", "cup", grid.cell_to_world(ix, iy), 0.15, is_target=True)
        own = np.flatnonzero((xs == ix) & (ys == iy))
        order = np.concatenate([own, rng.permutation(np.flatnonzero((xs != ix) | (ys != iy)))])
        got = search(grid, target, cam_range, xs[order], ys[order])
        assert got is not None and got > 0
        assert got == reference_first_confirming(grid, target, cam_range, xs[order], ys[order])
        assert one_cell(grid, target, cam_range, ix, iy) is None

    def test_no_cells(self):
        _, grid, target, cam_range, xs, ys = self.case(70)
        assert search(grid, target, cam_range, xs[:0], ys[:0]) is None

    @pytest.mark.parametrize("top_confirms", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_tied_keys_take_the_stable_order(self, seed, top_confirms):
        # Keys of three values, so nearly every cell ties with others.  The
        # first near cell in row-major order among the least keys is the top
        # cell; it confirms, or it is blind and the least keys hold a
        # confirming cell after it, so the answer comes from the sorted rest.
        rng, grid, target, cam_range, xs, ys = self.case(90 + seed)
        res = grid.resolution
        tx, ty = target.position
        gap = np.hypot(tx - (xs + 0.5) * res, ty - (ys + 0.5) * res)
        near = np.flatnonzero((gap > 0.0) & (gap <= cam_range + res))
        sees = {k for k in near.tolist()
                if reference_first_confirming(grid, target, cam_range, xs[[k]], ys[[k]]) == 0}
        keys = rng.integers(1, 3, size=xs.size)
        pick = rng.permutation(near).tolist()
        if top_confirms:
            top = next(k for k in pick if k in sees)
        else:
            top = next(k for k in pick if k not in sees and k < max(sees))
            keys[next(k for k in pick if k > top and k in sees)] = 0
        keys[top] = 0
        keys[[k for k in pick if k > top][:40]] = 0
        order = np.argsort(keys, kind="stable")
        want = reference_first_confirming(grid, target, cam_range, xs[order], ys[order])
        rank = keys.reshape(grid.height, grid.width)  # xs, ys are every cell, row-major
        hit = first_confirming(grid, target, HyperParams(cam_range=cam_range),
                               np.ones(rank.shape, dtype=bool), lambda xs, ys: rank[ys, xs])
        assert hit == (int(xs[order[want]]), int(ys[order[want]]))
        assert (hit == (int(xs[top]), int(ys[top]))) == top_confirms


# --------------------------------------------------------------------------
# ground_truth_shortest
# --------------------------------------------------------------------------


def with_map(scenario, rows, target_position):
    """The scenario on other map rows with its target moved."""
    doc = scenario_to_dict(scenario)
    doc["map"]["rows"] = rows
    doc["objects"][0]["position"] = list(target_position)
    return load_scenario(json.dumps(doc))


def tunnel_scenario(side):
    """The tunnel of ``test_target_seen_only_from_the_rim`` turned so that the
    start lies on the given side of the target.  The start side sees the
    target only along the tunnel, at best from the cell 1.7 m out, which is
    the farthest in-range cell on that axis: it lies in the outermost row or
    column of the window that can hold a confirming cell."""
    def place(ix, iy):
        ix = 59 - ix if side in ("right", "above") else ix
        return (iy, ix) if side in ("below", "above") else (ix, iy)

    def point(x, y):
        x = 6.0 - x if side in ("right", "above") else x
        return (y, x) if side in ("below", "above") else (x, y)

    width, height = (21, 60) if side in ("below", "above") else (60, 21)
    rows = empty_rows(width, height)
    set_cells(rows, [place(ix, iy) for ix in range(30, 33) for iy in range(21) if iy != 10], "#")
    base = box_scenario(size_m=6.0, start=(*point(0.55, 1.05), 0.0))
    return with_map(base, rows, point(4.55, 1.05)), base.map.cell_to_world(*place(28, 10))


def with_cam_range(scenario, cam_range):
    hp = dataclasses.replace(scenario.hyperparams, cam_range=cam_range)
    return dataclasses.replace(scenario, hyperparams=hp)


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
        base, (cx, cy) = tunnel_scenario("left")
        tx, ty = base.target.position
        cam_range = cam_range_reaching(math.hypot(tx - cx, ty - cy), 0.1)
        at_rim = assert_same_shortest(with_cam_range(base, cam_range))
        assert at_rim == pytest.approx(2.3)
        below = with_cam_range(base, math.nextafter(cam_range, 0.0))
        assert assert_same_shortest(below) == math.inf
        # A longer range reaches cells closer to the start.
        assert assert_same_shortest(with_cam_range(base, cam_range + 0.1)) < at_rim

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
        # Walls fill the 11 x 11 block around the start cell (20, 20) but for
        # the disk a 0.3 m robot frees there, so the disk's cells are the only
        # drivable ones.  Of them only the rim cell (23, 20) is in range: the
        # target lies exactly cam_range + resolution from its centre by
        # math.hypot.  With glibc, np.hypot rounds this distance one ulp
        # higher; the cell still counts.
        rows = empty_rows(50, 50)
        set_cells(rows, [(x, y) for x, y in ring(20, 20, 0, 5)
                         if (x - 20) ** 2 + (y - 20) ** 2 > 9], "#")
        tx, ty = 2.6346, 2.0575
        base = with_map(
            box_scenario(size_m=5.0, start=(2.05, 2.05, 0.0), planner={"robot_radius": 0.3}),
            rows, (tx, ty),
        )
        cx, cy = base.map.cell_to_world(23, 20)
        cam_range = cam_range_reaching(math.hypot(tx - cx, ty - cy), 0.1)
        at_rim = with_cam_range(base, cam_range)
        assert assert_same_shortest(at_rim) == pytest.approx(0.3)
        assert observable(at_rim)
        below = with_cam_range(base, math.nextafter(cam_range, 0.0))
        assert assert_same_shortest(below) == math.inf
        assert not observable(below)
        # The rule asked of the rim cell alone, as the start check asks it.
        cell = np.array([23]), np.array([20])
        for scenario, want in ((at_rim, 0), (below, None)):
            range_ = scenario.hyperparams.cam_range
            assert reference_first_confirming(scenario.map, scenario.target, range_, *cell) == want
            assert one_cell(scenario.map, scenario.target, range_, 23, 20) == want


# --------------------------------------------------------------------------
# target_observable
# --------------------------------------------------------------------------


def set_cells(rows, cells, value):
    """Set map cells (ix, iy) of bottom-up rows to ``value`` ('#' or '.')."""
    height = len(rows)
    for ix, iy in cells:
        r = height - 1 - iy
        rows[r] = rows[r][:ix] + value + rows[r][ix + 1 :]


def ring(cx, cy, lo, hi):
    """Cells whose Chebyshev distance from (cx, cy) is in lo..hi."""
    return [(cx + dx, cy + dy) for dx in range(-hi, hi + 1) for dy in range(-hi, hi + 1)
            if lo <= max(abs(dx), abs(dy))]


class TestTargetObservable:
    @pytest.mark.parametrize("rooms", [1, 2, 3, 4])
    def test_generated_maps_with_moved_starts(self, rooms, ctx):
        # Generated scenarios hold by construction.  Other start cells, and a
        # robot too wide for the doors, give both answers.
        params = SuiteParams(count=4, rooms=rooms, landmarks=5, map_side=12.0)
        rng = np.random.default_rng(40 + rooms)
        answers = []
        for scenario in generate_suite(params, rooms, ctx=ctx):
            assert observable(scenario)
            grid = scenario.map
            free = np.argwhere(grid.cells == CellState.FREE)
            for radius in (0.2, 0.6):
                for iy, ix in free[rng.integers(len(free), size=3)]:
                    moved = dataclasses.replace(
                        scenario,
                        start=Pose(*grid.cell_to_world(int(ix), int(iy))),
                        planner=dataclasses.replace(scenario.planner, robot_radius=radius),
                    )
                    answers.append(observable(moved))
                    assert answers[-1] == math.isfinite(ground_truth_shortest(moved))
        assert True in answers
        if rooms > 1:
            assert False in answers

    @pytest.mark.parametrize("rooms", [2, 3])
    def test_equals_reference_search_in_any_order(self, rooms, ctx):
        # target_observable tries the cells nearest the target first; the
        # reference search over all reachable cells, in row-major order or
        # shuffled, finds a confirming cell exactly when it answers True.
        params = SuiteParams(count=2, rooms=rooms, landmarks=5, map_side=12.0)
        rng = np.random.default_rng(70 + rooms)
        answers = []
        for scenario in generate_suite(params, 10 + rooms, ctx=ctx):
            grid = scenario.map
            free = np.argwhere(grid.cells == CellState.FREE)
            for radius in (0.2, 0.6):
                for iy, ix in free[rng.integers(len(free), size=3)]:
                    start = (int(ix), int(iy))
                    moved = dataclasses.replace(
                        scenario,
                        start=Pose(*grid.cell_to_world(*start)),
                        planner=dataclasses.replace(scenario.planner, robot_radius=radius),
                    )
                    drivable = drivable_mask(grid, start, radius)
                    ys, xs = np.nonzero(np.isfinite(distance_field(drivable, grid.resolution,
                                                                   start, math.inf)))
                    got = observable(moved)
                    for order in (np.arange(xs.size), rng.permutation(xs.size)):
                        hit = reference_first_confirming(grid, moved.target,
                                                         moved.hyperparams.cam_range,
                                                         xs[order], ys[order])
                        assert got == (hit is not None)
                    answers.append(got)
        assert True in answers and False in answers

    def test_sealed_room(self):
        # A wall at x = 3.0 m with a 1.2 m door near the bottom; the target
        # at (5, 5) is out of range of every cell on the start's side that
        # could see it through the door.  Closing the door seals its room.
        rows = empty_rows(60, 60)
        set_cells(rows, [(30, iy) for iy in range(60)], "#")
        set_cells(rows, [(30, iy) for iy in range(5, 17)], ".")
        scenario = with_map(box_scenario(size_m=6.0, start=(0.55, 5.5, 0.0)), rows, (5.0, 5.0))
        assert 0.0 < assert_same_shortest(scenario) < math.inf
        set_cells(rows, [(30, iy) for iy in range(5, 17)], "#")
        sealed = with_map(scenario, rows, (5.0, 5.0))
        assert assert_same_shortest(sealed) == math.inf

    def test_only_the_starts_component_is_searched(self):
        # The sealed room's two halves are two components of the drivable
        # mask, and only the target's half holds a confirming cell: the
        # answer follows the start.  With the door open they are one.
        rows = empty_rows(60, 60)
        set_cells(rows, [(30, iy) for iy in range(60)], "#")
        base = box_scenario(size_m=6.0)
        for start, door, want in (((0.55, 5.5), False, False), ((4.05, 1.05), False, True),
                                  ((0.55, 5.5), True, True)):
            if door:
                set_cells(rows, [(30, iy) for iy in range(5, 17)], ".")
            scenario = with_map(dataclasses.replace(base, start=Pose(*start)), rows, (5.0, 5.0))
            cell = scenario.map.world_to_cell(*start)
            drivable = drivable_mask(scenario.map, cell, scenario.planner.robot_radius)
            assert ndimage.label(drivable, structure=np.ones((3, 3), dtype=bool))[1] == 2 - door
            assert observable(scenario) == want
            assert math.isfinite(assert_same_shortest(scenario)) == want

    def test_diagonal_step_joins_the_rooms(self):
        # The sealed room's wall doubled, with one diagonal step through it:
        # free (30, 10) and (31, 11) whose shared neighbours are walls.  A
        # robot of radius 0 drives every free cell, and diagonal steps need
        # no free side cell, so the target's room is reachable.
        rows = empty_rows(60, 60)
        set_cells(rows, [(ix, iy) for ix in (30, 31) for iy in range(60)], "#")
        set_cells(rows, [(30, 10), (31, 11)], ".")
        scenario = with_map(
            box_scenario(size_m=6.0, start=(0.55, 5.5, 0.0), planner={"robot_radius": 0.0}),
            rows, (5.0, 5.0),
        )
        assert 0.0 < assert_same_shortest(scenario) < math.inf

    def test_every_near_cell_occluded(self):
        # The target sits in a pocket walled 0.4..0.9 m out: cells within
        # range of it are reachable around the pocket, and its walls hide the
        # target from each of them.
        rows = empty_rows(50, 50)
        set_cells(rows, ring(25, 25, 4, 8), "#")
        scenario = with_map(box_scenario(size_m=5.0, start=(0.55, 0.55, 0.0)), rows, (2.55, 2.55))
        dist = distance_field(
            drivable_mask(scenario.map, (5, 5), scenario.planner.robot_radius), 0.1, (5, 5),
            math.inf,
        )
        ys, xs = np.nonzero(np.isfinite(dist))
        gap = np.hypot(2.55 - (xs + 0.5) * 0.1, 2.55 - (ys + 0.5) * 0.1)
        assert (gap <= scenario.hyperparams.cam_range + 0.1).any()
        assert assert_same_shortest(scenario) == math.inf

    def test_start_walled_into_its_own_disk(self):
        # A 3 x 3 pocket around the start: inflation swallows it whole, so
        # the robot's own disk is all it drives on, and the pocket's walls
        # hide the target 2 m away.
        rows = empty_rows(50, 50)
        set_cells(rows, ring(10, 10, 2, 3), "#")
        scenario = with_map(box_scenario(size_m=5.0, start=(1.05, 1.05, 0.0)), rows, (3.05, 1.05))
        radius = scenario.planner.robot_radius
        assert not traversable_mask(scenario.map, radius)[9:12, 9:12].any()
        labels, _ = ndimage.label(
            drivable_mask(scenario.map, (10, 10), radius), structure=np.ones((3, 3), dtype=bool)
        )
        assert np.argwhere(labels == labels[10, 10]).tolist() == [
            [iy, ix] for iy in range(9, 12) for ix in range(9, 12)
        ]
        assert assert_same_shortest(scenario) == math.inf


# --------------------------------------------------------------------------
# The target's camera window
# --------------------------------------------------------------------------


def scattered_walls(rng, width, height, density):
    """Bordered bottom-up rows with single wall cells scattered at ``density``."""
    rows = empty_rows(width, height)
    walls = np.argwhere(rng.random((height, width)) < density)
    set_cells(rows, [(int(ix), int(iy)) for iy, ix in walls], "#")
    return rows


class TestCameraWindow:
    """The searches through ``cells_near``'s window: the rows and columns
    within ``cam_range + resolution`` of the target, clipped to the map."""

    @pytest.mark.parametrize("seed", range(4))
    def test_target_near_an_edge_or_a_corner(self, seed):
        # Targets within cam_range of one edge or two clip the window; the
        # last two sit on the map's lower-left corner and just inside its
        # upper-right one.
        rng = np.random.default_rng(90 + seed)
        rows = scattered_walls(rng, 80, 80, 0.1)
        set_cells(rows, [(10, 40)], ".")
        base = box_scenario(size_m=8.0, start=(1.05, 4.05, 0.0), planner={"robot_radius": 0.0})
        top = math.nextafter(8.0, 0.0)
        results = [
            assert_same_shortest(with_map(base, rows, position))
            for position in [(0.3, 4.0), (4.0, 7.8), (7.75, 2.5), (0.35, 0.35), (7.65, 0.25),
                             (2.5, 7.7), (0.0, 0.0), (top, top)]
        ]
        assert any(math.isfinite(r) for r in results)

    @pytest.mark.parametrize("side", ["right", "below", "above"])
    def test_confirming_cell_on_the_rim(self, side):
        # test_target_seen_only_from_the_rim turned, so the rim cell lies in
        # the window's last column, first row and last row in turn.
        scenario, (cx, cy) = tunnel_scenario(side)
        tx, ty = scenario.target.position
        cam_range = cam_range_reaching(math.hypot(tx - cx, ty - cy), 0.1)
        assert assert_same_shortest(with_cam_range(scenario, cam_range)) == pytest.approx(2.3)
        below = with_cam_range(scenario, math.nextafter(cam_range, 0.0))
        assert assert_same_shortest(below) == math.inf

    @pytest.mark.parametrize("cam_range", [9.0, 1e6, math.inf])
    def test_cam_range_beyond_the_map(self, cam_range):
        # The window is the whole map, clipped on every side.
        rng = np.random.default_rng(95)
        base = box_scenario(size_m=5.0, start=(0.55, 0.55, 0.0),
                            hyperparams={"cam_range": cam_range}, planner={"robot_radius": 0.0})
        results = []
        for _ in range(4):
            rows = scattered_walls(rng, 50, 50, 0.15)
            set_cells(rows, [(5, 5)], ".")
            results.append(assert_same_shortest(with_map(base, rows, rng.uniform(0.0, 5.0, 2))))
        assert any(math.isfinite(r) for r in results)
        # With every cell in range, a wall alone hides a target in a sealed room.
        rows = empty_rows(50, 50)
        set_cells(rows, [(25, iy) for iy in range(50)], "#")
        assert assert_same_shortest(with_map(base, rows, (4.0, 4.0))) == math.inf

    @pytest.mark.parametrize("resolution", [0.02, 0.5])
    def test_finest_and_coarsest_resolution(self, resolution, ctx):
        params = SuiteParams(count=2, rooms=2, landmarks=5, map_side=8.0, resolution=resolution)
        rng = np.random.default_rng(96)
        results = []
        for scenario in generate_suite(params, 3, ctx=ctx):
            assert math.isfinite(assert_same_shortest(scenario))
            free = np.argwhere(scenario.map.cells == CellState.FREE)
            for iy, ix in free[rng.integers(len(free), size=2)]:
                start = Pose(*scenario.map.cell_to_world(int(ix), int(iy)))
                moved = dataclasses.replace(scenario, start=start)
                results.append(assert_same_shortest(moved))
        assert any(math.isfinite(r) for r in results)

    def test_searches_only_cells_in_range(self, ctx, monkeypatch):
        # On the 20 m maps both searches rank exactly the reachable cells
        # within cam_range + resolution of the target: a few thousand of the
        # map's 40,000.  ground_truth_shortest searches first.  The
        # generator's start check asks the same rule of its start cell.
        passed = []
        rule = planning.first_confirming

        def spied(grid, target, hyper, mask, rank):
            ranked = []

            def recorded(xs, ys):
                ranked.append((xs, ys, rank(xs, ys)))
                return ranked[-1][2]

            hit = rule(grid, target, hyper, mask, None if rank is None else recorded)
            passed.append((target, hyper, mask, ranked, hit))
            return hit

        monkeypatch.setattr(planning, "first_confirming", spied)
        monkeypatch.setattr(suitegen, "first_confirming", spied)
        scenarios = generate_suite(dataclasses.replace(GEN_SHAPE, count=3), 7, ctx=ctx)
        starts = [(target, hyper, mask) for target, hyper, mask, _, hit in passed
                  if isinstance(mask, tuple) and hit is None]
        for scenario in scenarios:
            grid = scenario.map
            start = grid.world_to_cell(scenario.start.x, scenario.start.y)
            assert (scenario.target, scenario.hyperparams, start) in starts
            passed.clear()
            assert math.isfinite(ground_truth_shortest(scenario))
            assert observable(scenario)
            assert len(passed) == 2
            tx, ty = scenario.target.position
            start = grid.world_to_cell(scenario.start.x, scenario.start.y)
            drivable = drivable_mask(grid, start, scenario.planner.robot_radius)
            reachable = np.isfinite(distance_field(drivable, grid.resolution, start, math.inf))
            want = loop_cells_near_rect(reachable, (tx, ty, tx, ty), grid.resolution,
                                        scenario.hyperparams.cam_range + grid.resolution)
            assert 0 < len(want) < grid.width * grid.height / 4
            for target, hyper, _, ranked, _ in passed:
                assert (target, hyper) == (scenario.target, scenario.hyperparams)
                (xs, ys, _), = ranked
                assert sorted(zip(xs.tolist(), ys.tolist())) == sorted(want)
            # target_observable ranks the cells nearest the target first.
            (xs, ys, keys), = passed[1][3]
            gap = np.hypot((xs + 0.5) * grid.resolution - tx, (ys + 0.5) * grid.resolution - ty)
            assert (np.diff(gap[np.argsort(keys, kind="stable")]) >= 0.0).all()
