"""``raycast_batch`` and the lidar sweep against the step-by-step grid walk.

``stepwise_raycast_batch`` (in ``util``) is the Amanatides & Woo (1987)
traversal advanced one grid-line crossing per iteration for every active ray.
``raycast_batch``, which walks its rays from one origin out to one range one
at a time, must reproduce its distances bit for bit (down to the sign of a
zero) and its ``blocked`` flags; rays from many origins or to many ranges
take one call each.  ``stepwise_ray`` (in ``util``), the same walk for one
ray in Python scalars, must reproduce them too.
The walk also flags the free and hit cells, and the lidar sweep, which writes
those cells into the belief in one pass over all rays, must give the belief
they give.  The sweep reads its crossing order from a cache keyed on
the origin's exact offsets to its cell's grid lines, so its beliefs are
checked from origins whose offsets differ by a single ulp too, over several
blocks of rays, and with int64 cell indices.  The flat-index offsets of its
cells come from a second cache, keyed on the step pattern and the map's
width, so beliefs are checked on maps of two widths swept from equal
offsets, and from origins whose index passes the int16 offsets' range.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from objsearch import world
from objsearch.errors import DomainError
from objsearch.sensing import lidar_update
from objsearch.world import CellState, GridMap, Pose, raycast_batch
from util import empty_rows, stepwise_ray, stepwise_raycast_batch, sweep_offsets, unknown_belief


def assert_same_as_reference(grid, origin, bearings, max_range):
    got = raycast_batch(grid, origin, bearings, max_range)
    want = stepwise_raycast_batch(grid, origin, bearings, max_range)
    # Bitwise: -0.0 and 0.0 differ here, as do distances one ulp apart.
    assert got[0].dtype == want[0].dtype == np.float64
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])


def random_grid(rng, width=24, height=18, density=0.2, res=0.1):
    cells = np.where(rng.random((height, width)) < density, CellState.OCCUPIED, CellState.FREE)
    return GridMap(width, height, res, cells)


def free_origins(grid, rng, count):
    """Cell centres and off-centre points inside free cells."""
    free = np.argwhere(grid.cells == CellState.FREE)
    res = grid.resolution
    out = []
    for k in range(count):
        iy, ix = free[rng.integers(len(free))]
        if k % 2:
            out.append(((ix + 0.5) * res, (iy + 0.5) * res))
        else:
            fx, fy = rng.uniform(0.0, 1.0, size=2)
            out.append(((ix + fx) * res, (iy + fy) * res))
    return out


AXIS_AND_DIAGONAL = np.array([k * math.pi / 4.0 for k in range(-4, 4)])


class TestRaycastMatchesStepwiseWalk:
    def test_random_maps_all_bearings(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            grid = random_grid(rng)
            for origin in free_origins(grid, rng, 4):
                bearings = rng.uniform(-math.pi, math.pi, size=37)
                assert_same_as_reference(grid, origin, bearings, rng.uniform(0.05, 2.5))

    def test_lidar_sweep_from_cell_centres(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng, 40, 30, density=0.1)
        bearings = np.arange(360, dtype=np.float64) * (2.0 * math.pi / 360)
        for origin in free_origins(grid, rng, 6):
            assert_same_as_reference(grid, origin, bearings, 3.5)

    def test_axis_aligned_and_diagonal_bearings(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            grid = random_grid(rng, density=0.15)
            for origin in free_origins(grid, rng, 4):
                assert_same_as_reference(grid, origin, AXIS_AND_DIAGONAL, 1.7)

    def test_range_ends_exactly_on_grid_line(self):
        rng = np.random.default_rng(3)
        grid = random_grid(rng, density=0.05, res=0.25)
        for origin in free_origins(grid, rng, 6):
            ox = origin[0]
            for k in range(1, 5):
                # East and west: the range reaches the k-th vertical line exactly.
                east = (math.floor(ox / 0.25) + k) * 0.25 - ox
                west = ox - (math.ceil(ox / 0.25) - k) * 0.25
                assert_same_as_reference(grid, origin, np.array([0.0]), east)
                assert_same_as_reference(grid, origin, np.array([math.pi]), west)
            assert_same_as_reference(grid, origin, AXIS_AND_DIAGONAL, 0.25 * 3)

    def test_origins_on_grid_lines_and_corners(self):
        rows = empty_rows(12, 12, border=False)
        rows[5] = rows[5][:6] + "#" + rows[5][7:]
        grid = GridMap.from_rows(rows, 0.5)
        bearings = np.concatenate([AXIS_AND_DIAGONAL, np.linspace(-3.0, 3.0, 13)])
        for origin in [(3.0, 3.0), (3.0, 3.2), (2.7, 3.0), (2.5, 3.5), (0.0, 0.0), (3.5, 3.0)]:
            assert_same_as_reference(grid, origin, bearings, 4.0)

    def test_rays_leave_the_map(self):
        rng = np.random.default_rng(8)
        grid = random_grid(rng, 10, 7, density=0.1)
        bearings = np.linspace(-math.pi, math.pi, 91)
        for origin in free_origins(grid, rng, 6):
            assert_same_as_reference(grid, origin, bearings, 50.0)

    def test_rays_cross_the_whole_map(self):
        # From corner cells of an empty map the longest rays cross every
        # column or row before leaving.  One ray per call, so the free cells
        # of one ray are not covered up by its neighbours'.
        for width, height in ((12, 5), (5, 12), (9, 9)):
            grid = GridMap(width, height, 0.1, np.full((height, width), CellState.FREE))
            for origin in ((0.05, 0.05), (width * 0.1 - 0.05, height * 0.1 - 0.05), (0.0, 0.0)):
                for bearing in np.linspace(-math.pi, math.pi, 73):
                    assert_same_as_reference(grid, origin, np.array([bearing]), 100.0)

    def test_first_step_on_two_grid_lines(self):
        # 4.3 m lies in cell 42 at 0.1 m, yet 43 * 0.1 == 4.3: the first vertical
        # line is at range +0.0.  From y = 0.5 heading south the first
        # horizontal line is at -0.0.  The walk takes the tie along x and
        # reports the range as min(+0.0, -0.0), which is -0.0.
        rows = empty_rows(60, 10, border=False)
        grid = GridMap.from_rows(rows, 0.1)
        cells = grid.cells.copy()
        cells[5, 43] = CellState.OCCUPIED
        grid = GridMap(60, 10, 0.1, cells)
        assert grid.world_to_cell(4.3, 0.5) == (42, 5)
        assert_same_as_reference(grid, (4.3, 0.5), np.array([-0.3, -1.2, 0.4, 2.0]), 1.0)
        dist, blocked = raycast_batch(grid, (4.3, 0.5), np.array([-0.3]), 1.0)
        assert blocked[0] and dist[0] == 0.0 and math.copysign(1.0, dist[0]) == -1.0

    def test_single_ray_calls(self):
        rng = np.random.default_rng(13)
        grid = random_grid(rng, 30, 30, density=0.08)
        for origin in free_origins(grid, rng, 30):
            bearing = rng.uniform(-math.pi, math.pi)
            assert_same_as_reference(grid, origin, np.array([bearing]), rng.uniform(0.0, 4.0))

    def test_thousands_of_rays_from_one_origin(self):
        rng = np.random.default_rng(17)
        grid = random_grid(rng, 30, 25, density=0.1)
        bearings = rng.uniform(-math.pi, math.pi, size=3000)
        for origin in free_origins(grid, rng, 2):
            assert_same_as_reference(grid, origin, bearings, 2.0)

    def test_zero_rays_and_occupied_origin(self):
        rows = ["...", ".#.", "..."]
        grid = GridMap.from_rows(rows, 1.0)
        assert_same_as_reference(grid, (0.5, 0.5), np.zeros(0), 2.0)
        assert_same_as_reference(grid, (1.5, 1.5), np.zeros(0), 2.0)
        assert_same_as_reference(grid, (1.5, 1.5), np.array([0.0, 1.0]), 2.0)

    @pytest.mark.parametrize("max_range", [0.0, -1.0, -math.inf, math.nan])
    def test_non_positive_range(self, max_range):
        rng = np.random.default_rng(4)
        grid = random_grid(rng)
        for origin in free_origins(grid, rng, 4):
            assert_same_as_reference(grid, origin, AXIS_AND_DIAGONAL, max_range)


def assert_each_ray_same_as_reference(grid, origins, bearings, ranges):
    """One call per ray, each from its own origin out to its own range."""
    for origin, bearing, reach in zip(origins, bearings, ranges):
        assert_same_as_reference(grid, origin, np.array([bearing]), reach)


def int64_corridor():
    """A 3-cell wide corridor, 12,000 cells long at 0.1 m, with a wall cell
    every 997 rows, whose rays run for thousands of cells."""
    cells = np.full((12_000, 3), CellState.FREE, dtype=np.uint8)
    cells[::997, 1] = CellState.OCCUPIED
    return GridMap(3, 12_000, 0.1, cells)


class TestPerRayOriginsAndRanges:
    """Rays from many origins out to many ranges, one call per ray."""

    def test_random_maps(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            grid = random_grid(rng)
            origins = free_origins(grid, rng, 40)
            bearings = rng.uniform(-math.pi, math.pi, size=40)
            assert_each_ray_same_as_reference(grid, origins, bearings, rng.uniform(0.0, 3.0, 40))

    def test_grid_lines_corners_and_occupied_origins(self):
        rows = empty_rows(12, 12, border=False)
        rows[5] = rows[5][:6] + "#" + rows[5][7:]
        grid = GridMap.from_rows(rows, 0.5)
        origins = [(3.0, 3.0), (3.0, 3.2), (2.7, 3.0), (2.5, 3.5), (0.0, 0.0), (3.5, 3.0),
                   (3.25, 3.25)]  # the last one lies in the occupied cell (6, 6)
        assert grid.cells[6, 6] == CellState.OCCUPIED
        bearings = np.concatenate([AXIS_AND_DIAGONAL, np.linspace(-3.0, 3.0, 13)])
        cases = [(o, b) for o in origins for b in bearings]
        ranges = np.resize([4.0, 0.5, 2.0, 0.0, 6.0], len(cases))
        assert_each_ray_same_as_reference(
            grid, [o for o, _ in cases], np.array([b for _, b in cases]), ranges
        )

    def test_mixed_ranges_including_invalid_ones(self):
        rng = np.random.default_rng(22)
        grid = random_grid(rng, 30, 25, density=0.1)
        origins = free_origins(grid, rng, 12)
        ranges = np.array([0.0, -1.0, -math.inf, math.nan, 0.05, 1.0, 2.5, 50.0] + [3.0] * 4)
        assert_each_ray_same_as_reference(grid, origins, rng.uniform(-3.0, 3.0, 12), ranges)

    def test_thousands_of_origins_and_ranges(self):
        # Against the scalar walk, which is the batch walk's bit for bit
        # (TestScalarReferenceWalk) and much faster one ray at a time.
        rng = np.random.default_rng(23)
        grid = random_grid(rng, 30, 25, density=0.1)
        origins = free_origins(grid, rng, 2500)
        bearings = rng.uniform(-math.pi, math.pi, size=2500)
        for origin, bearing, reach in zip(origins, bearings, rng.uniform(0.0, 3.0, 2500)):
            (dist,), (blocked,) = raycast_batch(grid, origin, np.array([bearing]), reach)
            want_dist, want_blocked = stepwise_ray(grid, origin, bearing, reach)
            assert np.float64(dist).tobytes() == np.float64(want_dist).tobytes()
            assert blocked == want_blocked

    def test_rays_thousands_of_cells_long(self):
        grid = int64_corridor()
        rng = np.random.default_rng(24)
        origins = [(0.05, 1199.95), (0.25, 600.05), (0.15, 0.35), (0.05, 1000.0)]
        bearings = np.array([-math.pi / 2, math.pi / 2, 1.5, -1.57])
        ranges = np.array([1300.0, 700.0, 3.0, 2.0])
        assert_each_ray_same_as_reference(grid, origins, bearings, ranges)
        bearings = rng.uniform(-math.pi, math.pi, size=40)
        assert_same_as_reference(grid, (0.15, 5.05), bearings, 120.0)

    def test_origin_outside_the_map_is_named(self):
        grid = GridMap.from_rows(["...", "..."], 1.0)
        for rays in (2, 0):  # the origin is checked even when no ray is cast
            with pytest.raises(DomainError, match=r"raycast origin \(3\.5, 0\.5\) outside"):
                raycast_batch(grid, (3.5, 0.5), np.zeros(rays), 1.0)

    def test_per_ray_origins_or_ranges_are_refused(self):
        grid = GridMap.from_rows(["...", "..."], 1.0)
        with pytest.raises(TypeError):
            raycast_batch(grid, np.array([(0.5, 0.5), (1.5, 0.5)]), np.zeros(2), 1.0)
        with pytest.raises(TypeError):
            raycast_batch(grid, (0.5, 0.5), np.zeros(2), np.array([1.0, 2.0]))


class TestScalarReferenceWalk:
    """``stepwise_ray`` is one ray of ``stepwise_raycast_batch``, bit for bit."""

    @staticmethod
    def assert_same_walk(grid, origin, bearing, max_range):
        dist, blocked = stepwise_ray(grid, origin, bearing, max_range)
        want = stepwise_raycast_batch(grid, origin, np.array([bearing]), max_range)
        assert np.float64(dist).tobytes() == want[0].tobytes()
        assert blocked == want[1][0]

    @pytest.mark.parametrize("res", [0.02, 0.1, 0.5])
    def test_random_rays(self, res):
        rng = np.random.default_rng(int(res * 100) + 40)
        grid = random_grid(rng, 60, 45, density=0.05, res=res)
        origins = free_origins(grid, rng, 100)
        bearings = np.concatenate([AXIS_AND_DIAGONAL, rng.uniform(-math.pi, math.pi, 92)])
        for origin, bearing in zip(origins, bearings):
            self.assert_same_walk(grid, origin, bearing, rng.uniform(0.0, 80.0 * res))

    def test_grid_line_origins_invalid_ranges_and_occupied_origins(self):
        rows = empty_rows(12, 12, border=False)
        rows[5] = rows[5][:6] + "#" + rows[5][7:]
        grid = GridMap.from_rows(rows, 0.5)
        bearings = np.concatenate([AXIS_AND_DIAGONAL, np.linspace(-3.0, 3.0, 13)])
        for origin in [(3.0, 3.0), (3.0, 3.2), (2.7, 3.0), (0.0, 0.0), (3.25, 3.25)]:
            for bearing in bearings:
                for reach in (4.0, 0.0, -1.0, math.nan, math.inf):
                    self.assert_same_walk(grid, origin, bearing, reach)

    def test_first_step_on_two_grid_lines(self):
        cells = np.full((10, 60), CellState.FREE, dtype=np.uint8)
        cells[5, 43] = CellState.OCCUPIED
        grid = GridMap(60, 10, 0.1, cells)
        dist, blocked = stepwise_ray(grid, (4.3, 0.5), -0.3, 1.0)
        assert blocked and dist == 0.0 and math.copysign(1.0, dist) == -1.0
        self.assert_same_walk(grid, (4.3, 0.5), -0.3, 1.0)

    def test_origin_outside_the_map_is_named(self):
        grid = GridMap.from_rows(["...", "..."], 1.0)
        with pytest.raises(DomainError, match=r"raycast origin \(3\.5, 0\.5\) outside"):
            stepwise_ray(grid, (3.5, 0.5), 0.0, 1.0)


def reference_sweep_cells(grid, origin, rays, max_range):
    """The lidar sweep's free and hit masks through the stepwise walk."""
    bearings = np.arange(rays, dtype=np.float64) * (2.0 * math.pi / rays)
    free = np.zeros((grid.height, grid.width), dtype=bool)
    hit = np.zeros_like(free)
    stepwise_raycast_batch(grid, origin, bearings, max_range, free, hit)
    return free, hit


def assert_sweeps_match_reference(grid, origins, rays, max_range):
    """Each sweep, on a fresh belief and on one grown by the sweeps before
    it, gives the belief the stepwise walk gives."""
    grown = unknown_belief(grid)
    want_grown = grown.cells.copy()
    for x, y in origins:
        free, hit = reference_sweep_cells(grid, (x, y), rays, max_range)
        want = np.full_like(want_grown, CellState.UNKNOWN)
        for cells in (want, want_grown):
            cells[free] = CellState.FREE
            cells[hit] = CellState.OCCUPIED
        fresh = unknown_belief(grid)
        lidar_update(fresh, grid, Pose(x, y, 0.0), rays, max_range)
        assert np.array_equal(fresh.cells, want), (x, y)
        lidar_update(grown, grid, Pose(x, y, 0.0), rays, max_range)
        assert np.array_equal(grown.cells, want_grown), (x, y)


def sweep_origins(grid, rng, count):
    """Cell centres, off-centre points, and points on a vertical grid line,
    a horizontal one and a grid corner, each in a free cell."""
    res = grid.resolution
    out = free_origins(grid, rng, count)
    free = np.argwhere(grid.cells == CellState.FREE)
    for fx, fy in ((0.0, 0.5), (0.5, 0.0), (0.0, 0.0)):
        for iy, ix in free[rng.permutation(len(free))]:
            x, y = (ix + fx) * res, (iy + fy) * res
            cx, cy = grid.world_to_cell(x, y)
            if grid.in_bounds(cx, cy) and grid.cells[cy, cx] == CellState.FREE:
                out.append((x, y))
                break
    return out


def x_offsets(ix, res):
    """The two x offsets of a sweep from the centre of column ``ix``."""
    x = (ix + 0.5) * res
    return (ix + 1) * res - x, ix * res - x


def sweep_within(res, rays, max_range, crossings, offsets):
    """Each ray's count of crossings in range, over all blocks of the sweep."""
    entry = world._sweep_geometry(res, rays, max_range, crossings, offsets)
    return np.concatenate([within for _, _, within in entry])


class TestLidarSweepMatchesStepwiseWalk:
    @pytest.mark.parametrize("res", [0.02, 0.05, 0.1, 0.2, 0.5])
    @pytest.mark.parametrize("rays", [8, 90, 360, 720])
    def test_random_maps(self, res, rays):
        rng = np.random.default_rng(rays + int(res * 100))
        grid = random_grid(rng, 36, 28, density=0.1, res=res)
        origins = sweep_origins(grid, rng, 4)
        # A short range, and one past the map's side, where the side caps
        # the crossings.
        for max_range in (5.3 * res, 2.0 * 36 * res):
            assert_sweeps_match_reference(grid, origins, rays, max_range)

    @pytest.mark.parametrize("res", [0.02, 0.1, 0.5])
    def test_rays_through_cell_corners(self, res):
        # From a cell centre the 45 degree rays of an 8-ray sweep pass (to
        # within rounding) through cell corners.
        rng = np.random.default_rng(31)
        grid = random_grid(rng, 30, 30, density=0.05, res=res)
        free = np.argwhere(grid.cells == CellState.FREE)
        centres = [grid.cell_to_world(int(ix), int(iy)) for iy, ix in free[:: len(free) // 12]]
        for max_range in (0.5, 7.5 * res, 40 * res):
            assert_sweeps_match_reference(grid, centres, 8, max_range)

    def test_crossing_on_the_range(self):
        # The 30 degree ray of a 12-ray sweep crosses a horizontal line at
        # 3.5 m from a cell centre at 0.1 m, up to rounding; with the range
        # set to the walk's own sum for that crossing, it lands on it exactly.
        res = 0.1
        rng = np.random.default_rng(32)
        grid = random_grid(rng, 90, 90, density=0.02, res=res)
        free = np.argwhere(grid.cells == CellState.FREE)
        centres = [grid.cell_to_world(int(ix), int(iy)) for iy, ix in free[:: len(free) // 8]]
        assert_sweeps_match_reference(grid, centres, 12, 3.5)
        inv = 1.0 / np.sin(2.0 * math.pi / 12)  # as the walk computes it
        for x, y in centres:
            iy = grid.world_to_cell(x, y)[1]
            crossing = ((iy + 1) * res - y) * inv
            for _ in range(17):
                crossing += res * abs(inv)
            assert 3.5 - 1e-12 < crossing < 3.5 + 1e-12
            assert_sweeps_match_reference(grid, [(x, y)], 12, float(crossing))

    @pytest.mark.parametrize("res, template, cell, ulps", [(0.02, 0, 1, 1), (0.1, 0, 10, 6)])
    def test_offsets_a_few_ulps_apart(self, res, template, cell, ulps):
        # Both sweeps start at a cell centre, but the offsets of the first are
        # exactly +-res/2 and those of the second miss them by ``ulps``, which
        # sends their diagonal rays through other cells.  A cache keyed on
        # nominal offsets would serve the second sweep the first's order.
        assert x_offsets(template, res) == (res / 2, -res / 2)
        apart = [abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))
                 for a, b in zip(x_offsets(cell, res), x_offsets(template, res))]
        assert apart == [ulps, ulps]
        grid = GridMap(30, 30, res, np.full((30, 30), CellState.FREE, dtype=np.uint8))
        crossings = world._crossing_count(grid, 0.5)
        geometry = world._sweep_geometry.__wrapped__  # uncached
        one, other = (geometry(res, 8, 0.5, crossings, x_offsets(i, res) * 2)
                      for i in (template, cell))
        assert not all(np.array_equal(a, b) for (_, a, _), (_, b, _) in zip(one, other))
        world._sweep_geometry.cache_clear()
        origins = [grid.cell_to_world(template, template), grid.cell_to_world(cell, cell)]
        assert_sweeps_match_reference(grid, origins, 8, 0.5)

    @pytest.mark.parametrize("rays, max_range, blocks", [(3000, 10.0, 4), (2501, 1.7, 2)])
    def test_more_rays_than_one_block(self, rays, max_range, blocks):
        # The cached geometry packs each block's rows to the longest ray of
        # that block, and the sweep unpacks it block by block.
        rng = np.random.default_rng(rays)
        grid = random_grid(rng, 40, 34, density=0.1, res=0.1)
        assert len(world._blocks(rays, world._crossing_count(grid, max_range))) == blocks
        assert_sweeps_match_reference(grid, sweep_origins(grid, rng, 2), rays, max_range)

    def test_blocks_unpacked_to_their_own_longest_ray(self):
        # From just inside a cell's lower-left corner, the rays of the third
        # quadrant cross more grid lines in range than those of the first,
        # so a sweep of four quarter-turn blocks packs its blocks to
        # different lengths, and each is unpacked to its own.
        res, max_range, ix = 0.1, 5.0, 60
        grid = GridMap(120, 120, res, np.full((120, 120), CellState.FREE, dtype=np.uint8))
        crossings = world._crossing_count(grid, max_range)
        rays = 4 * world._blocks(1, crossings)[0].stop  # four blocks' worth
        x = ix * res + 1e-3
        offsets = ((ix + 1) * res - x, ix * res - x) * 2
        entry = world._sweep_geometry(res, rays, max_range, crossings, offsets)
        longest = [int(within.max()) for _, _, within in entry]
        assert len(entry) == 4 and longest[2] > longest[0]
        assert_sweeps_match_reference(grid, [(x, x)], rays, max_range)

    def test_map_too_large_for_int32_cell_indices(self):
        grid = int64_corridor()
        assert_sweeps_match_reference(grid, [(0.15, 5.05), (0.05, 1199.95)], 8, 1300.0)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (6, 23)])
    @pytest.mark.parametrize("rays", [8, 90])
    def test_thin_maps_corner_origins_and_ranges_past_the_map(self, shape, rays):
        # At a range three times the map's side every crossing of a diagonal
        # ray is in range, so it takes 2 * crossings steps, nearly all of
        # them off the map; origins in corner cells leave it at once.
        height, width = shape
        res = 0.1
        rng = np.random.default_rng(height * 100 + width)
        cells = np.where(rng.random(shape) < 0.15, CellState.OCCUPIED, CellState.FREE)
        corners = [(0, 0), (width - 1, 0), (0, height - 1), (width - 1, height - 1)]
        for ix, iy in corners:
            cells[iy, ix] = CellState.FREE
        grid = GridMap(width, height, res, cells)
        origins = [((ix + 0.5) * res, (iy + 0.5) * res) for ix, iy in corners]
        origins += [(0.0, 0.0), (width * res - 1e-9, height * res - 1e-9)]
        max_range = 3.0 * max(width, height) * res
        crossings = world._crossing_count(grid, max_range)
        offsets = (res / 2, -res / 2, res / 2, -res / 2)
        within = sweep_within(res, 8, max_range, crossings, offsets)
        assert within.max() == 2 * crossings
        for reach in (max_range, 1.5 * res):
            assert_sweeps_match_reference(grid, origins, rays, reach)

    def test_sweep_too_long_for_int32_cell_indices(self):
        # A diagonal ray on a 1-row map 34,000 cells long, in range of every
        # crossing, takes 68,000 steps, and the bound on its offsets over
        # the bordered map, (34,002 + 1) * 68,000, passes 2**31, so they are
        # int64.  Walls near the origin keep the reference walk short.
        width, res, max_range = 34_000, 0.1, 5_000.0
        cells = np.full((1, width), CellState.FREE, dtype=np.uint8)
        cells[0, [16_990, 17_010]] = CellState.OCCUPIED
        grid = GridMap(width, 1, res, cells)
        origin = (1700.05, 0.05)
        crossings = world._crossing_count(grid, max_range)
        ix = grid.world_to_cell(*origin)[0]
        offsets = ((ix + 1) * res - origin[0], ix * res - origin[0], res / 2, -res / 2)
        within = sweep_within(res, 8, max_range, crossings, offsets)
        assert crossings == width and within.max() == 2 * width
        assert (width + 3) * 2 * width >= 2**31
        assert_sweeps_match_reference(grid, [origin], 8, max_range)
        assert np.dtype(np.int64) in {e.dtype for e in sweep_offsets(grid, origin, 8, max_range)}

    def test_padded_index_past_int16_with_int16_offsets(self):
        # On a 300 x 300 map at 0.1 m the bordered map is 302 cells wide, so
        # an origin above row 107 has a flat index past 32,767, while a
        # 0.5 m sweep takes at most 16 steps (8 crossings per axis), whose
        # offsets, below 303 * 16 in magnitude, are int16.  Adding such an
        # origin to int16 offsets in int16 would overflow.
        rng = np.random.default_rng(36)
        grid = random_grid(rng, 300, 300, density=0.1, res=0.1)
        origins = [(x, y) for x, y in free_origins(grid, rng, 12)
                   if (int(y / 0.1) + 1) * 302 > 2**15]
        assert len(origins) >= 6
        assert_sweeps_match_reference(grid, origins, 90, 0.5)
        for origin in origins:
            assert {e.dtype for e in sweep_offsets(grid, origin, 90, 0.5)} == {np.dtype(np.int16)}

    def test_offsets_cache_is_keyed_on_the_map_width(self):
        """Two maps of different widths, swept in alternation from origins
        with the same exact offsets, share every crossing order and step
        pattern but not their flat-index offsets: a y step moves the index
        by a whole row of the bordered map.  An offsets cache keyed without
        the width would serve one map the other's offsets, and fail here."""
        rng = np.random.default_rng(37)
        narrow, wide = (random_grid(rng, w, 30, density=0.1, res=0.1) for w in (30, 41))
        cells = [(ix, iy) for ix, iy in ((7, 9), (15, 15), (22, 20))
                 if narrow.cells[iy, ix] == wide.cells[iy, ix] == CellState.FREE]
        assert len(cells) >= 2
        world._ray_offsets.cache_clear()
        for ix, iy in cells:
            origin = narrow.cell_to_world(ix, iy)
            for grid in (narrow, wide, narrow):
                assert_sweeps_match_reference(grid, [origin], 90, 1.2)
        assert world._ray_offsets.cache_info().hits > 0
