"""``raycast_batch`` against the step-by-step grid walk it replaced.

``stepwise_raycast_batch`` is the Amanatides & Woo (1987) traversal advanced
one grid-line crossing per iteration for every active ray.  The closed-form
kernel must reproduce it bit for bit: the same distances (down to the sign of
a zero), the same ``blocked`` flags and the same free and hit cells.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from objsearch.errors import DomainError
from objsearch.world import CellState, GridMap, raycast_batch
from util import empty_rows


def stepwise_raycast_batch(grid, origin, bearings, max_range, free_mask=None, hit_mask=None):
    """Reference: the grid walk stepped one crossing at a time."""
    x0, y0 = float(origin[0]), float(origin[1])
    ix0, iy0 = grid.world_to_cell(x0, y0)
    if not grid.in_bounds(ix0, iy0):
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

    res = grid.resolution
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


def assert_same_as_reference(grid, origin, bearings, max_range):
    got_free = np.zeros((grid.height, grid.width), dtype=bool)
    got_hit = np.zeros_like(got_free)
    want_free = np.zeros_like(got_free)
    want_hit = np.zeros_like(got_free)
    got = raycast_batch(grid, origin, bearings, max_range, got_free, got_hit)
    want = stepwise_raycast_batch(grid, origin, bearings, max_range, want_free, want_hit)
    # Bitwise: -0.0 and 0.0 differ here, as do distances one ulp apart.
    assert got[0].dtype == want[0].dtype == np.float64
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got_free, want_free)
    assert np.array_equal(got_hit, want_hit)
    # Without masks the kernel returns the same rays.
    plain = raycast_batch(grid, origin, bearings, max_range)
    assert plain[0].tobytes() == want[0].tobytes()
    assert np.array_equal(plain[1], want[1])


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

    def test_more_rays_than_one_block(self):
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


def assert_per_ray_same_as_reference(grid, origins, bearings, ranges):
    """One origin and range per ray: each ray equals its own single-ray walk,
    and the masks are the union of the single-ray masks."""
    got_free = np.zeros((grid.height, grid.width), dtype=bool)
    got_hit = np.zeros_like(got_free)
    want_free = np.zeros_like(got_free)
    want_hit = np.zeros_like(got_free)
    dist, blocked = raycast_batch(grid, np.array(origins), bearings, ranges, got_free, got_hit)
    for k, (origin, bearing, reach) in enumerate(zip(origins, bearings, ranges)):
        want = stepwise_raycast_batch(grid, origin, np.array([bearing]), reach,
                                      want_free, want_hit)
        assert dist[k : k + 1].tobytes() == want[0].tobytes()
        assert blocked[k] == want[1][0]
    assert np.array_equal(got_free, want_free)
    assert np.array_equal(got_hit, want_hit)


class TestPerRayOriginsAndRanges:
    def test_random_maps(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            grid = random_grid(rng)
            origins = free_origins(grid, rng, 40)
            bearings = rng.uniform(-math.pi, math.pi, size=40)
            assert_per_ray_same_as_reference(grid, origins, bearings, rng.uniform(0.0, 3.0, 40))

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
        assert_per_ray_same_as_reference(
            grid, [o for o, _ in cases], np.array([b for _, b in cases]), ranges
        )

    def test_mixed_ranges_including_invalid_ones(self):
        rng = np.random.default_rng(22)
        grid = random_grid(rng, 30, 25, density=0.1)
        origins = free_origins(grid, rng, 12)
        ranges = np.array([0.0, -1.0, -math.inf, math.nan, 0.05, 1.0, 2.5, 50.0] + [3.0] * 4)
        assert_per_ray_same_as_reference(grid, origins, rng.uniform(-3.0, 3.0, 12), ranges)

    def test_more_rays_than_one_block(self):
        rng = np.random.default_rng(23)
        grid = random_grid(rng, 30, 25, density=0.1)
        origins = free_origins(grid, rng, 2500)
        bearings = rng.uniform(-math.pi, math.pi, size=2500)
        assert_per_ray_same_as_reference(grid, origins, bearings, rng.uniform(0.0, 3.0, 2500))

    def test_map_too_large_for_int32_cell_indices(self):
        # 16 * side**2 >= 2**31 from a side of 11586 cells, so this 3-cell
        # wide corridor is traced with int64 cell indices.
        height = 12_000
        cells = np.full((height, 3), CellState.FREE, dtype=np.uint8)
        cells[::997, 1] = CellState.OCCUPIED
        grid = GridMap(3, height, 0.1, cells)
        rng = np.random.default_rng(24)
        origins = [(0.05, 1199.95), (0.25, 600.05), (0.15, 0.35), (0.05, 1000.0)]
        bearings = np.array([-math.pi / 2, math.pi / 2, 1.5, -1.57])
        ranges = np.array([1300.0, 700.0, 3.0, 2.0])
        assert_per_ray_same_as_reference(grid, origins, bearings, ranges)
        bearings = rng.uniform(-math.pi, math.pi, size=40)
        assert_same_as_reference(grid, (0.15, 5.05), bearings, 120.0)

    def test_origin_outside_the_map_is_named(self):
        grid = GridMap.from_rows(["...", "..."], 1.0)
        with pytest.raises(DomainError, match=r"raycast origin \(3\.5, 0\.5\) outside"):
            raycast_batch(grid, np.array([(0.5, 0.5), (3.5, 0.5)]), np.zeros(2), 1.0)
        for rays in (2, 0):  # a shared origin is checked even when no ray is cast
            with pytest.raises(DomainError, match=r"raycast origin \(3\.5, 0\.5\) outside"):
                raycast_batch(grid, (3.5, 0.5), np.zeros(rays), 1.0)
