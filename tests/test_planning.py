"""Planning kernels against references, and viewpoint and frontier choice.

``coo_distance_field`` is the per-call graph build ``distance_field`` used
before: four rolled neighbour masks assembled into a COO matrix.  The current
build must give bit-equal fields, which is what lets the episode loop and the
SPL reference keep byte-identical traces and records.  ``loop_clear_robot_disk``
is the cell-by-cell footprint whitelist that ``clear_robot_disk`` replaced.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from objsearch.errors import DomainError, NoPathError
from objsearch.planning import (
    SQRT2,
    LandmarkEntry,
    Viewpoint,
    _disk_offsets,
    clear_robot_disk,
    distance_field,
    generate_viewpoints,
    inflate_occupied,
    nearest_frontier,
    passes_thresholds,
    plan_path,
    plan_waypoints,
    viewpoint_cost,
)
from objsearch.world import CellState, GridMap, HyperParams, PlannerParams, Pose


def coo_distance_field(traversable, resolution, sources):
    """Reference: the graph rebuilt from rolled masks on every call."""
    height, width = traversable.shape
    n = height * width
    trav = traversable.astype(bool)
    rows, cols, data = [], [], []
    for dx, dy, step in ((1, 0, 1.0), (0, 1, 1.0), (1, 1, SQRT2), (-1, 1, SQRT2)):
        src = trav.copy()
        if dx > 0:
            src[:, width - dx :] = False
        elif dx < 0:
            src[:, : -dx] = False
        if dy > 0:
            src[height - dy :, :] = False
        src &= np.roll(np.roll(trav, -dy, axis=0), -dx, axis=1)
        idx = np.flatnonzero(src.ravel())
        if idx.size:
            rows.append(idx)
            cols.append(idx + dy * width + dx)
            data.append(np.full(idx.size, step))
    valid = [
        (int(x), int(y))
        for x, y in sources
        if 0 <= x < width and 0 <= y < height and trav[int(y), int(x)]
    ]
    field = np.full(n, np.inf)
    if not valid:
        return field.reshape(height, width)
    if rows:
        graph = coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        )
        field = dijkstra(graph, directed=False, indices=[y * width + x for x, y in valid],
                         min_only=True)
    for x, y in valid:
        field[y * width + x] = 0.0
    return field.reshape(height, width) * resolution


def random_sources(rng, trav, count):
    ys, xs = np.nonzero(trav)
    if xs.size == 0:
        return []
    picks = rng.integers(xs.size, size=count)
    return [(int(xs[k]), int(ys[k])) for k in picks]


SHAPES = [(1, 1), (1, 9), (9, 1), (2, 2), (7, 3), (3, 7), (30, 50), (64, 64), (140, 140)]


class TestDistanceField:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_per_call_coo_build(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for density in (0.0, 0.3, 0.6, 1.0):
            trav = rng.random(shape) >= density
            for count in (1, 3):
                sources = random_sources(rng, trav, count)
                for res in (0.1, 0.25):
                    got = distance_field(trav, res, sources)
                    want = coo_distance_field(trav, res, sources)
                    assert got.tobytes() == want.tobytes()

    def test_invalid_and_duplicate_sources(self):
        rng = np.random.default_rng(9)
        trav = rng.random((20, 30)) < 0.7
        blocked = tuple(int(v) for v in np.argwhere(~trav)[0][::-1])
        for sources in ([], [(-1, 0)], [(30, 0)], [blocked], [(0, 0), (0, 0), blocked]):
            got = distance_field(trav, 0.1, sources)
            assert got.tobytes() == coo_distance_field(trav, 0.1, sources).tobytes()

    def test_plan_path_length_equals_field_at_goal(self):
        rng = np.random.default_rng(21)
        checked = unreachable = 0
        for k in range(40):
            trav = rng.random((25, 25)) < (0.75 if k % 2 else 0.45)
            cells = np.where(trav, CellState.FREE, CellState.OCCUPIED).astype(np.uint8)
            belief = GridMap(25, 25, 0.1, cells)
            start, goal = random_sources(rng, trav, 2)
            field = distance_field(trav, 0.1, [start])
            want = field[goal[1], goal[0]]
            if math.isfinite(want):
                path = plan_path(belief, start, goal, trav)
                assert path.length == pytest.approx(want, rel=1e-12, abs=1e-12)
                checked += 1
            else:
                with pytest.raises(NoPathError):
                    plan_path(belief, start, goal, trav)
                unreachable += 1
        assert checked > 10 and unreachable > 5


class TestInflation:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 3), (30, 50)])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 6])
    def test_matches_binary_dilation(self, shape, radius):
        rng = np.random.default_rng(radius * 100 + shape[1])
        span = np.arange(-radius, radius + 1)
        dy, dx = np.meshgrid(span, span, indexing="ij")
        disk = (dx * dx + dy * dy) <= radius * radius + 1e-9
        for density in (0.01, 0.1, 0.5):
            occupied = rng.random(shape) < density
            want = ndimage.binary_dilation(occupied, structure=disk) if radius else occupied
            assert np.array_equal(inflate_occupied(occupied, radius), want)


def loop_clear_robot_disk(trav, belief, cell, robot_radius):
    """Reference: the footprint whitelist walked cell by cell."""
    radius_cells = int(math.ceil(robot_radius / belief.resolution - 1e-9))
    cx, cy = cell
    for dy in range(-radius_cells, radius_cells + 1):
        for dx in range(-radius_cells, radius_cells + 1):
            if dx * dx + dy * dy > radius_cells * radius_cells + 1e-9:
                continue
            x, y = cx + dx, cy + dy
            if belief.in_bounds(x, y) and belief.cells[y, x] == CellState.FREE:
                trav[y, x] = True
    trav[cy, cx] = True
    return trav


class TestClearRobotDisk:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 8), (12, 12), (30, 20)])
    @pytest.mark.parametrize("robot_radius", [0.0, 0.05, 0.1, 0.2, 0.25, 0.45])
    def test_matches_cell_loop(self, shape, robot_radius):
        height, width = shape
        rng = np.random.default_rng(height * 100 + width + int(robot_radius * 100))
        for _ in range(8):
            cells = rng.integers(0, len(CellState), size=shape)  # all three states
            belief = GridMap(width, height, 0.1, cells)
            trav = rng.random(shape) < 0.3
            corners = [(0, 0), (width - 1, height - 1), (0, height - 1), (width - 1, 0)]
            for cell in corners + [(int(rng.integers(width)), int(rng.integers(height)))]:
                want = loop_clear_robot_disk(trav.copy(), belief, cell, robot_radius)
                got = trav.copy()
                assert clear_robot_disk(got, belief, cell, robot_radius) is got
                assert np.array_equal(got, want)


def open_belief(width, height, unknown=()):
    """An all-free belief at 1 m per cell, with the given cells still unknown."""
    cells = np.full((height, width), CellState.FREE, dtype=np.uint8)
    for x, y in unknown:
        cells[y, x] = CellState.UNKNOWN
    return GridMap(width, height, 1.0, cells)


class TestGenerateViewpoints:
    """Landmark at the centre of cell (5, 5); the ring of radius 3 m has four
    poses, at angle indices 0-3 in cells (8, 5), (5, 8), (2, 5) and (5, 2)."""

    PARAMS = PlannerParams(view_radius=3.0, view_directions=4)
    RING = [(8, 5), (5, 8), (2, 5), (5, 2)]

    def choose(self, belief, trav, dist, position=(5.5, 5.5)):
        landmark = LandmarkEntry("lm000", "desk", position, 0.5, 0.1)
        return generate_viewpoints(belief, landmark, self.PARAMS, trav, dist)

    def field(self, *values):
        dist = np.full((11, 11), np.inf)
        for (x, y), value in zip(self.RING, values):
            dist[y, x] = value
        return dist

    def test_nearest_reachable_pose_wins(self):
        belief = open_belief(11, 11)
        trav = np.ones((11, 11), dtype=bool)
        vp = self.choose(belief, trav, distance_field(trav, 1.0, [(9, 5)]))
        assert (vp.landmark.id, vp.landmark.name, vp.landmark.cooccur,
                vp.landmark.sem_uncert) == ("lm000", "desk", 0.5, 0.1)
        assert vp.pose.x == pytest.approx(8.5) and vp.pose.y == pytest.approx(5.5)
        assert vp.pose.theta == pytest.approx(-math.pi)  # faces the landmark
        vp = self.choose(belief, trav, self.field(4.0, 3.0, 2.0, 5.0))
        assert (vp.pose.x, vp.pose.y) == pytest.approx((2.5, 5.5))
        assert vp.pose.theta == pytest.approx(0.0, abs=1e-12)

    def test_tie_goes_to_lower_angle_index(self):
        belief = open_belief(11, 11)
        trav = np.ones((11, 11), dtype=bool)
        vp = self.choose(belief, trav, distance_field(trav, 1.0, [(5, 5)]))
        assert (vp.pose.x, vp.pose.y) == pytest.approx((8.5, 5.5))
        vp = self.choose(belief, trav, self.field(3.0, 2.0, 2.0, 2.0))
        assert (vp.pose.x, vp.pose.y) == pytest.approx((5.5, 8.5))

    def test_blocked_or_unreachable_candidates_are_skipped(self):
        belief = open_belief(11, 11)
        trav = np.ones((11, 11), dtype=bool)
        dist = self.field(1.0, 2.0, 2.0, 3.0)
        trav[5, 8] = False  # not traversable
        assert self.choose(belief, trav, dist).pose.y == pytest.approx(8.5)
        trav[5, 8] = True
        belief.cells[5, 8] = CellState.OCCUPIED  # not observed free
        assert self.choose(belief, trav, dist).pose.y == pytest.approx(8.5)
        belief.cells[5, 8] = CellState.FREE
        vp = self.choose(belief, trav, self.field(np.inf, 2.0, np.inf, np.inf))  # unreachable
        assert vp.pose.y == pytest.approx(8.5)

    def test_no_usable_candidate_gives_none(self):
        belief = open_belief(11, 11)
        trav = np.ones((11, 11), dtype=bool)
        assert self.choose(belief, trav, self.field()) is None
        trav[5, 8] = trav[8, 5] = False
        belief.cells[5, 2] = belief.cells[2, 5] = CellState.UNKNOWN
        assert self.choose(belief, trav, self.field(1.0, 1.0, 1.0, 1.0)) is None

    def test_ring_poses_off_the_map_are_skipped(self):
        belief = open_belief(11, 11)
        trav = np.ones((11, 11), dtype=bool)
        dist = np.zeros((11, 11))
        vp = self.choose(belief, trav, dist, position=(9.5, 9.5))  # only 180 and 270 deg fit
        assert (vp.pose.x, vp.pose.y) == pytest.approx((6.5, 9.5))
        with pytest.raises(DomainError):
            self.choose(belief, trav, dist, position=(11.5, 5.5))


def viewpoint(landmark_id, x, y, cooccur=0.5, sem_uncert=0.0):
    """A viewpoint at (x, y) for a landmark with the given scores."""
    return Viewpoint(LandmarkEntry(landmark_id, "desk", (x, y), cooccur, sem_uncert), Pose(x, y))


def order(current, candidates, hp=HyperParams()):
    return [vp.landmark.id for vp in plan_waypoints(current, candidates, hp)]


class TestLandmarkEntry:
    @pytest.mark.parametrize("cooccur, sem_uncert", [(1.5, 0.0), (-1.01, 0.0), (math.nan, 0.0),
                                                     (0.5, -0.1)])
    def test_bad_scores_rejected(self, cooccur, sem_uncert):
        with pytest.raises(DomainError):
            LandmarkEntry("lm000", "desk", (1.0, 1.0), cooccur, sem_uncert)

    def test_bounds_are_inclusive_and_writes_are_checked(self):
        entry = LandmarkEntry("lm000", "desk", (1.0, 1.0), -1.0, 0.0)
        entry.cooccur, entry.sem_uncert = 1.0, 3.0  # a merge with better scores
        with pytest.raises(DomainError):
            entry.cooccur = 1.25
        with pytest.raises(DomainError):
            entry.sem_uncert = -1e-9
        assert (entry.cooccur, entry.sem_uncert) == (1.0, 3.0)


class TestRanking:
    """The greedy visit order of :func:`plan_waypoints` and the skip rule."""

    START = Pose(0.0, 0.0)
    ZERO = HyperParams(lambda1=0.0, lambda2=0.0)

    def test_anchor_moves_to_each_chosen_pose(self):
        # From the start the order by distance is lm000, lm001, lm002; from
        # lm000's pose lm002 is nearer than lm001.
        vps = [viewpoint("lm000", 1.0, 0.0), viewpoint("lm001", -1.5, 0.0),
               viewpoint("lm002", 2.2, 0.0)]
        assert order(self.START, vps) == ["lm000", "lm002", "lm001"]
        assert order(Pose(-1.0, 0.0), vps) == ["lm001", "lm000", "lm002"]

    def test_cost_ties_break_on_landmark_id(self):
        east, north = viewpoint("lm001", 1.0, 0.0), viewpoint("lm000", 0.0, 1.0)
        hp = HyperParams()
        assert viewpoint_cost(self.START, east, hp) == viewpoint_cost(self.START, north, hp)
        assert order(self.START, [east, north]) == ["lm000", "lm001"]
        assert order(self.START, [north, east]) == ["lm000", "lm001"]
        west, south = viewpoint("lm003", -1.0, 0.0), viewpoint("lm002", 0.0, -1.0)
        assert order(self.START, [west, east, south, north]) == ["lm000", "lm001", "lm002",
                                                                   "lm003"]

    def test_thresholds_are_inclusive(self):
        hp = HyperParams(t_c=0.2, t_u=0.5)
        assert passes_thresholds(viewpoint("lm000", 1.0, 0.0, 0.2, 0.5), hp)
        assert not passes_thresholds(viewpoint("lm000", 1.0, 0.0, math.nextafter(0.2, -1.0),
                                               0.5), hp)
        assert not passes_thresholds(viewpoint("lm000", 1.0, 0.0, 0.2,
                                               math.nextafter(0.5, 1.0)), hp)

    def test_cost_terms(self):
        vp = viewpoint("lm000", 3.0, 4.0, cooccur=0.25, sem_uncert=2.0)
        hp = HyperParams(lambda1=2.0, lambda2=0.5)
        assert viewpoint_cost(self.START, vp, hp) == 5.0 + 2.0 * (1.001 - 0.25) + 0.5 * 2.0
        assert viewpoint_cost(self.START, vp, self.ZERO) == 5.0

    def test_zero_lambdas_order_by_straight_line_distance(self):
        # On a ray from the start the greedy chain is the order by distance,
        # whatever the scores.
        scores = [(1.0, 0.0), (0.2, 2.5), (0.6, 1.0), (0.9, 0.1)]
        vps = [viewpoint(f"lm{k:03d}", d * 0.6, d * 0.8, *scores[k])
               for k, d in enumerate((3.0, 1.0, 4.0, 2.0))]
        assert order(self.START, vps, self.ZERO) == ["lm001", "lm003", "lm000", "lm002"]

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_lambdas_follow_the_nearest_neighbour_chain(self, seed):
        rng = np.random.default_rng(seed)
        vps = [viewpoint(f"lm{k:03d}", *rng.uniform(-5.0, 5.0, size=2),
                         cooccur=rng.uniform(0.2, 1.0), sem_uncert=rng.uniform(0.0, 2.5))
               for k in range(8)]
        want, anchor, pool = [], (0.0, 0.0), list(vps)
        while pool:
            best = min(pool, key=lambda vp: (math.hypot(vp.pose.x - anchor[0],
                                                        vp.pose.y - anchor[1]), vp.landmark.id))
            pool.remove(best)
            want.append(best.landmark.id)
            anchor = (best.pose.x, best.pose.y)
        assert order(self.START, vps, self.ZERO) == want


class TestNearestFrontier:
    """Unknown cell (2, 2) leaves a 4-cell frontier cluster (label 1); unknown
    cells (10, 6) and (11, 6) leave a 6-cell cluster (label 2)."""

    UNKNOWN = [(2, 2), (10, 6), (11, 6)]
    SMALL = [(1, 2), (2, 1), (2, 3), (3, 2)]
    LARGE = [(9, 6), (10, 5), (10, 7), (11, 5), (11, 7), (12, 6)]

    def belief(self):
        return open_belief(15, 10, self.UNKNOWN)

    def field(self, small, large):
        dist = np.full((10, 15), np.inf)
        for cells, value in ((self.SMALL, small), (self.LARGE, large)):
            for x, y in cells:
                dist[y, x] = value
        return dist

    def choose(self, small, large, params=PlannerParams()):
        frontier = nearest_frontier(self.belief(), params, self.field(small, large))
        return None if frontier is None else list(frontier.cells)

    def test_closest_cluster_wins(self):
        belief = self.belief()
        free = belief.cells == CellState.FREE
        frontier = nearest_frontier(belief, PlannerParams(), distance_field(free, 1.0, [(0, 0)]))
        assert frontier.cells == tuple(self.SMALL)
        assert frontier.centroid == pytest.approx((2.5, 2.5))
        assert frontier.closest_cell == (2, 1)  # ties with (1, 2); first in row order
        frontier = nearest_frontier(belief, PlannerParams(), distance_field(free, 1.0, [(14, 9)]))
        assert frontier.cells == tuple(self.LARGE)
        assert frontier.closest_cell == (12, 6)

    def test_tie_goes_to_lowest_label(self):
        assert self.choose(5.0, 5.0) == self.SMALL
        assert self.choose(5.0, 4.0) == self.LARGE

    def test_small_clusters_are_ignored(self):
        assert self.choose(1.0, 9.0, PlannerParams(min_frontier_cells=5)) == self.LARGE
        assert self.choose(1.0, 9.0, PlannerParams(min_frontier_cells=7)) is None

    def test_unreachable_clusters_are_skipped(self):
        assert self.choose(np.inf, 9.0) == self.LARGE
        assert self.choose(np.inf, np.inf) is None

    def test_fully_explored_belief_gives_none(self):
        belief = open_belief(15, 10)
        belief.cells[4:6, 4:9] = CellState.OCCUPIED
        assert nearest_frontier(belief, PlannerParams(), np.zeros((10, 15))) is None


@pytest.mark.parametrize("radius", range(7))
def test_disk_offsets_are_shared_read_only_and_exact(radius):
    span = np.arange(-radius, radius + 1)
    dy, dx = np.meshgrid(span, span, indexing="ij")
    disk = (dx * dx + dy * dy) <= radius * radius + 1e-9
    got_dy, got_dx = _disk_offsets(radius)
    assert np.array_equal(got_dy, dy[disk]) and np.array_equal(got_dx, dx[disk])
    assert got_dy.dtype == dy.dtype and got_dx.dtype == dx.dtype
    assert not got_dy.flags.writeable and not got_dx.flags.writeable
    again = _disk_offsets(radius)
    assert again[0] is got_dy and again[1] is got_dx
    with pytest.raises(ValueError):
        got_dx[0] = 99
