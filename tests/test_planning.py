"""Planning kernels against references, and viewpoint and frontier choice.

``coo_distance_field`` is the per-call graph build ``distance_field`` used
before: four rolled neighbour masks assembled into a COO matrix.  The current
build must give bit-equal fields, which is what lets the episode loop and the
SPL reference keep byte-identical traces and records.  ``loop_clear_robot_disk``
is the cell-by-cell footprint whitelist that ``clear_robot_disk`` replaced, and
``loop_nearest_frontier`` the cluster-by-cluster frontier choice that
``nearest_frontier`` replaced.  ``astar_path`` is the grid A* that navigation
planned with before it walked down the distance field; ``plan_path`` must
match its lengths and its failures.  ``exact_descent`` walks down a field of
exact lengths, a + b*sqrt(2) kept as the integer pair (a, b), so it pins the
tie rule where rounding in a float field would hide it.  A field bounded at a
reach must equal ``coo_distance_field`` wherever that is within the reach,
and the frontier, viewpoint and path found on it must be the whole field's.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from objsearch import planning
from objsearch.errors import DomainError, NoPathError
from objsearch.planning import (
    SQRT2,
    LandmarkEntry,
    Path,
    Viewpoint,
    _disk_rows,
    clear_robot_disk,
    Frontier,
    distance_field,
    drivable_mask,
    frontier_cells_mask,
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


def path_length(cells, resolution):
    """Metric length of a grid path, asserting each step is 8-adjacent."""
    straight = diagonal = 0
    for (ax, ay), (bx, by) in zip(cells, cells[1:]):
        dx, dy = abs(bx - ax), abs(by - ay)
        assert max(dx, dy) == 1, f"cells ({ax},{ay}) -> ({bx},{by}) are not 8-adjacent"
        if dx + dy == 1:
            straight += 1
        else:
            diagonal += 1
    return (straight + SQRT2 * diagonal) * resolution


def astar_path(trav, start, goal):
    """Reference: the cells of a shortest 8-connected path by A* with an
    octile heuristic (Hart, Nilsson & Raphael 1968), or None when the goal is
    unreachable."""
    height, width = trav.shape
    (sx, sy), (gx, gy) = start, goal
    if not (0 <= gx < width and 0 <= gy < height) or not trav[gy, gx]:
        return None

    def heuristic(x, y):
        dx, dy = abs(x - gx), abs(y - gy)
        return max(dx, dy) + (SQRT2 - 1.0) * min(dx, dy)

    g_cost, parent, closed = {(sx, sy): 0.0}, {}, set()
    open_heap = [(heuristic(sx, sy), sy * width + sx, (sx, sy))]
    while open_heap:
        _, _, cell = heapq.heappop(open_heap)
        if cell in closed:
            continue
        if cell == (gx, gy):
            cells = [cell]
            while cells[-1] != (sx, sy):
                cells.append(parent[cells[-1]])
            return cells[::-1]
        closed.add(cell)
        x, y = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                nx, ny = x + dx, y + dy
                if (dx or dy) and 0 <= nx < width and 0 <= ny < height and trav[ny, nx]:
                    cost = g_cost[cell] + (SQRT2 if dx and dy else 1.0)
                    if (nx, ny) not in closed and cost < g_cost.get((nx, ny), math.inf):
                        g_cost[(nx, ny)], parent[(nx, ny)] = cost, cell
                        heapq.heappush(open_heap, (cost + heuristic(nx, ny), ny * width + nx,
                                                   (nx, ny)))
    return None


def exact_descent(trav, start, goal):
    """Reference: the cells from ``start`` to ``goal`` that the tie rule picks,
    on a field of exact lengths (a, b), meaning a + b*sqrt(2) steps.  Distinct
    lengths on these small grids differ far beyond float rounding, so the heap
    may order them by their float value."""
    height, width = trav.shape
    moves = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dx or dy]  # flat order
    exact, heap = {}, [(0.0, start, (0, 0))]
    while heap:
        _, cell, length = heapq.heappop(heap)
        if cell in exact:
            continue
        exact[cell] = length
        for dx, dy in moves:
            nx, ny = cell[0] + dx, cell[1] + dy
            if 0 <= nx < width and 0 <= ny < height and trav[ny, nx] and (nx, ny) not in exact:
                a, b = length[0] + (not (dx and dy)), length[1] + bool(dx and dy)
                heapq.heappush(heap, (a + b * SQRT2, (nx, ny), (a, b)))
    cells = [goal]
    while cells[-1] != start:
        (x, y), (a, b) = cells[-1], exact[cells[-1]]
        cells.append(next(
            (x + dx, y + dy) for dx, dy in moves
            if exact.get((x + dx, y + dy)) == (a - (not (dx and dy)), b - bool(dx and dy))
        ))
    return cells[::-1]


class TestDistanceField:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_per_call_coo_build(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for density in (0.0, 0.3, 0.6, 1.0):
            trav = rng.random(shape) >= density
            for source in random_sources(rng, trav, 1) or [(0, 0)]:
                for res in (0.1, 0.25):
                    got = distance_field(trav, res, source, math.inf)
                    want = coo_distance_field(trav, res, [source])
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 12), (12, 1), (5, 8)])
    def test_sources_on_the_map_border(self, shape):
        # A border cell's off-map neighbours are self loops in the field's
        # graph; no distance may leak through them.
        height, width = shape
        rng = np.random.default_rng(height * 100 + width)
        border = [(x, y) for y in range(height) for x in range(width)
                  if x in (0, width - 1) or y in (0, height - 1)]
        for density in (0.0, 0.3):
            trav = rng.random(shape) >= density
            for source in border:
                got = distance_field(trav, 0.1, source, math.inf)
                assert got.tobytes() == coo_distance_field(trav, 0.1, [source]).tobytes()

    def test_source_off_the_map_or_blocked(self):
        rng = np.random.default_rng(9)
        trav = rng.random((20, 30)) < 0.7
        blocked = tuple(int(v) for v in np.argwhere(~trav)[0][::-1])
        for source in ((-1, 0), (0, -1), (30, 0), (0, 20), blocked):
            for reach in (0.5, math.inf):
                got = distance_field(trav, 0.1, source, reach)
                assert got.tobytes() == coo_distance_field(trav, 0.1, [source]).tobytes()
                assert np.isinf(got).all()

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (30, 50)])
    def test_blocked_cells_beside_sources_and_unreachable_islands(self, shape):
        # A traversable cell's edges carry their steps also into blocked
        # cells, which pass nothing on and are set to inf afterwards.  Blocked
        # cells beside each source, some or all of its neighbours, leave
        # traversable islands it cannot reach.
        height, width = shape
        rng = np.random.default_rng(height * 100 + width + 5)
        for density in (0.0, 0.3, 0.6):
            for ring in (0.5, 1.0):
                trav = rng.random(shape) >= density
                (source,) = random_sources(rng, trav, 1)
                x, y = source
                near = trav[max(y - 1, 0) : y + 2, max(x - 1, 0) : x + 2]
                near &= rng.random(near.shape) >= ring
                trav[y, x] = True
                field = distance_field(trav, 0.1, source, math.inf)
                assert field.tobytes() == coo_distance_field(trav, 0.1, [source]).tobytes()
                assert np.isinf(field[~trav]).all()
        blocked = np.zeros(shape, dtype=bool)
        field = distance_field(blocked, 0.1, (0, 0), math.inf)
        assert field.tobytes() == coo_distance_field(blocked, 0.1, [(0, 0)]).tobytes()
        assert np.isinf(field).all()

    def test_plan_path_length_equals_field_at_goal(self):
        rng = np.random.default_rng(21)
        checked = unreachable = 0
        for k in range(40):
            trav = rng.random((25, 25)) < (0.75 if k % 2 else 0.45)
            start, goal = random_sources(rng, trav, 2)
            field = distance_field(trav, 0.1, start, math.inf)
            want = field[goal[1], goal[0]]
            if math.isfinite(want):
                path = plan_path(field, goal, 0.1)
                assert path_length(path.cells, 0.1) == pytest.approx(want, rel=1e-12, abs=1e-12)
                checked += 1
            else:
                with pytest.raises(NoPathError):
                    plan_path(field, goal, 0.1)
                unreachable += 1
        assert checked > 10 and unreachable > 5


class TestPlanPath:
    """``plan_path`` walks down a distance field; A* is the reference."""

    @pytest.mark.parametrize("shape", SHAPES[:-1])  # the A* reference is slow at 140 x 140
    def test_matches_astar(self, shape):
        height, width = shape
        rng = np.random.default_rng(height * 1000 + width)
        solved = failed = 0
        for density in (0.0, 0.2, 0.4, 0.6):
            for _ in range(6):
                trav = rng.random(shape) >= density
                sources = random_sources(rng, trav, 1)
                if not sources:
                    continue
                start = sources[0]
                field = distance_field(trav, 0.25, start, math.inf)
                goal = (int(rng.integers(width)), int(rng.integers(height)))
                want = astar_path(trav, start, goal)
                if want is None:
                    with pytest.raises(NoPathError):
                        plan_path(field, goal, 0.25)
                    failed += 1
                    continue
                path = plan_path(field, goal, 0.25)
                assert path.cells[0] == start and path.cells[-1] == goal
                assert all(trav[y, x] for x, y in path.cells)
                assert path_length(path.cells, 0.25) == pytest.approx(
                    path_length(want, 0.25), rel=1e-12, abs=0.0
                )
                solved += 1
        assert solved > 0 and (failed > 0 or shape in ((1, 1), (2, 2)))

    @pytest.mark.parametrize("shape", [(7, 3), (30, 50), (64, 64)])
    def test_ties_follow_exact_lengths(self, shape):
        # Many of these paths meet a tie that float rounding in the field
        # would break.
        height, width = shape
        rng = np.random.default_rng(height * 1000 + width + 1)
        for density in (0.0, 0.2, 0.4):
            trav = rng.random(shape) >= density
            start, goal = random_sources(rng, trav, 2)
            field = distance_field(trav, 0.05, start, math.inf)
            if math.isfinite(field[goal[1], goal[0]]):
                want = exact_descent(trav, start, goal)
                assert list(plan_path(field, goal, 0.05).cells) == want

    def test_goal_at_the_source_is_one_cell(self):
        trav = np.ones((5, 6), dtype=bool)
        path = plan_path(distance_field(trav, 0.5, (2, 3), math.inf), (2, 3), 0.5)
        assert path == Path(cells=((2, 3),))

    @pytest.mark.parametrize("goal", [(-1, 0), (0, -1), (6, 0), (0, 5), (99, 99)])
    def test_goal_off_the_map_has_no_path(self, goal):
        field = distance_field(np.ones((5, 6), dtype=bool), 0.5, (2, 3), math.inf)
        with pytest.raises(NoPathError):
            plan_path(field, goal, 0.5)

    def test_unreachable_and_blocked_goals_have_no_path(self):
        trav = np.ones((5, 6), dtype=bool)
        trav[:, 3] = False  # a wall splits the map
        field = distance_field(trav, 0.5, (1, 1), math.inf)
        for goal in ((3, 2), (5, 4)):
            with pytest.raises(NoPathError):
                plan_path(field, goal, 0.5)

    def test_ties_go_to_the_lowest_flat_index(self):
        # A wall at (2, 1) leaves two equal routes from (1, 1) to (3, 1):
        # over row 0 and over row 2.  From the goal, the first step goes to
        # the lower flat index, (2, 0) on row 0.
        trav = np.ones((3, 5), dtype=bool)
        trav[1, 2] = False
        field = distance_field(trav, 0.1, (1, 1), math.inf)
        path = plan_path(field, (3, 1), 0.1)
        assert path.cells == ((1, 1), (2, 0), (3, 1))
        assert path_length(path.cells, 0.1) == pytest.approx(2 * SQRT2 * 0.1, rel=1e-12)
        # Mirrored, the lower index is on row 0 again.
        field = distance_field(trav, 0.1, (3, 1), math.inf)
        assert plan_path(field, (1, 1), 0.1).cells == ((3, 1), (2, 0), (1, 1))


class TestInflation:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 3), (30, 50)])
    # 4, 5 and 11 have rows of equal half-width; 11 is wider than every map.
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 4, 5, 6, 11])
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

    def choose(self, belief, dist, position=(5.5, 5.5)):
        landmark = LandmarkEntry("lm000", "desk", position, 0.5, 0.1)
        return generate_viewpoints(belief, landmark, self.PARAMS, dist)

    def field(self, *values):
        dist = np.full((11, 11), np.inf)
        for (x, y), value in zip(self.RING, values):
            dist[y, x] = value
        return dist

    def test_nearest_reachable_pose_wins(self):
        belief = open_belief(11, 11)
        trav = np.ones((11, 11), dtype=bool)
        vp = self.choose(belief, distance_field(trav, 1.0, (9, 5), math.inf))
        assert (vp.landmark.id, vp.landmark.name, vp.landmark.cooccur,
                vp.landmark.sem_uncert) == ("lm000", "desk", 0.5, 0.1)
        assert vp.pose.x == pytest.approx(8.5) and vp.pose.y == pytest.approx(5.5)
        assert vp.pose.theta == pytest.approx(-math.pi)  # faces the landmark
        vp = self.choose(belief, self.field(4.0, 3.0, 2.0, 5.0))
        assert (vp.pose.x, vp.pose.y) == pytest.approx((2.5, 5.5))
        assert vp.pose.theta == pytest.approx(0.0, abs=1e-12)

    def test_tie_goes_to_lower_angle_index(self):
        belief = open_belief(11, 11)
        trav = np.ones((11, 11), dtype=bool)
        vp = self.choose(belief, distance_field(trav, 1.0, (5, 5), math.inf))
        assert (vp.pose.x, vp.pose.y) == pytest.approx((8.5, 5.5))
        vp = self.choose(belief, self.field(3.0, 2.0, 2.0, 2.0))
        assert (vp.pose.x, vp.pose.y) == pytest.approx((5.5, 8.5))

    def test_unreachable_candidates_are_skipped(self):
        belief = open_belief(11, 11)
        vp = self.choose(belief, self.field(np.inf, 2.0, np.inf, np.inf))
        assert vp.pose.y == pytest.approx(8.5)

    def test_field_over_the_drivable_mask_skips_unknown_and_blocked_cells(self):
        # From cell (9, 9) the two nearest ring cells are (8, 5) and (5, 8).
        # One is still unknown, and an obstacle at (5, 9) inflates over the
        # other, so the field the episode builds holds inf at both.
        belief = open_belief(11, 11, unknown=[(8, 5)])
        assert self.choose(belief, distance_field(np.ones((11, 11), dtype=bool), 1.0,
                                                  (9, 9), math.inf)).pose.x == pytest.approx(8.5)
        belief.cells[9, 5] = CellState.OCCUPIED
        trav = drivable_mask(belief, (9, 9), robot_radius=1.0)
        assert not trav[5, 8] and not trav[8, 5]
        vp = self.choose(belief, distance_field(trav, 1.0, (9, 9), math.inf))
        assert (vp.pose.x, vp.pose.y) == pytest.approx((2.5, 5.5))

    def test_no_usable_candidate_gives_none(self):
        belief = open_belief(11, 11, unknown=self.RING)
        assert self.choose(belief, self.field()) is None
        trav = drivable_mask(belief, (0, 0), robot_radius=0.0)
        assert self.choose(belief, distance_field(trav, 1.0, (0, 0), math.inf)) is None

    def test_ring_poses_off_the_map_are_skipped(self):
        belief = open_belief(11, 11)
        dist = np.zeros((11, 11))
        vp = self.choose(belief, dist, position=(9.5, 9.5))  # only 180 and 270 deg fit
        assert (vp.pose.x, vp.pose.y) == pytest.approx((6.5, 9.5))
        with pytest.raises(DomainError):
            self.choose(belief, dist, position=(11.5, 5.5))


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


def loop_nearest_frontier(belief, params, dist_field):
    """Reference: each cluster's nearest member found one cluster at a time."""
    mask = frontier_cells_mask(belief)
    if not mask.any():
        return None
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    best_label = None
    best_dist = math.inf
    best_cell = None
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
    return Frontier(cells=cells, centroid=(cx, cy), closest_cell=best_cell)


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
        field = distance_field(free, 1.0, (0, 0), math.inf)
        frontier = nearest_frontier(belief, PlannerParams(), field)
        assert frontier.cells == tuple(self.SMALL)
        assert frontier.centroid == pytest.approx((2.5, 2.5))
        assert frontier.closest_cell == (2, 1)  # ties with (1, 2); first in row order
        field = distance_field(free, 1.0, (14, 9), math.inf)
        frontier = nearest_frontier(belief, PlannerParams(), field)
        assert frontier.cells == tuple(self.LARGE)
        assert frontier.closest_cell == (12, 6)

    def test_tie_goes_to_lowest_label(self):
        assert self.choose(5.0, 5.0) == self.SMALL
        assert self.choose(5.0, 4.0) == self.LARGE

    def test_ties_go_to_label_then_row_order(self):
        # Unknown column x = 1, rows 1..7, leaves cluster 1 (its first cell
        # is (1, 0)); unknown (8, 4) leaves cluster 2, whose cell (8, 3) lies
        # before every tied cell of cluster 1 in row-major order.  Cluster 1
        # ties with itself at (2, 6) and (0, 7): row-major order, not (x, y)
        # order, picks (2, 6).
        belief = open_belief(12, 10, [(1, y) for y in range(1, 8)] + [(8, 4)])
        dist = np.full((10, 12), 9.0)
        for x, y in ((2, 6), (0, 7), (8, 3)):
            dist[y, x] = 3.0
        params = PlannerParams(min_frontier_cells=1)
        frontier = nearest_frontier(belief, params, dist)
        assert frontier == loop_nearest_frontier(belief, params, dist)
        assert frontier.closest_cell == (2, 6)
        assert (1, 0) in frontier.cells and (8, 3) not in frontier.cells

    def test_small_clusters_are_ignored(self):
        assert self.choose(1.0, 9.0, PlannerParams(min_frontier_cells=5)) == self.LARGE
        assert self.choose(1.0, 9.0, PlannerParams(min_frontier_cells=7)) is None

    def test_unreachable_clusters_are_skipped(self):
        assert self.choose(np.inf, 9.0) == self.LARGE
        assert self.choose(np.inf, np.inf) is None

    @pytest.mark.parametrize("shape", [(1, 1), (4, 9), (12, 12), (25, 30)])
    def test_matches_cluster_loop(self, shape):
        # Integer distances and few unknown cells make distance ties within
        # and between clusters common; some fields leave clusters unreachable.
        height, width = shape
        rng = np.random.default_rng(height * 100 + width)
        chosen = 0
        for _ in range(60):
            cells = rng.choice(len(CellState), size=shape, p=rng.dirichlet([1, 1, 1]))
            belief = GridMap(width, height, 0.1, cells.astype(np.uint8))
            dist = rng.integers(0, 4, size=shape).astype(float)
            dist[rng.random(shape) < rng.uniform(0.0, 0.6)] = np.inf
            params = PlannerParams(min_frontier_cells=int(rng.integers(1, 6)))
            want = loop_nearest_frontier(belief, params, dist)
            assert nearest_frontier(belief, params, dist) == want
            chosen += want is not None
        assert chosen > 0 or shape == (1, 1)

    @pytest.mark.parametrize("corner", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_frontier_in_a_corner_window(self, corner):
        # Unknown cells only near one corner of a 40 x 30 belief, so the
        # frontier's bounding box is a small window on two map edges.  Equal
        # distances on every cell make the clusters tie, which the lowest
        # label breaks.
        width, height = 40, 30
        rng = np.random.default_rng(corner[0] * 2 + corner[1])
        chosen = 0
        for _ in range(20):
            patch = rng.random((6, 7)) < 0.35
            cells = np.full((height, width), CellState.FREE, dtype=np.uint8)
            rows = slice(0, 6) if corner[1] == 0 else slice(height - 6, height)
            cols = slice(0, 7) if corner[0] == 0 else slice(width - 7, width)
            cells[rows, cols][patch] = CellState.UNKNOWN
            cells[rows, cols][rng.random((6, 7)) < 0.1] = CellState.OCCUPIED
            belief = GridMap(width, height, 0.1, cells)
            for dist in (np.ones((height, width)), rng.integers(0, 3, (height, width)) * 1.0):
                params = PlannerParams(min_frontier_cells=int(rng.integers(1, 4)))
                want = loop_nearest_frontier(belief, params, dist)
                assert nearest_frontier(belief, params, dist) == want
                chosen += want is not None
        assert chosen > 20

    def test_fully_explored_belief_gives_none(self):
        belief = open_belief(15, 10)
        belief.cells[4:6, 4:9] = CellState.OCCUPIED
        assert nearest_frontier(belief, PlannerParams(), np.zeros((10, 15))) is None


@pytest.mark.parametrize("radius", range(7))
def test_disk_rows_are_exact(radius):
    # Every row of the disk dx**2 + dy**2 <= r**2, widest |dy| first, with
    # its half-width, and nothing else.
    span = np.arange(-radius, radius + 1)
    dy, dx = np.meshgrid(span, span, indexing="ij")
    disk = (dx * dx + dy * dy) <= radius * radius
    want = [(d, int(np.abs(dx[dy == d][disk[dy == d]]).max())) for d in range(radius, -1, -1)]
    assert list(_disk_rows(radius)) == want
    rebuilt = np.zeros_like(disk)
    for d, half in _disk_rows(radius):
        rebuilt[radius - d, radius - half:radius + half + 1] = True
        rebuilt[radius + d, radius - half:radius + half + 1] = True
    assert np.array_equal(rebuilt, disk)


@st.composite
def masks_and_sources(draw):
    """A random mask (1 x N, N x 1 or 2-D), a source on its corners, its
    border rows and columns or anywhere, and a resolution."""
    height, width = draw(st.one_of(
        st.tuples(st.just(1), st.integers(1, 40)),
        st.tuples(st.integers(1, 40), st.just(1)),
        st.tuples(st.integers(2, 32), st.integers(2, 32)),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trav = rng.random((height, width)) >= draw(st.sampled_from([0.0, 0.2, 0.4, 0.6]))
    cell = st.one_of(
        st.tuples(st.sampled_from([0, width - 1]), st.sampled_from([0, height - 1])),
        st.tuples(st.integers(0, width - 1), st.sampled_from([0, height - 1])),
        st.tuples(st.sampled_from([0, width - 1]), st.integers(0, height - 1)),
        st.tuples(st.integers(0, width - 1), st.integers(0, height - 1)),
    )
    x, y = source = draw(cell)
    if draw(st.booleans()):
        trav[y, x] = True
    return trav, source, draw(st.sampled_from([0.05, 0.1, 0.25, 1.0]))


def reaches_for(whole, resolution, rng):
    """Reaches of 0, below one step, one step and just below it, values the
    whole field attains and just below them, and beyond any path on the map."""
    out = [0.0, 0.5 * resolution, math.nextafter(resolution, 0.0), resolution,
           whole.size * SQRT2 * resolution, 1e9]
    finite = whole[np.isfinite(whole)]
    for value in rng.choice(finite, size=min(4, finite.size), replace=False).tolist():
        out += [value, math.nextafter(value, 0.0)]
    return out


class TestBoundedField:
    """A field with a finite reach is the whole field where that is at most
    the reach and ``inf`` beyond, and every answer found on it is the one
    the whole field gives."""

    @given(masks_and_sources(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_whole_field_within_reach_and_inf_beyond(self, case, seed):
        trav, source, res = case
        whole = coo_distance_field(trav, res, [source])
        for reach in reaches_for(whole, res, np.random.default_rng(seed)):
            want = np.where(whole <= reach, whole, np.inf)
            assert distance_field(trav, res, source, reach).tobytes() == want.tobytes()

    def test_one_source_searches_one_padded_window_per_reach(self, monkeypatch):
        # Sources in every corner, beside the border and inside: the window
        # is the same 2k + 1 square wherever it passes the map's edge, and
        # the whole map once the window would be larger, also for reaches
        # whose k would overflow.
        shapes = []
        window_field = planning._window_field

        def recorded(trav, index, limit):
            shapes.append(trav.shape)
            return window_field(trav, index, limit)

        monkeypatch.setattr(planning, "_window_field", recorded)
        rng = np.random.default_rng(3)
        trav = rng.random((60, 70)) >= 0.2
        sources = [(0, 0), (69, 0), (0, 59), (69, 59), (1, 30), (35, 58), (35, 30)]
        for reach in (0.0, 0.05, 0.1, 0.35, 1.0, 2.8, 2.9, 4.0, 1e308, math.inf):
            k = math.ceil(reach / 0.1) + 1 if math.isfinite(reach / 0.1) else math.inf
            want = (2 * k + 1,) * 2 if (2 * k + 1) ** 2 < trav.size else trav.shape
            for source in sources:
                trav[source[1], source[0]] = True
                shapes.clear()
                field = distance_field(trav, 0.1, source, reach)
                assert shapes == [want]
                whole = coo_distance_field(trav, 0.1, [source])
                assert field.tobytes() == np.where(whole <= reach, whole, np.inf).tobytes()

    def test_negative_or_nan_reach_is_rejected(self):
        trav = np.ones((3, 3), dtype=bool)
        for reach in (-0.1, -math.inf, math.nan):
            with pytest.raises(DomainError):
                distance_field(trav, 0.1, (1, 1), reach)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.25, 0.5]),
           st.integers(1, 4), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_answers_found_within_reach_are_whole_field_answers(
        self, seed, robot_radius, min_cells, attained
    ):
        # A belief explored out to a random disk around the robot, with
        # obstacles and unknown speckle; the reach is random or a value the
        # whole field attains, so answers tie on its rim.
        rng = np.random.default_rng(seed)
        height, width = (int(v) for v in rng.integers(3, 31, size=2))
        cells = np.where(rng.random((height, width)) < rng.uniform(0.0, 0.25),
                         CellState.OCCUPIED.value, CellState.FREE.value).astype(np.uint8)
        start = (int(rng.integers(width)), int(rng.integers(height)))
        ys, xs = np.mgrid[:height, :width]
        explored = np.hypot(xs - start[0], ys - start[1]) <= rng.uniform(1.0, max(height, width))
        cells[~explored | (rng.random((height, width)) < 0.03)] = CellState.UNKNOWN.value
        cells[start[1], start[0]] = CellState.FREE.value
        belief = GridMap(width, height, 0.25, cells)
        trav = drivable_mask(belief, start, robot_radius)
        whole = distance_field(trav, 0.25, start, math.inf)
        finite = whole[np.isfinite(whole)]
        reach = float(rng.choice(finite)) if attained else float(rng.uniform(0.0, 6.0))
        near = distance_field(trav, 0.25, start, reach)
        params = PlannerParams(view_radius=float(rng.uniform(0.5, 2.0)),
                               view_directions=int(rng.integers(1, 9)),
                               min_frontier_cells=min_cells)
        found = nearest_frontier(belief, params, near)
        if found is not None:
            assert found == nearest_frontier(belief, params, whole)
        for _ in range(3):
            position = tuple(rng.uniform(0.0, [width * 0.25, height * 0.25]).tolist())
            landmark = LandmarkEntry("lm000", "desk", position, 0.5, 0.0)
            vp = generate_viewpoints(belief, landmark, params, near)
            if vp is not None:
                assert vp == generate_viewpoints(belief, landmark, params, whole)
        gys, gxs = np.nonzero(np.isfinite(near))
        for k in rng.choice(gxs.size, size=min(5, gxs.size), replace=False).tolist():
            goal = (int(gxs[k]), int(gys[k]))
            assert plan_path(near, goal, 0.25) == plan_path(whole, goal, 0.25)

    def test_only_the_whole_field_finds_a_far_answer(self):
        # A 1 m-cell corridor, the robot at its west end; the unknown east
        # end, a landmark's viewpoints and the path to them lie beyond 5 m.
        belief = open_belief(30, 3, unknown=[(29, y) for y in range(3)])
        start = (0, 1)
        trav = drivable_mask(belief, start, robot_radius=0.0)
        near = distance_field(trav, 1.0, start, 5.0)
        whole = distance_field(trav, 1.0, start, math.inf)
        params = PlannerParams(view_radius=1.0, view_directions=4)
        assert nearest_frontier(belief, params, near) is None
        frontier = nearest_frontier(belief, params, whole)
        assert frontier.closest_cell == (28, 1) and len(frontier.cells) == 3
        landmark = LandmarkEntry("lm000", "desk", (20.5, 1.5), 0.5, 0.0)
        assert generate_viewpoints(belief, landmark, params, near) is None
        vp = generate_viewpoints(belief, landmark, params, whole)
        assert (vp.pose.x, vp.pose.y) == pytest.approx((19.5, 1.5))
        with pytest.raises(NoPathError):
            plan_path(near, (19, 1), 1.0)
        assert len(plan_path(whole, (19, 1), 1.0).cells) == 20
        # Within the reach the two fields give one answer.
        assert plan_path(near, (5, 1), 1.0) == plan_path(whole, (5, 1), 1.0)
