"""Planning kernels against references: distance fields, A* lengths, inflation.

``coo_distance_field`` is the per-call graph build ``distance_field`` used
before: four rolled neighbour masks assembled into a COO matrix.  The current
build must give bit-equal fields, which is what lets the episode loop and the
SPL reference keep byte-identical traces and records.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from objsearch.errors import NoPathError
from objsearch.planning import SQRT2, distance_field, inflate_occupied, plan_path
from objsearch.sensing import BeliefMap, BeliefState


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
            cells = np.where(trav, BeliefState.FREE, BeliefState.OCCUPIED).astype(np.uint8)
            belief = BeliefMap(25, 25, 0.1, cells)
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
