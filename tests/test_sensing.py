"""Belief-map invariants of the lidar simulation.

The episode loop skips a sweep from an origin it already swept.  That rests
on the facts checked here: a sweep only ever writes a cell's true state, so
repeating it changes nothing and a known cell never changes value.
"""

from __future__ import annotations

import math

import numpy as np

from objsearch.sensing import lidar_update
from objsearch.world import CellState, GridMap, Pose
from util import unknown_belief


def cluttered_grid(seed, width=40, height=30, density=0.12):
    rng = np.random.default_rng(seed)
    cells = np.where(rng.random((height, width)) < density, CellState.OCCUPIED, CellState.FREE)
    cells[0, :] = cells[-1, :] = cells[:, 0] = cells[:, -1] = CellState.OCCUPIED
    return GridMap(width, height, 0.1, cells)


def free_cell_poses(grid, rng, count):
    free = np.argwhere(grid.cells == CellState.FREE)
    poses = []
    for _ in range(count):
        iy, ix = free[rng.integers(len(free))]
        x, y = grid.cell_to_world(int(ix), int(iy))
        poses.append(Pose(x, y, float(rng.uniform(-math.pi, math.pi))))
    return poses


def test_repeated_sweep_changes_nothing():
    rng = np.random.default_rng(0)
    for seed in range(5):
        grid = cluttered_grid(seed)
        belief = unknown_belief(grid)
        for pose in free_cell_poses(grid, rng, 4):
            lidar_update(belief, grid, pose, 360, 3.5)
            before = belief.cells.copy()
            lidar_update(belief, grid, Pose(pose.x, pose.y, pose.theta + 1.0), 360, 3.5)
            assert np.array_equal(belief.cells, before)


def test_known_cells_never_change_over_a_random_walk():
    rng = np.random.default_rng(1)
    grid = cluttered_grid(7)
    belief = unknown_belief(grid)
    counts = []
    for pose in free_cell_poses(grid, rng, 60):
        before = belief.cells.copy()
        lidar_update(belief, grid, pose, 90, float(rng.uniform(0.5, 3.5)))
        known_before = before != CellState.UNKNOWN
        assert np.array_equal(belief.cells[known_before], before[known_before])
        known = belief.cells != CellState.UNKNOWN
        assert np.array_equal(belief.cells[known], grid.cells[known])
        counts.append(np.count_nonzero(known))
    # The count only grows, so equal counts mean equal beliefs.
    assert counts == sorted(counts) and counts[-1] > counts[0]
