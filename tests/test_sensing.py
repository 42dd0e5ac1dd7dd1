"""Belief-map invariants of the lidar simulation, and the camera's frames at
one stop.

The episode loop skips a sweep from an origin it already swept.  That rests
on the facts checked here: a sweep only ever writes a cell's true state, so
repeating it changes nothing and a known cell never changes value.  A stop's
frames share one sighting geometry
(:class:`~objsearch.sensing.CameraStop`), and each must equal the frame
worked out from its pose alone (``util.reference_camera_frame``), also on
a map without border walls, where a clutter ray ends at the map's edge.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from objsearch.errors import DomainError
from objsearch.sensing import (
    CameraStop,
    camera_observe,
    lidar_update,
    observation_rng,
    project_detection,
)
from objsearch.suitegen import SuiteParams, generate_suite
from objsearch.world import CellState, GridMap, Pose, SensorParams
from util import box_scenario, open_border_scenario, reference_camera_frame, unknown_belief


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


@pytest.mark.parametrize("width, height, res", [(10, 20, 0.1), (5, 5, 0.1), (20, 10, 0.2)])
def test_belief_of_another_geometry_is_rejected(width, height, res):
    # The sweep writes the belief by the world's flat cell indices: a 10x20
    # belief of a 20x10 world has as many cells but would get the wrong ones.
    grid = cluttered_grid(3, width=20, height=10)
    belief = GridMap(width, height, res, np.zeros((height, width), dtype=np.uint8))
    with pytest.raises(DomainError, match="belief geometry"):
        lidar_update(belief, grid, Pose(0.55, 0.55, 0.0), 90, 3.5)
    assert not belief.cells.any()


def frame_key(detections):
    """A frame's detections field by field, embeddings as bytes."""
    return [(d.source_object, d.label, d.bbox, d.patch_embedding.tobytes(), d.range, d.bearing)
            for d in detections]


def reference_key(frame):
    return [(source, label, bbox, emb.tobytes(), distance, rel)
            for source, label, bbox, emb, distance, rel in frame]


def stop_cases(ctx, case):
    """(scenario, stop positions) for one camera case."""
    if case == "edges":
        # From (1, 1): a distractor at the camera's own position, the target
        # at exactly cam_range (3.5 m) and a distractor just past it.
        scenario = box_scenario(
            size_m=8.0, start=(1.0, 1.0, 0.0),
            landmarks=[{"id": "L0", "name": "desk", "known": False,
                        "footprint": [2.0, 2.0, 2.6, 2.6]}],
            objects=[{"id": "T0", "name": "book", "position": [4.5, 1.0], "radius": 0.15,
                      "is_target": True},
                     {"id": "D0", "name": "cup", "position": [1.0, 1.0], "radius": 0.15},
                     {"id": "D1", "name": "laptop", "position": [1.0, 4.500001],
                      "radius": 0.15}],
        )
        return scenario, [(1.0, 1.0)]
    if case == "open border":
        scenario = open_border_scenario()
    else:
        scenario = generate_suite(SuiteParams(count=1, rooms=3, landmarks=6, map_side=14.0), 0,
                                  ctx=ctx)[0]
    if case == "noisy":
        scenario = dataclasses.replace(scenario, sensor=SensorParams(p_miss=0.1, clutter=2))
    elif case == "full circle":
        hyper = dataclasses.replace(scenario.hyperparams, fov=2.0 * math.pi)
        scenario = dataclasses.replace(scenario, hyperparams=hyper)
    else:
        assert case in ("clean", "open border")
    grid = scenario.map
    free = np.argwhere(grid.cells == CellState.FREE)
    picks = free[np.random.default_rng(3).integers(len(free), size=15)]
    return scenario, [grid.cell_to_world(int(ix), int(iy)) for iy, ix in picks]


@pytest.mark.parametrize("case", ["clean", "noisy", "full circle", "edges", "open border"])
def test_stop_frames_equal_the_per_frame_reference(case, ctx):
    """Every frame a :class:`CameraStop` makes, and the one-frame
    :func:`camera_observe`, equals the reference frame worked out from its
    pose alone: detections field by field, embeddings bitwise, and the
    frame's stream left in the same state.  Every detection lies on the
    map, also on a map whose border cells are free."""
    scenario, stops = stop_cases(ctx, case)
    width, height = scenario.map.size_meters
    store = ctx.text_store_for(scenario)
    headings = [2.0 * math.pi * h / 12 for h in range(12)] + [0.3, -2.9, 7.0]
    seen, counter = set(), 0
    for x, y in stops:
        stop = CameraStop(scenario, store, x, y)
        for heading in headings:
            pose = Pose(x, y, heading)
            rng, once, ref = (observation_rng(5, counter) for _ in range(3))
            counter += 1
            obs = stop.observe(heading, rng)
            want = reference_key(reference_camera_frame(scenario, store, pose, ref))
            assert obs.pose == pose
            assert frame_key(obs.detections) == want
            assert frame_key(camera_observe(scenario, store, pose, once).detections) == want
            assert rng.bit_generator.state == once.bit_generator.state == ref.bit_generator.state
            seen.update(d.source_object for d in obs.detections)
            for x_seen, y_seen in (project_detection(d, pose) for d in obs.detections):
                assert 0.0 <= x_seen < width and 0.0 <= y_seen < height
    if case == "edges":
        assert seen == {"L0", "T0"}  # not the camera's own position, not past its range
    elif case == "open border":
        assert seen == {"L0", "T0", "clutter"}
    else:
        assert len(seen - {"clutter"}) >= 4
        assert ("clutter" in seen) == (case == "noisy")
