import dataclasses
import json
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objsearch.errors import DomainError, SchemaError, ValidationError
from objsearch.suitegen import SuiteParams, generate_suite
from objsearch.world import (
    CellState,
    GridMap,
    Pose,
    ScenarioSpec,
    load_scenario,
    normalize_angle,
    parse_scenario,
    raycast_batch,
    scenario_to_dict,
    serialize_scenario,
)
from util import box_scenario, empty_rows, minimal_doc


def grid_from_rows(rows, res=0.1):
    return GridMap.from_rows(rows, res)


def random_cells(rng, shape, density):
    """Cells that are Occupied with probability ``density`` and Free otherwise."""
    return np.where(rng.random(shape) < density, CellState.OCCUPIED, CellState.FREE)


class TestGridMap:
    def test_from_rows_orientation(self):
        # first document row is the northernmost row
        grid = grid_from_rows(["#.", ".."])
        assert grid.cells[1, 0] == CellState.OCCUPIED  # (ix=0, iy=1) is the '#'
        assert grid.cells[0, 0] == CellState.FREE
        assert grid.to_rows() == ["#.", ".."]

    def test_transforms_inverse_on_centers(self):
        grid = grid_from_rows(empty_rows(12, 9), 0.25)
        for ix in range(grid.width):
            for iy in range(grid.height):
                x, y = grid.cell_to_world(ix, iy)
                assert grid.world_to_cell(x, y) == (ix, iy)

    def test_invalid_maps_rejected(self):
        with pytest.raises(ValidationError):
            grid_from_rows([])
        with pytest.raises(ValidationError):
            grid_from_rows(["..", "..."])
        with pytest.raises(ValidationError):
            grid_from_rows(["..", ".x"])
        with pytest.raises(ValidationError):
            GridMap(2, 2, -0.1, np.full((2, 2), CellState.FREE))
        with pytest.raises(ValidationError, match="Unknown, Free or Occupied"):
            GridMap(2, 2, 0.1, np.full((2, 2), CellState.OCCUPIED + 1))

    def test_map_row_errors(self):
        cases = [
            (["..", "..."], "map.rows[1]: length 3 != 2"),
            (["..", ".x"], "map.rows[1]: unexpected characters ['x']"),
            (["#.", "é#", "a"], "map.rows[1]: unexpected characters ['é']"),
            (["...", "x", "b.!"], "map.rows[1]: length 1 != 3"),
            (["...", ".x.", ""], "map.rows[1]: unexpected characters ['x']"),
            (["..", "..", "?.", "y"], "map.rows[2]: unexpected characters ['?']"),
            ([".", " ", "\t"], "map.rows[1]: unexpected characters [' ']"),
            (["#.#.", "ab.c"], "map.rows[1]: unexpected characters ['a', 'b', 'c']"),
        ]
        for rows, message in cases:
            with pytest.raises(ValidationError) as err:
                grid_from_rows(rows)
            assert str(err.value) == message

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 30).flatmap(
            lambda w: st.lists(st.text(".#", min_size=w, max_size=w), min_size=1, max_size=30)
        ),
        st.sampled_from([0.05, 0.1, 0.25]),
    )
    def test_rows_round_trip(self, rows, res):
        grid = GridMap.from_rows(rows, res)
        assert grid.to_rows() == rows
        assert GridMap.from_rows(grid.to_rows(), res) == grid
        for r, row in enumerate(rows):
            iy = len(rows) - 1 - r
            want = [CellState.OCCUPIED if ch == "#" else CellState.FREE for ch in row]
            assert grid.cells[iy].tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_grid_round_trip(self, width, height, seed):
        cells = random_cells(np.random.default_rng(seed), (height, width), 0.4)
        grid = GridMap(width, height, 0.1, cells)
        assert GridMap.from_rows(grid.to_rows(), 0.1) == grid

    def test_unknown_cells_have_no_rows(self):
        grid = grid_from_rows(["#.", ".."])
        grid.cells[0, 1] = CellState.UNKNOWN  # a bare grid, such as a belief, is writable
        with pytest.raises(DomainError, match="Unknown cells"):
            grid.to_rows()

    def test_equal_maps_hash_equal(self):
        grid = grid_from_rows(["#.", ".."])
        same = GridMap(2, 2, 0.1, grid.cells.copy())
        assert same == grid and hash(same) == hash(grid)
        assert {grid: 1}[same] == 1

    def test_cells_immutable(self, ctx):
        """A scenario's map is read-only however the scenario was made."""
        parsed = parse_scenario(minimal_doc())
        generated = generate_suite(SuiteParams(count=1, rooms=1, landmarks=3, map_side=8.0), 0,
                                   ctx=ctx)[0]
        fields = {f.name: getattr(parsed, f.name) for f in dataclasses.fields(parsed)}
        in_code = ScenarioSpec(**{**fields, "map": grid_from_rows(parsed.map.to_rows())})
        fresh = GridMap(parsed.map.width, parsed.map.height, 0.1, parsed.map.cells.copy())
        replaced = dataclasses.replace(parsed, map=fresh)
        for spec in (parsed, generated, in_code, replaced):
            with pytest.raises(ValueError):
                spec.map.cells[0, 0] = CellState.FREE

    def test_scenario_map_must_be_fully_known(self):
        spec = parse_scenario(minimal_doc())
        cells = spec.map.cells.copy()
        cells[0, 0] = CellState.UNKNOWN
        unknown = GridMap(spec.map.width, spec.map.height, spec.map.resolution, cells)
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(spec, map=unknown)
        assert str(err.value) == "map.cells: cells must be Free or Occupied"


class TestPose:
    def test_theta_normalized(self):
        assert Pose(0, 0, math.pi).theta == pytest.approx(-math.pi)
        assert Pose(0, 0, 3 * math.pi).theta == pytest.approx(-math.pi)
        assert Pose(0, 0, -math.pi).theta == pytest.approx(-math.pi)

    @given(st.floats(-50.0, 50.0))
    def test_normalize_angle_range(self, theta):
        wrapped = normalize_angle(theta)
        assert -math.pi <= wrapped < math.pi
        # same direction modulo 2*pi
        assert math.isclose(math.cos(wrapped), math.cos(theta), abs_tol=1e-9)
        assert math.isclose(math.sin(wrapped), math.sin(theta), abs_tol=1e-9)


# --------------------------------------------------------------------------
# Raycasting
# --------------------------------------------------------------------------


def walk_raycast(grid, origin, bearing, max_range):
    """Independent oracle: enumerate every grid-line crossing along the ray
    and walk the cells between crossings by their midpoints."""
    x0, y0 = origin
    dx, dy = math.cos(bearing), math.sin(bearing)
    res = grid.resolution
    crossings = [0.0, max_range]
    if abs(dx) > 1e-15:
        k0 = math.ceil(min(x0, x0 + dx * max_range) / res)
        k1 = math.floor(max(x0, x0 + dx * max_range) / res)
        for k in range(k0, k1 + 1):
            t = (k * res - x0) / dx
            if 0.0 < t < max_range:
                crossings.append(t)
    if abs(dy) > 1e-15:
        k0 = math.ceil(min(y0, y0 + dy * max_range) / res)
        k1 = math.floor(max(y0, y0 + dy * max_range) / res)
        for k in range(k0, k1 + 1):
            t = (k * res - y0) / dy
            if 0.0 < t < max_range:
                crossings.append(t)
    crossings = sorted(set(crossings))
    for t0, t1 in zip(crossings, crossings[1:]):
        tm = 0.5 * (t0 + t1)
        ix, iy = grid.world_to_cell(x0 + tm * dx, y0 + tm * dy)
        if not grid.in_bounds(ix, iy):
            return max_range, False
        if grid.cells[iy, ix] == CellState.OCCUPIED:
            return t0, True
    return max_range, False


RayHit = namedtuple("RayHit", "distance blocked")


def raycast(grid, origin, bearing, max_range):
    """One ray through :func:`raycast_batch`."""
    dist, blocked = raycast_batch(grid, origin, np.array([bearing]), max_range)
    return RayHit(float(dist[0]), bool(blocked[0]))


class TestRaycast:
    def test_empty_map_hits_nothing(self):
        grid = grid_from_rows(empty_rows(30, 30, border=False))
        for bearing in np.linspace(-math.pi, math.pi, 17):
            hit = raycast(grid, (1.5, 1.5), bearing, 1.2)
            assert hit.distance == 1.2
            assert not hit.blocked

    def test_wall_two_meters_ahead(self):
        # wall column with its near face exactly 2.0 m from the origin
        rows = [["." for _ in range(40)] for _ in range(10)]
        for r in rows:
            r[25] = "#"  # cells [2.5, 2.6)
        grid = grid_from_rows(["".join(r) for r in rows])
        origin = (0.5, 0.55)
        expected, blocked = walk_raycast(grid, origin, 0.0, 5.0)
        assert blocked
        hit = raycast(grid, origin, 0.0, 5.0)
        assert hit.blocked
        assert hit.distance == pytest.approx(2.0, abs=grid.resolution)
        assert hit.distance == pytest.approx(expected, abs=grid.resolution / 10)

    def test_adjacent_wall(self):
        rows = ["..#.", "....", "...."]
        grid = grid_from_rows(rows)
        hit = raycast(grid, (0.15, 0.25), 0.0, 2.0)
        # origin in cell (1,2)? bearing 0 into the wall at (2,2)
        hit = raycast(grid, (0.15, 0.25), 0.0, 2.0)
        assert hit.blocked is False or hit.distance <= grid.resolution * 3
        # directly adjacent, facing the wall
        hit = raycast(grid, (0.19, 0.25), 0.0, 2.0)
        assert hit.distance <= 2.0

    def test_origin_out_of_bounds(self):
        grid = grid_from_rows(["..", ".."])
        with pytest.raises(DomainError):
            raycast(grid, (5.0, 5.0), 0.0, 1.0)

    def test_matches_sampling_oracle_on_random_maps(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            cells = random_cells(rng, (20, 20), 0.2)
            grid = GridMap(20, 20, 0.1, cells)
            # free origin
            free = np.argwhere(cells == CellState.FREE)
            iy, ix = free[rng.integers(len(free))]
            origin = ((ix + 0.5) * 0.1, (iy + 0.5) * 0.1)
            for _ in range(8):
                bearing = rng.uniform(-math.pi, math.pi)
                got = raycast(grid, origin, bearing, 1.5)
                want_d, want_b = walk_raycast(grid, origin, bearing, 1.5)
                assert got.blocked == want_b
                assert got.distance == pytest.approx(want_d, abs=1e-7)

    def test_rotation_symmetry(self):
        rows = [
            "##########",
            "#........#",
            "#..##....#",
            "#..##..#.#",
            "#......#.#",
            "#........#",
            "#.#......#",
            "#.#....###",
            "#........#",
            "##########",
        ]
        grid = grid_from_rows(rows)
        # rotate the picture 90 degrees clockwise; world point (x, y) in the
        # original then lives at (y, H - x) with the bearing rotated by -90.
        rot_rows = ["".join(col) for col in zip(*rows[::-1])]
        rot = grid_from_rows(rot_rows)
        size = grid.height * grid.resolution
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(200):
            x = rng.uniform(0.15, size - 0.15)
            y = rng.uniform(0.15, size - 0.15)
            ix, iy = grid.world_to_cell(x, y)
            rix, riy = rot.world_to_cell(y, size - x)
            assert grid.cells[iy, ix] == rot.cells[riy, rix]
            if grid.cells[iy, ix] == CellState.OCCUPIED:
                continue
            bearing = rng.uniform(-math.pi, math.pi)
            a = raycast(grid, (x, y), bearing, 2.5)
            b = raycast(rot, (y, size - x), normalize_angle(bearing - math.pi / 2), 2.5)
            assert a.blocked == b.blocked
            assert a.distance == pytest.approx(b.distance, abs=grid.resolution)
            checked += 1
        assert checked > 100

    def test_batch_matches_scalar(self):
        rows = empty_rows(30, 30)
        grid = grid_from_rows(rows)
        bearings = np.linspace(-math.pi, math.pi, 73)
        dists, blocked = raycast_batch(grid, (1.44, 1.57), bearings, 2.0)
        for bearing, d, b in zip(bearings, dists, blocked):
            hit = raycast(grid, (1.44, 1.57), bearing, 2.0)
            assert hit.distance == d
            assert hit.blocked == b


# --------------------------------------------------------------------------
# Scenario documents
# --------------------------------------------------------------------------


class TestScenarioParsing:
    def test_minimal_document_fills_defaults(self):
        spec = parse_scenario(minimal_doc())
        assert spec.hyperparams.lambda1 == 1.0
        assert spec.hyperparams.m_t == 29.0
        assert spec.seed == 0
        assert spec.sensor.sigma_emb == 0.05
        assert spec.target.name == "book"

    def test_reference_hyperparams_parse(self):
        doc = minimal_doc()
        doc["hyperparams"] = {"lambda1": 1, "lambda2": 0.05, "t_c": 0.2, "t_u": 2.5, "m_t": 29}
        hp = parse_scenario(doc).hyperparams
        assert (hp.lambda1, hp.lambda2) == (1.0, 0.05)
        assert (hp.t_c, hp.t_u, hp.m_t) == (0.2, 2.5, 29.0)

    def test_missing_target_phrase(self):
        doc = minimal_doc()
        del doc["target"]
        with pytest.raises(SchemaError, match="target_phrase required"):
            parse_scenario(doc)

    def test_unknown_keys_rejected(self):
        doc = minimal_doc()
        doc["extra"] = 1
        with pytest.raises(SchemaError, match="extra"):
            parse_scenario(doc)
        doc = minimal_doc()
        doc["hyperparams"] = {"bogus": 2.0}
        with pytest.raises(SchemaError, match="bogus"):
            parse_scenario(doc)
        doc = minimal_doc()
        doc["planner"] = {"detect_en_route": False}  # a deleted field nothing read
        with pytest.raises(SchemaError, match="detect_en_route"):
            parse_scenario(doc)

    def test_error_names_offending_field(self):
        doc = minimal_doc()
        doc["landmarks"][0]["footprint"] = [1, 2, 3]
        with pytest.raises(SchemaError, match=r"landmarks\[0\].footprint"):
            parse_scenario(doc)

    def test_start_in_obstacle_rejected(self):
        doc = minimal_doc()
        doc["start"] = [0.05, 0.05, 0.0]  # border wall
        with pytest.raises(ValidationError, match="start"):
            parse_scenario(doc)

    def test_footprint_must_be_occupied(self):
        doc = minimal_doc()
        doc["landmarks"][0]["footprint"] = [0.5, 0.4, 0.7, 0.6]  # open space
        with pytest.raises(ValidationError, match="not occupied"):
            parse_scenario(doc)

    def test_first_free_footprint_cell_is_named(self):
        # Cells (3, 7) and (2, 8) of the footprint are free; (3, 7) comes
        # first in row-major order.
        doc = minimal_doc()
        rows = doc["map"]["rows"]
        for ix, iy in ((3, 7), (2, 8)):
            r = 10 - 1 - iy
            rows[r] = rows[r][:ix] + "." + rows[r][ix + 1 :]
        with pytest.raises(ValidationError) as err:
            parse_scenario(doc)
        assert str(err.value) == "landmark L0: footprint cell (3, 7) is not occupied in the map"
        doc["landmarks"][0]["footprint"] = [0.5, 0.4, 0.7, 0.6]  # open space
        with pytest.raises(ValidationError) as err:
            parse_scenario(doc)
        assert str(err.value) == "landmark L0: footprint cell (5, 4) is not occupied in the map"

    def test_target_phrase_must_match_object(self):
        doc = minimal_doc()
        doc["target"] = "cup"
        with pytest.raises(ValidationError, match="target"):
            parse_scenario(doc)

    def test_exactly_one_target(self):
        doc = minimal_doc()
        doc["objects"].append(
            {"id": "T1", "name": "book", "position": [0.6, 0.6], "radius": 0.1, "is_target": True}
        )
        with pytest.raises(ValidationError, match="exactly one target"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("planner", "step_interval", 0),
            ("planner", "view_directions", 0),
            ("planner", "robot_radius", -0.1),
            ("planner", "robot_radius", math.inf),
            ("sensor", "lidar_rays", -4),
            ("sensor", "lidar_rays", 0),
            ("sensor", "lidar_range", -1),
            ("sensor", "lidar_range", 0),
            ("sensor", "lidar_range", math.nan),
            ("sensor", "p_miss", 1.5),
            ("sensor", "p_miss", -0.1),
            ("sensor", "clutter", -1),
            ("sensor", "sigma_emb", -0.05),
        ],
    )
    def test_invalid_sensor_and_planner_values_rejected(self, section, key, value):
        doc = minimal_doc()
        doc[section] = {key: value}
        with pytest.raises(ValidationError, match=f"{section}.{key}"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("planner", "step_interval", 1),
            ("planner", "robot_radius", 0),
            ("sensor", "lidar_rays", 1),
            ("sensor", "p_miss", 1),
            ("sensor", "clutter", 0),
            ("sensor", "sigma_emb", 0),
        ],
    )
    def test_boundary_sensor_and_planner_values_accepted(self, section, key, value):
        doc = minimal_doc()
        doc[section] = {key: value}
        assert getattr(getattr(parse_scenario(doc), section), key) == value

    def test_roundtrip_identity(self):
        spec = parse_scenario(minimal_doc())
        again = load_scenario(serialize_scenario(spec))
        assert again == spec
        # and a second serialization is byte-identical
        assert serialize_scenario(again) == serialize_scenario(spec)

    def test_roundtrip_of_box_scenario(self):
        spec = box_scenario(
            landmarks=[{"id": "L0", "name": "desk", "known": False, "footprint": [5, 5, 6, 6]}],
            hyperparams={"lambda1": 3.0, "t_u": 1.0},
            seed=42,
        )
        assert load_scenario(serialize_scenario(spec)) == spec

    def test_invalid_json(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_scenario("{nope")

    def test_dict_export_is_json_safe(self):
        spec = parse_scenario(minimal_doc())
        json.dumps(scenario_to_dict(spec))
