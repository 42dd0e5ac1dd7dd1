"""Shared helpers for building small test scenarios."""

from __future__ import annotations

import json
import math

from objsearch.world import ScenarioSpec, load_scenario


def empty_rows(width: int, height: int, border: bool = True) -> list[str]:
    rows = []
    for iy in range(height - 1, -1, -1):
        row = []
        for ix in range(width):
            wall = border and (ix in (0, width - 1) or iy in (0, height - 1))
            row.append("#" if wall else ".")
        rows.append("".join(row))
    return rows


def carve_footprint(rows: list[str], footprint, res: float) -> None:
    """Mark the cells under a footprint rectangle as occupied (rows mutate)."""
    x0, y0, x1, y1 = footprint
    height = len(rows)
    for iy in range(int(y0 / res), int(y1 / res) + 1):
        for ix in range(int(x0 / res), int(x1 / res) + 1):
            cx, cy = (ix + 0.5) * res, (iy + 0.5) * res
            if x0 <= cx <= x1 and y0 <= cy <= y1:
                r = height - 1 - iy
                rows[r] = rows[r][:ix] + "#" + rows[r][ix + 1 :]


def box_scenario(
    size_m: float = 8.0,
    landmarks: list[dict] | None = None,
    objects: list[dict] | None = None,
    start: tuple[float, float, float] = (1.0, 1.0, 0.0),
    target: str = "book",
    res: float = 0.1,
    hyperparams: dict | None = None,
    sensor: dict | None = None,
    planner: dict | None = None,
    seed: int = 0,
) -> ScenarioSpec:
    """A bordered square room with the given landmarks/objects, validated."""
    n = int(round(size_m / res))
    rows = empty_rows(n, n)
    landmarks = landmarks or []
    for lm in landmarks:
        carve_footprint(rows, lm["footprint"], res)
    doc = {
        "map": {"rows": rows, "resolution": res},
        "landmarks": landmarks,
        "objects": objects
        if objects is not None
        else [
            {
                "id": "T0",
                "name": target,
                "position": [size_m / 2, size_m / 2],
                "radius": 0.15,
                "is_target": True,
            }
        ],
        "start": list(start),
        "target": target,
        "seed": seed,
    }
    if hyperparams:
        doc["hyperparams"] = hyperparams
    if sensor:
        doc["sensor"] = sensor
    if planner:
        doc["planner"] = planner
    return load_scenario(json.dumps(doc))


def minimal_doc() -> dict:
    """A valid 10 x 10 scenario document with one landmark and the target."""
    rows = empty_rows(10, 10)
    # one landmark footprint occupying a cell block
    for iy in (7, 8):
        r = 10 - 1 - iy
        rows[r] = rows[r][:2] + "##" + rows[r][4:]
    return {
        "map": {"rows": rows, "resolution": 0.1},
        "landmarks": [
            {"id": "L0", "name": "desk", "known": False, "footprint": [0.2, 0.7, 0.4, 0.9]}
        ],
        "objects": [
            {"id": "T0", "name": "book", "position": [0.5, 0.5], "radius": 0.1, "is_target": True}
        ],
        "start": [0.55, 0.25, 0.0],
        "target": "book",
    }
