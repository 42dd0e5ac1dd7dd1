"""Episode metrics: box overlap (IoU / IoA) and success weighted by path length."""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError
from .sensing import BBox


def iou_ioa(a: BBox, b: BBox) -> tuple[float, float]:
    """Intersection over union and intersection over the first box's area."""
    if a.area <= 0.0 or b.area <= 0.0:
        raise DomainError("boxes must have positive area")
    ix = max(0.0, min(a.x_max, b.x_max) - max(a.x_min, b.x_min))
    iy = max(0.0, min(a.y_max, b.y_max) - max(a.y_min, b.y_min))
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union, inter / a.area


def spl_fault(ep) -> bool:
    """True for a success SPL cannot weigh: its shortest path is negative or
    not finite, or its traveled length is negative."""
    return bool(ep.success) and not (0.0 <= ep.shortest < math.inf and ep.traveled >= 0.0)


def spl(episodes: Sequence) -> float:
    """Mean of success * shortest / max(shortest, traveled) over episodes.

    Failures contribute zero.  A success that needed no travel from an
    already-optimal start (both lengths zero) counts as a perfect 1.0.  A
    faulty success (:func:`spl_fault`) contributes zero too, so one bad
    record cannot abort scoring; callers count and report those.
    Episodes need ``success``, ``traveled`` and ``shortest`` attributes.
    """
    if len(episodes) == 0:
        raise DomainError("spl needs at least one episode")
    total = 0.0
    for ep in episodes:
        if not ep.success or spl_fault(ep):
            continue
        shortest, traveled = float(ep.shortest), float(ep.traveled)
        denom = max(shortest, traveled)
        total += 1.0 if denom == 0.0 else shortest / denom
    return total / len(episodes)


def success_rate(episodes: Sequence) -> float:
    """Percentage of successful episodes."""
    if len(episodes) == 0:
        raise DomainError("success_rate needs at least one episode")
    return 100.0 * sum(1 for ep in episodes if ep.success) / len(episodes)


def mean_waypoints(episodes: Sequence) -> float:
    """Average number of landmark viewpoints actually visited."""
    if len(episodes) == 0:
        raise DomainError("mean_waypoints needs at least one episode")
    return sum(ep.waypoints_visited for ep in episodes) / len(episodes)
