"""Span tracer that wraps objsearch's public functions from outside the package.

Installing a :class:`Tracer` replaces every binding of each traced function in
every loaded ``objsearch`` module (``objsearch.sensing.raycast_batch`` and
``objsearch.world.raycast_batch`` alike), so calls made through any import
path are recorded.  Leaving the ``with`` block puts the original objects back.

A span is (name, parent, start, end, item).  Spans stay in memory; the
per-layer aggregates are computed when the pass ends.  A layer's self time is
its span's duration minus the time covered by its direct child spans.  Layer
hooks count work (rays, new cells, detections, ...) outside the timed region
of the layer they describe.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter

import numpy as np


def _rays(tracer, args, kwargs):
    bearings = args[2] if len(args) > 2 else kwargs["bearings"]
    tracer.counts["world.raycast_batch.rays"] += len(bearings)


def _known_before(tracer, args, kwargs):
    return int(np.count_nonzero(args[0].cells))


def _lidar_gain(tracer, before, args, kwargs, result):
    gain = int(np.count_nonzero(args[0].cells)) - before
    tracer.counts["sensing.lidar_update.new_cells"] += gain
    tracer.counts["sensing.lidar_update.zero_gain"] += gain == 0


def _belief_unchanged(tracer, args, kwargs):
    belief = args[0]
    previous = tracer.last_belief.get(belief)
    if previous is not None and np.array_equal(previous, belief.cells):
        tracer.counts["planning.traversable_mask.unchanged"] += 1
    tracer.last_belief[belief] = belief.cells.copy()


def _graph_cells(tracer, args, kwargs):
    tracer.counts["planning.distance_field.cells"] += int(np.count_nonzero(args[0]))


def _detections(tracer, before, args, kwargs, result):
    tracer.counts["sensing.camera_observe.detections"] += len(result.detections)


def _path_cells(tracer, before, args, kwargs, result):
    tracer.counts["planning.plan_path.path_cells"] += len(result.cells)


# (module, attribute, hook run before the call, hook run after a normal return).
# ``AssetContext.*`` entries are methods patched on the class.
LAYERS = (
    ("world", "raycast_batch", _rays, None),
    ("world", "serialize_scenario", None, None),
    ("world", "load_scenario", None, None),
    ("sensing", "lidar_update", _known_before, _lidar_gain),
    ("sensing", "line_of_sight", None, None),
    ("sensing", "camera_observe", None, _detections),
    ("planning", "traversable_mask", _belief_unchanged, None),
    ("planning", "distance_field", _graph_cells, None),
    ("planning", "plan_path", None, _path_cells),
    ("planning", "clear_robot_disk", None, None),
    ("planning", "nearest_frontier", None, None),
    ("planning", "generate_viewpoints", None, None),
    ("matching", "best_landmark_match", None, None),
    ("matching", "matching_score", None, None),
    ("matching", "landmark_probability", None, None),
    ("knowledge", "cooccurrence", None, None),
    ("assets", "AssetContext.load", None, None),
    ("assets", "AssetContext.text_store_for", None, None),
    ("episode", "ground_truth_shortest", None, None),
    ("episode", "run_episode", None, None),
    ("suitegen", "generate_suite", None, None),
)


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Records spans for the functions in :data:`LAYERS` while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.items: list[int] = []
        self.item = -1  # identifier shared by the spans of one work item
        self.counts: Counter = Counter()
        self.last_belief: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -----------------------------------------------------

    def _wrap(self, name, fn, before, after):
        names, parents, starts, ends, items, stack = (
            self.names, self.parents, self.starts, self.ends, self.items, self._stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(self, args, kwargs) if before is not None else None
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, state, args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "objsearch" or n.startswith("objsearch."))
        ]
        try:
            for module, attr, before, after in LAYERS:
                name = layer_name(module, attr)
                home = sys.modules[f"objsearch.{module}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    if isinstance(original, classmethod):
                        patched = classmethod(self._wrap(name, original.__func__, before, after))
                    else:
                        patched = self._wrap(name, original, before, after)
                    self._patch(cls, method, original, patched)
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, before, after)
                for mod in modules:
                    for binding in [k for k, v in vars(mod).items() if v is original]:
                        self._patch(mod, binding, original, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros(len(durations))
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        totals: dict[str, dict[str, float]] = {}
        for name, dur, kids in zip(self.names, durations.tolist(), child.tolist()):
            t = totals.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            t["calls"] += 1
            t["ms"] += dur * 1000.0
            t["self_ms"] += (dur - kids) * 1000.0
        return totals

    def write_spans(self, path) -> None:
        """One JSON object per span, times in microseconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i], "item": self.items[i],
                    "start_us": round((self.starts[i] - t0) * 1e6, 1),
                    "end_us": round((self.ends[i] - t0) * 1e6, 1),
                }) + "\n")
