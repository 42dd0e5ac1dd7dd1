"""SPL on hand-computed episodes, including records it cannot weigh."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from objsearch.batch import EpisodeRecord, score_records
from objsearch.errors import DomainError
from objsearch.metrics import spl, spl_fault


def ep(success, traveled, shortest):
    return SimpleNamespace(success=success, traveled=traveled, shortest=shortest)


@pytest.mark.parametrize(
    "episodes, want",
    [
        ([ep(False, 3.0, 2.0)], 0.0),  # a failure
        ([ep(True, 0.0, 0.0)], 1.0),  # a success that needed no travel
        ([ep(True, 5.0, 4.0), ep(False, 9.0, 3.0)], 0.4),  # 4 / 5, averaged with a failure
    ],
)
def test_hand_valued(episodes, want):
    assert spl(episodes) == pytest.approx(want)


def test_faulty_successes_score_zero_and_are_counted():
    episodes = [
        ep(True, 5.0, 4.0),
        ep(True, 8.8, math.inf),  # no drivable path found to the target
        ep(True, -1.0, 2.0),
        ep(True, 3.0, -0.5),
        ep(False, 2.0, math.inf),  # a failure is never faulty
    ]
    assert [spl_fault(e) for e in episodes] == [False, True, True, True, False]
    assert spl(episodes) == pytest.approx(0.8 / 5)
    records = [
        EpisodeRecord(episode=i, scenario="s.json", seed=i, success=e.success,
                      traveled=e.traveled, shortest=e.shortest, waypoints_visited=0)
        for i, e in enumerate(episodes)
    ]
    report = score_records(records, "scored")
    assert (report.spl_faults, report.spl) == (3, pytest.approx(0.8 / 5))


def test_no_episodes():
    with pytest.raises(DomainError):
        spl([])
