"""Golden and determinism tests for the closed episode loop.

The digests pin the exact bytes of the episode traces and batch records of a
small generated suite, so a change that alters behaviour, even in the last
digit of a float, fails here and has to re-pin them on purpose.
"""

from __future__ import annotations

import hashlib

import pytest

from objsearch.batch import RunConfig, records_to_jsonl, run_batch
from objsearch.episode import run_episode, trace_to_jsonl
from objsearch.suitegen import SuiteParams, generate_suite

SUITE = SuiteParams(count=3, rooms=3, landmarks=6, map_side=14.0)
SUITE_SEED = 0
TRACE_SHA256 = "c9027593f8eb429d7b730c6b08f272e984d447dc5ea6dafabe1d90531a9b9330"
RECORDS_SHA256 = "8f41f5871dce475b0b5399893d295921ac539e67d512badcf403ecfd316b5196"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def scenarios(ctx):
    return generate_suite(SUITE, SUITE_SEED, ctx=ctx)


@pytest.fixture(scope="module")
def traces(scenarios, ctx):
    """Trace JSONL of scenario i run with episode seed i."""
    return [
        trace_to_jsonl(run_episode(s, ctx=ctx, seed=i).trace) for i, s in enumerate(scenarios)
    ]


def batch_records(parallelism: int) -> str:
    config = RunConfig(
        episodes=SUITE.count, seed_base=0, parallelism=parallelism,
        suite=SUITE, suite_seed=SUITE_SEED,
    )
    return records_to_jsonl(run_batch(config).records)


@pytest.fixture(scope="module")
def serial_records():
    return batch_records(1)


def test_golden_trace(traces):
    assert sha256("".join(traces)) == TRACE_SHA256


def test_golden_records(serial_records):
    assert sha256(serial_records) == RECORDS_SHA256


def test_same_seed_same_trace(scenarios, traces, ctx):
    again = trace_to_jsonl(run_episode(scenarios[0], ctx=ctx, seed=0).trace)
    assert again == traces[0]


def test_parallel_records_match_serial(serial_records):
    assert batch_records(2) == serial_records
