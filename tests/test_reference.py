"""The engine against the naive reference engine, on drawn run specs.

Each drawn spec runs through ``execute_run`` and through
``reference_engine.run_reference`` on the same seeds, and the two must
agree on every counter, per-hash data sends, tracker records, final
tables and the broadcast state still in flight. The draws cover every
variant and disturbance, β 1-4, N 2-64, tiny id spaces and buckets,
zero-byte messages, horizons, withheld confirmations, launch intervals
from 1 μs to 50 ms and churn periods down to 1 μs. About half the specs
put every time on a grid of whole milliseconds, where sends start and
copies land exactly at disturbances. Derandomized and
without a database, so the examples are the same on every run and
nothing is written to the working tree.

The scale cases of ``test_golden.SCALE_CASES`` (N=1000 and N=2000) are
checked the same way, and each engine run must also hash to its pin in
``tests/golden/run_digests.json``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from nebcast.experiments import runner
from nebcast.experiments.runner import DISTURBANCES, RunResult, RunSpec, execute_run
from nebcast.netsim import Engine
from reference_engine import assert_same_run, run_reference
from test_golden import RUN_DIGESTS, SCALE_CASES, run_digest


# Hypothesis caches the constants it reads from local source, while the
# tests are collected, under its home directory: ./.hypothesis unless set
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "nebcast-hypothesis")


@st.composite
def run_specs(draw) -> RunSpec:
    n = draw(st.integers(2, 64))
    total = draw(st.integers(1, 2 * n))
    if draw(st.booleans()):
        # a grid of whole milliseconds: launches, disturbances, delays and
        # 128-byte data copies (2-16 ms on the wire), so sends start and
        # copies land exactly at disturbances
        interval = draw(st.integers(1, 50)) * 1_000
        period = draw(st.integers(1, 64)) * 1_000
        data_bytes = 128
    else:
        # round intervals and periods, with zero-byte messages and the round
        # delays, make copies land and sends start right at disturbances
        interval = draw(st.sampled_from((1, 1_000, 2_000, 50_000)) | st.integers(1, 50_000))
        span = (total - 1) * interval
        # at most about 128 disturbances within the launches
        period = draw(
            st.integers(1, 64).map(lambda k: k * interval)
            | st.integers(max(1, span // 64), span + 1)
        )
        data_bytes = draw(st.sampled_from((0, 1, 128, 1500)))
    return RunSpec(
        n_nodes=n,
        address_bits=draw(st.integers((n - 1).bit_length(), 16)),
        bucket_capacity=draw(st.sampled_from((1, 3, 7, 15))),
        data_msg_bytes=data_bytes,
        confirm_msg_bytes=draw(st.sampled_from((0, 20))),
        variant=draw(st.sampled_from(("baseline", "ne", "gossip"))),
        redundancy=draw(st.integers(1, 4)),
        rounds_per_node=1,
        total_broadcasts=total,
        interval_us=interval,
        seed=draw(st.integers(0, 1 << 16)),
        disturbance=draw(st.sampled_from(DISTURBANCES)),
        disturbance_period_us=period,
        refuse_withholds_confirms=draw(st.booleans()),
        horizon_us=draw(st.none() | st.integers(0, (total - 1) * interval + 2_000_000)),
        count_per_hash=True,
    )


def _engine_run(spec: RunSpec) -> tuple[Engine, RunResult]:
    """Run ``spec`` through ``execute_run``; return the engine it drained and its result."""
    kept = []

    class KeptEngine(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            kept.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "Engine", KeptEngine)
        result = execute_run(spec)
    return kept[0], result


@settings(derandomize=True, database=None, deadline=None, max_examples=800)
@given(run_specs())
def test_engine_matches_the_reference_engine(spec):
    assert_same_run(_engine_run(spec)[0], run_reference(spec))


@pytest.mark.parametrize("name", sorted(SCALE_CASES))
def test_engine_matches_the_reference_engine_at_scale(name):
    spec = SCALE_CASES[name]
    engine, result = _engine_run(spec)
    assert run_digest(result) == json.loads(RUN_DIGESTS.read_text(encoding="utf-8"))[name]
    if spec.disturbance == "none" and spec.redundancy == 1 and spec.variant != "gossip":
        # exactly once at scale: one data send per receiver, no duplicate
        total = spec.total_broadcasts
        assert result.per_hash_sends == {h: spec.n_nodes - 1 for h in range(total)}
        assert result.duplicates == 0
        assert sum(rec.complete for rec in result.recs) == total
    assert_same_run(engine, run_reference(spec))
