"""Property tests: a multi-spec session equals k independent runs.

On random well-formed traces, driving all six order × clock combinations
through one :class:`repro.api.Session` walk must produce exactly the
timestamps and race sets of six legacy one-analysis-per-walk runs — and
the shared source must be consumed exactly once regardless of k.
"""

from hypothesis import HealthCheck, given, settings

from repro.api import Session, TraceSource, parse_spec
from repro.api.registry import CLOCKS, ORDERS
from util_traces import trace_strategy

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

ALL_SPECS = [
    f"{order}+{clock}+detect+ts"
    for order in ("hb", "shb", "maz")
    for clock in ("tc", "vc")
]


def race_set(result):
    return {
        (r.variable, r.prior_tid, r.prior_local_time, r.event_eid, r.event_tid)
        for r in result.detection.races
    }


@RELAXED
@given(trace=trace_strategy())
def test_multi_spec_session_equals_individual_runs(trace):
    source = TraceSource(trace)
    session_result = Session(ALL_SPECS).run(source)

    # One walk, not six.
    assert source.events_emitted == len(trace)

    for spec_text in ALL_SPECS:
        spec = parse_spec(spec_text)
        legacy = ORDERS.get(spec.order)(
            CLOCKS.get(spec.clock), detect=True, capture_timestamps=True
        ).run(trace)
        via_session = session_result[spec]
        assert via_session.timestamps == legacy.timestamps, spec_text
        assert race_set(via_session) == race_set(legacy), spec_text
        assert via_session.detection.race_count == legacy.detection.race_count, spec_text


@RELAXED
@given(trace=trace_strategy(include_fork_join=True))
def test_session_race_counts_agree_across_clocks_with_fork_join(trace):
    result = Session(["shb+tc+detect", "shb+vc+detect"]).run(trace)
    counts = {key: r.detection.race_count for key, r in result}
    assert counts["shb+tc+detect"] == counts["shb+vc+detect"]
