"""Figure 9 benchmark: distribution of VCWork/TCWork per partial order.

The benchmark measures the instrumented double run (VC + TC) per partial
order over the reduced suite and asserts the qualitative findings of
Figure 9: tree clocks never touch more entries than vector clocks, and on
a meaningful fraction of traces they touch several times fewer.
"""

import pytest

from repro.api.registry import ORDERS
from repro.metrics import measure_work

PARTIAL_ORDERS = ("MAZ", "SHB", "HB")


@pytest.mark.parametrize("order", PARTIAL_ORDERS)
def test_figure9_work_ratio_distribution(benchmark, suite_traces, order):
    benchmark.group = f"figure9-{order}"
    analysis_class = ORDERS.get(order)

    def sweep():
        return [measure_work(trace, analysis_class) for trace in suite_traces]

    measurements = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ratios = [measurement.vc_over_tc for measurement in measurements]
    assert all(ratio >= 0.99 for ratio in ratios)
    assert max(ratios) > 2.0
