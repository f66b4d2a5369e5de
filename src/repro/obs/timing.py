"""The serialized timing vocabulary: :func:`timing_fields`.

Offline measurement (:mod:`repro.bench`, the one timer) and online
measurement (:mod:`repro.obs.metrics` histograms) speak one vocabulary:
**nanoseconds from** :func:`time.perf_counter_ns`, serialized as the key
pair ``elapsed_ns`` / ``elapsed_seconds``.
"""

from __future__ import annotations

from typing import Dict


def timing_fields(elapsed_ns: int) -> Dict[str, object]:
    """The canonical serialized timing pair: ``elapsed_ns`` + derived seconds.

    Every ``as_dict`` payload that reports a duration
    (:class:`~repro.analysis.result.AnalysisResult`,
    :class:`~repro.api.session.SessionResult`, …) uses this helper, so
    the key names and the ns-is-authoritative convention cannot drift
    between layers.
    """
    return {"elapsed_ns": int(elapsed_ns), "elapsed_seconds": elapsed_ns / 1e9}
