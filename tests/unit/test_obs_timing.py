"""Unit tests for :func:`repro.obs.timing.timing_fields`, the serialized timing pair."""

import pytest

from repro.obs.timing import timing_fields


class TestTimingFields:
    def test_standard_key_pair(self):
        fields = timing_fields(1_500_000_000)
        assert fields == {"elapsed_ns": 1_500_000_000, "elapsed_seconds": 1.5}

    def test_zero(self):
        assert timing_fields(0) == {"elapsed_ns": 0, "elapsed_seconds": 0.0}

    def test_coerces_to_int_ns(self):
        fields = timing_fields(1234.0)
        assert fields["elapsed_ns"] == 1234
        assert isinstance(fields["elapsed_ns"], int)
        assert fields["elapsed_seconds"] == pytest.approx(1234 / 1e9)

    def test_result_serialization_uses_timing_fields(self):
        # AnalysisResult.as_dict is the main consumer of the standardized
        # key pair; a drift here would silently fork the vocabulary.
        from repro.api import Session, TraceSource
        from repro.trace import TraceBuilder

        builder = TraceBuilder(name="tiny")
        builder.write(1, "x").read(2, "x")
        result = Session(["hb+tc"]).run(TraceSource(builder.build()))
        payload = result["hb+tc"].as_dict()
        assert payload["elapsed_ns"] >= 0
        assert payload["elapsed_seconds"] == pytest.approx(payload["elapsed_ns"] / 1e9)
