"""Unit tests for the scalability scenarios and the benchmark suite."""

import pytest

from repro.gen import (
    SCENARIOS,
    BenchmarkProfile,
    default_suite,
    families,
    fifty_locks_skewed_trace,
    generate_suite,
    get_profile,
    pairwise_communication_trace,
    profile_names,
    single_lock_trace,
    star_topology_trace,
)
from repro.trace import compute_statistics, is_well_formed


class TestScenarios:
    def test_scenarios_registry_has_paper_cases(self):
        assert set(SCENARIOS) == {
            "single_lock",
            "fifty_locks_skewed",
            "star_topology",
            "pairwise_communication",
        }

    def test_single_lock_uses_one_lock(self):
        trace = single_lock_trace(8, 400)
        assert len(trace.locks) == 1
        assert is_well_formed(trace)

    def test_fifty_locks_has_at_most_fifty_locks(self):
        trace = fifty_locks_skewed_trace(12, 2000)
        assert 1 < len(trace.locks) <= 50

    def test_star_topology_lock_count_tracks_clients(self):
        trace = star_topology_trace(10, 1500)
        assert len(trace.locks) <= 9

    def test_pairwise_lock_count_tracks_pairs(self):
        trace = pairwise_communication_trace(6, 1500)
        assert len(trace.locks) <= 15

    def test_scenario_traces_are_sync_only(self):
        for make in (single_lock_trace, star_topology_trace):
            stats = compute_statistics(make(6, 300))
            assert stats.sync_fraction == 1.0

    def test_thread_count_is_respected(self):
        trace = single_lock_trace(25, 2000)
        assert trace.num_threads <= 25

    def test_traces_are_deterministic_per_seed(self):
        assert single_lock_trace(6, 300, seed=1) == single_lock_trace(6, 300, seed=1)
        assert single_lock_trace(6, 300, seed=1) != single_lock_trace(6, 300, seed=2)


class TestSuite:
    def test_default_suite_is_nonempty(self):
        suite = default_suite()
        assert len(suite) >= 25

    def test_profiles_have_unique_names(self):
        names = profile_names()
        assert len(names) == len(set(names))

    def test_scale_changes_event_counts(self):
        small = default_suite(scale=0.5)[0]
        large = default_suite(scale=2.0)[0]
        assert large.config.num_events > small.config.num_events

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            default_suite(scale=0)

    def test_family_filter(self):
        suite = default_suite(families=["java-small"])
        assert suite and all(profile.family == "java-small" for profile in suite)

    def test_max_profiles_limits_suite(self):
        assert len(default_suite(max_profiles=5)) == 5

    @pytest.mark.parametrize("cap", [0, -1])
    def test_max_profiles_must_be_at_least_one(self, cap):
        with pytest.raises(ValueError, match="max_profiles"):
            default_suite(max_profiles=cap)

    def test_get_profile_and_unknown(self):
        profile = get_profile("account-like")
        assert isinstance(profile, BenchmarkProfile)
        with pytest.raises(KeyError):
            get_profile("nope")

    def test_families_listed(self):
        listed = families()
        assert "java-small" in listed and "openmp-app" in listed

    def test_generate_suite_produces_named_well_formed_traces(self):
        profiles = default_suite(scale=0.2, max_profiles=4)
        traces = generate_suite(profiles)
        assert [trace.name for trace in traces] == [profile.name for profile in profiles]
        assert all(is_well_formed(trace) for trace in traces)

    def test_profile_generate_matches_profile_name(self):
        profile = default_suite(scale=0.2, max_profiles=1)[0]
        assert profile.generate().name == profile.name

    def test_suite_spans_thread_counts(self):
        suite = default_suite()
        thread_counts = [profile.config.num_threads for profile in suite]
        assert min(thread_counts) <= 5
        assert max(thread_counts) >= 100

    def test_suite_spans_sync_fractions(self):
        suite = default_suite()
        fractions = [profile.config.sync_fraction for profile in suite]
        assert min(fractions) <= 0.05
        assert max(fractions) >= 0.4
