"""The benchmark-suite stand-in (Tables 1 and 3 of the paper).

The paper's evaluation logs 153 traces from Java programs (IBM Contest,
Java Grande, DaCapo, SIR) and OpenMP programs (DataRaceBench,
DataRaceOnAccelerator, OmpSCR, NAS, CORAL, ECP proxies, Mantevo) using
RV-Predict and ThreadSanitizer.  Those binaries and tracers are not
available offline, so this module defines a suite of *synthetic profiles*
that mirror the families of Table 3: for each family the profile matches
the thread count, lock count, variable count and synchronization-event
fraction of representative rows, while the event counts are scaled down
(pure Python is roughly two orders of magnitude slower per event than the
paper's Java implementation).

What matters for the tree-clock-vs-vector-clock comparison is the
*communication structure* — thread count, lock sharing, sync density and
skew — which these profiles control explicitly, so the shape of the
paper's results (who wins, how ratios behave, where the worst cases are)
is preserved even though absolute event counts and times are not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence

from ..trace.trace import Trace
from .random_trace import RandomTraceConfig, generate_trace


@dataclass(frozen=True, slots=True)
class BenchmarkProfile:
    """A named synthetic workload standing in for one Table-3 benchmark family."""

    name: str
    family: str
    config: RandomTraceConfig

    def generate(self) -> Trace:
        """Materialize the trace of this profile."""
        return generate_trace(replace(self.config, name=self.name))

    def source(self):
        """This profile as a lazy :class:`repro.api.GeneratorSource`.

        Lets a profile be handed straight to ``Session.run`` without
        materializing the trace upfront (generation happens on first
        use, inside the session's walk setup).
        """
        from ..api.sources import GeneratorSource  # local import: api sits above gen

        return GeneratorSource(self)


def _profile(
    name: str,
    family: str,
    *,
    threads: int,
    locks: int,
    variables: int,
    events: int,
    sync: float,
    write: float = 0.3,
    topology: str = "shared",
    hot: float = 0.0,
    locality: float = 0.5,
    seed: int = 0,
) -> BenchmarkProfile:
    return BenchmarkProfile(
        name=name,
        family=family,
        config=RandomTraceConfig(
            name=name,
            num_threads=threads,
            num_locks=locks,
            num_variables=variables,
            num_events=events,
            sync_fraction=sync,
            write_fraction=write,
            topology=topology,
            hot_thread_fraction=hot,
            variable_locality=locality,
            seed=seed,
        ),
    )


#: The default suite.  Event counts are per-profile baselines; they are
#: multiplied by the ``scale`` argument of :func:`default_suite`.
_BASE_PROFILES: Sequence[BenchmarkProfile] = (
    # -- small Java benchmarks (IBM Contest / SIR): few threads, tiny traces --
    _profile("account-like", "java-small", threads=5, locks=3, variables=16, events=400, sync=0.30, seed=11),
    _profile("airlinetickets-like", "java-small", threads=5, locks=2, variables=20, events=400, sync=0.10, seed=12),
    _profile("bubblesort-like", "java-small", threads=13, locks=2, variables=80, events=1500, sync=0.25, seed=13),
    _profile("bufwriter-like", "java-small", threads=7, locks=1, variables=120, events=2500, sync=0.35, seed=14),
    _profile("mergesort-like", "java-small", threads=6, locks=3, variables=200, events=1200, sync=0.15, seed=15),
    _profile("producerconsumer-like", "java-small", threads=9, locks=3, variables=30, events=800, sync=0.40, seed=16),
    _profile("wronglock-like", "java-small", threads=23, locks=2, variables=12, events=900, sync=0.45, seed=17),
    _profile("twostage-like", "java-small", threads=13, locks=2, variables=10, events=700, sync=0.40, seed=18),
    # -- Java Grande / DaCapo style: moderate threads, access heavy --
    _profile("lufact-like", "java-grande", threads=5, locks=1, variables=800, events=6000, sync=0.02, seed=21),
    _profile("moldyn-like", "java-grande", threads=4, locks=2, variables=400, events=4000, sync=0.05, seed=22),
    _profile("raytracer-like", "java-grande", threads=4, locks=8, variables=600, events=3500, sync=0.03, seed=23),
    _profile("sor-like", "java-grande", threads=5, locks=2, variables=1000, events=6000, sync=0.01, seed=24),
    _profile("xalan-like", "dacapo", threads=7, locks=40, variables=1500, events=6000, sync=0.08, locality=0.7, seed=25),
    _profile("lusearch-like", "dacapo", threads=8, locks=20, variables=1800, events=6000, sync=0.05, locality=0.7, seed=26),
    _profile("batik-like", "dacapo", threads=7, locks=30, variables=1200, events=5000, sync=0.06, seed=27),
    _profile("tsp-like", "java-grande", threads=10, locks=2, variables=500, events=5000, sync=0.12, seed=28),
    # -- OpenMP micro-benchmarks (DataRaceBench / DRACC): 16 and 56 threads --
    _profile("drb-counter-16-like", "openmp-micro", threads=16, locks=8, variables=60, events=4000, sync=0.20, seed=31),
    _profile("drb-counter-56-like", "openmp-micro", threads=56, locks=16, variables=60, events=5000, sync=0.20, seed=32),
    _profile("drb-taskdep-16-like", "openmp-micro", threads=17, locks=4, variables=150, events=4000, sync=0.10, seed=33),
    _profile("drb-taskdep-56-like", "openmp-micro", threads=57, locks=8, variables=150, events=5000, sync=0.10, seed=34),
    _profile("dracc-critical-16-like", "openmp-micro", threads=16, locks=6, variables=40, events=4000, sync=0.30, seed=35),
    # -- OpenMP applications (CoMD / HPCCG / graph500 / NAS / CORAL): larger traces --
    _profile("comd-16-like", "openmp-app", threads=16, locks=12, variables=900, events=8000, sync=0.10, locality=0.6, seed=41),
    _profile("comd-56-like", "openmp-app", threads=56, locks=24, variables=900, events=9000, sync=0.10, locality=0.6, seed=42),
    _profile("hpccg-16-like", "openmp-app", threads=16, locks=8, variables=1200, events=8000, sync=0.06, seed=43),
    _profile("graph500-56-like", "openmp-app", threads=56, locks=16, variables=1000, events=8000, sync=0.08, seed=44),
    _profile("kripke-56-like", "openmp-app", threads=56, locks=20, variables=700, events=7000, sync=0.12, hot=0.2, seed=45),
    _profile("lulesh-56-like", "openmp-app", threads=57, locks=16, variables=1100, events=8000, sync=0.07, seed=46),
    _profile("quicksilver-56-like", "openmp-app", threads=56, locks=24, variables=800, events=7000, sync=0.15, hot=0.2, seed=47),
    # -- large-thread-count server workloads (cassandra / tradebeans style) --
    _profile("cassandra-like", "server", threads=120, locks=60, variables=1500, events=9000, sync=0.20, hot=0.1, locality=0.7, seed=51),
    _profile("tradebeans-like", "server", threads=160, locks=40, variables=1200, events=9000, sync=0.15, hot=0.1, locality=0.7, seed=52),
    _profile("hsqldb-like", "server", threads=44, locks=30, variables=900, events=7000, sync=0.18, seed=53),
    _profile("graphchi-like", "server", threads=20, locks=10, variables=2000, events=8000, sync=0.05, seed=54),
)


def profile_names() -> List[str]:
    """Names of all profiles in the default suite."""
    return [profile.name for profile in _BASE_PROFILES]


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a profile by name (raises :class:`KeyError` if unknown)."""
    for profile in _BASE_PROFILES:
        if profile.name == name:
            return profile
    raise KeyError(f"unknown benchmark profile {name!r}")


def default_suite(
    scale: float = 1.0,
    families: Optional[Iterable[str]] = None,
    max_profiles: Optional[int] = None,
) -> List[BenchmarkProfile]:
    """The default benchmark suite.

    Parameters
    ----------
    scale:
        Multiplier applied to every profile's event count (e.g. 0.25 for
        quick smoke runs, 10 for a longer evaluation).
    families:
        When given, only profiles of these families are included.
    max_profiles:
        When given, at most this many profiles are returned (in suite
        order); useful for fast CI configurations.  Must be at least 1.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if max_profiles is not None and max_profiles < 1:
        raise ValueError("max_profiles must be at least 1")
    selected: List[BenchmarkProfile] = []
    family_filter = set(families) if families is not None else None
    for profile in _BASE_PROFILES:
        if family_filter is not None and profile.family not in family_filter:
            continue
        config = replace(profile.config, num_events=max(50, int(profile.config.num_events * scale)))
        selected.append(BenchmarkProfile(name=profile.name, family=profile.family, config=config))
        if max_profiles is not None and len(selected) >= max_profiles:
            break
    return selected


def generate_suite(profiles: Optional[Sequence[BenchmarkProfile]] = None) -> List[Trace]:
    """Materialize traces for the given profiles (default: the full suite)."""
    return [profile.generate() for profile in (profiles if profiles is not None else default_suite())]


def families() -> List[str]:
    """The distinct benchmark families in the suite, in first-appearance order."""
    seen: Dict[str, None] = {}
    for profile in _BASE_PROFILES:
        seen.setdefault(profile.family, None)
    return list(seen)
