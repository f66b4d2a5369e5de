"""The correctness gate: fingerprints of analysis outcomes and their checks.

A fingerprint is what must not change between TC and VC, between
repeated walks of one file, and against the counts pinned in
``reference.json``: the event count, the race and check counts, the
racy-variable set and the final thread vector times.  Every analysis
whose fingerprint disagrees with what it is checked against counts as
failed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence

from common import BENCH_DIR

REFERENCE_PATH = BENCH_DIR / "reference.json"


def _digest(value: object) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def final_vector_times(analysis) -> Dict[int, Dict[int, int]]:
    """Final thread clocks of a finished analysis, zero entries dropped."""
    return {
        tid: {owner: value for owner, value in clock.as_dict().items() if value}
        for tid, clock in analysis.thread_clocks.items()
    }


def fingerprint(result, analysis) -> Dict[str, object]:
    """Fingerprint of one spec's outcome (``result`` from a SessionResult)."""
    vts = final_vector_times(analysis)
    fp: Dict[str, object] = {
        "events": result.num_events,
        "vt": _digest(sorted((tid, sorted(vt.items())) for tid, vt in vts.items())),
    }
    detection = result.detection
    if detection is not None:
        fp["races"] = detection.race_count
        fp["checks"] = detection.checks
        fp["racy_vars"] = _digest(sorted(str(v) for v in detection.racy_variables))
    return fp


def session_fingerprints(session, result) -> Dict[str, Dict[str, object]]:
    """Fingerprints of every spec of a finished session walk, keyed by order."""
    analyses = session.analyses
    return {
        spec.order.lower(): fingerprint(result[spec], analyses[spec.key])
        for spec in session.specs
    }


def load_reference() -> Dict[str, object]:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def pinned(reference: Dict[str, object], workload: str, seed: int) -> Optional[Dict[str, object]]:
    """The pinned counts of one workload at one seed, if the seed is pinned."""
    return reference.get("workloads", {}).get(workload, {}).get(str(seed))  # type: ignore[union-attr]


class Gate:
    """Accumulates attempted/failed analyses and the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def check_walks(
    gate: Gate,
    iterations: Sequence[Dict[str, object]],
    expected: Optional[Dict[str, Dict[str, object]]],
) -> None:
    """Gate the walks of an analysis workload.

    Each iteration carries the TC and VC fingerprints of one file by
    order.  Every analysis is checked against the pinned fingerprint of
    its file when the seed is pinned, otherwise against the other clock,
    and always against the first walk of the same file.
    """
    first: Dict[str, Dict[str, Dict[str, object]]] = {}
    for it in iterations:
        file_key = str(it["file"])
        tc: Dict[str, Dict[str, object]] = it["tc"]  # type: ignore[assignment]
        vc: Dict[str, Dict[str, object]] = it["vc"]  # type: ignore[assignment]
        seen = first.setdefault(file_key, {})
        for clock, mine, other in (("tc", tc, vc), ("vc", vc, tc)):
            for order, got in mine.items():
                gate.attempted += 1
                if expected is not None:
                    want, against = expected.get(file_key, {}).get(order), "pinned"
                elif order in other:
                    want, against = other[order], "other clock"
                else:
                    want, against = got, ""
                earlier = seen.setdefault(f"{order}+{clock}", got)
                gate.check(
                    got == want and got == earlier,
                    f"file {file_key} {order}+{clock}: {got} != {against} {want} or first walk {earlier}",
                )


def check_oracle_prefix(gate: Gate, trace, prefix: int = 2000) -> None:
    """Check TC and VC against the graph oracle on a prefix of ``trace``.

    For every order the final thread vector times must equal the oracle's
    timestamps of each thread's last event.  For HB the racy-variable set
    must equal the oracle's, and every reported racy event must be racy in
    the oracle.  (The oracle's SHB order contains the read-from edge a SHB
    detector checks before it joins, and MAZ orders every conflicting
    pair, so their detectors are checked through TC == VC and the pins.)
    """
    from repro.analysis.graph import GraphOrder
    from repro.api import Session
    from repro.trace.trace import Trace

    head = Trace(trace.events[:prefix], name=f"{trace.name}-prefix")
    last = {}
    for event in head:
        last[event.tid] = event
    for order in ("hb", "shb", "maz"):
        oracle = GraphOrder(head, order.upper())
        want_vt = {
            tid: {owner: value for owner, value in oracle.timestamp_of(event).items() if value}
            for tid, event in last.items()
        }
        racy = oracle.racy_access_events() if order == "hb" else []
        racy_eids = {event.eid for event in racy}
        for clock in ("tc", "vc"):
            key = f"{order}+{clock}+detect"
            session = Session([key])
            result = session.run(head)
            gate.attempted += 1
            got_vt = final_vector_times(session.analyses[key])
            ok = all(got_vt.get(tid) == vt for tid, vt in want_vt.items())
            detection = result[key].detection
            races = detection.races if detection is not None else []
            if order == "hb":
                ok = ok and {str(v) for v in detection.racy_variables} == {
                    str(event.target) for event in racy
                }
                ok = ok and all(race.event_eid in racy_eids for race in races)
            gate.check(ok, f"oracle prefix {head.name} {key}: disagrees with the graph oracle")
