"""Regenerate ``reference.json``: the counts the gate pins per workload and seed.

    python3 perfbench/pin.py

For every pinned seed it walks each workload's files with TC and VC (they
must agree before anything is pinned), checks TC and VC against the graph
oracle on a prefix of the first file, and records the fingerprints and,
for ``served-corpus``, the in-process result of every pool trace under
serve's default specs.  Run it only when the workload generators or the
analyses' documented outputs change on purpose.
"""

from __future__ import annotations

import json
import sys
from typing import Dict

from common import BenchError, log, make_workdir, remove_workdir, require_program

PINNED_SEEDS = range(40)


def pin_seed(workload: str, seed: int, work) -> Dict[str, object]:
    from repro.api import Session
    from repro.trace.io import infer_format, load_trace

    from gate import Gate, check_oracle_prefix, session_fingerprints
    from inputs import WALK_SPECS, write_workload
    from served import expected_results

    files = write_workload(workload, seed, work)
    gate = Gate()
    check_oracle_prefix(gate, load_trace(files[0].path, fmt=infer_format(files[0].path)))
    pinned: Dict[str, object] = {}
    tc_specs, vc_specs = WALK_SPECS[workload]
    if workload == "served-corpus":
        pinned["pool"] = {
            str(index): {
                key: {"events": row["events"], "race_count": row.get("race_count")}
                for key, row in expected_results(entry.path, tc_specs + vc_specs).items()
            }
            for index, entry in enumerate(files)
        }
    else:
        walks: Dict[str, Dict[str, object]] = {}
        for index, entry in enumerate(files):
            fps = {}
            for specs in (tc_specs, vc_specs):
                session = Session(specs)
                fps[specs[0].split("+")[1]] = session_fingerprints(session, session.run(entry.path))
            if fps["tc"] != fps["vc"]:
                raise BenchError(f"{workload} seed {seed} file {index}: TC {fps['tc']} != VC {fps['vc']}")
            walks[str(index)] = fps["tc"]
        pinned["walks"] = walks
    if not gate.correct:
        raise BenchError(f"{workload} seed {seed}: {gate.problems}")
    return pinned


def main() -> int:
    require_program()
    from gate import REFERENCE_PATH
    from run import WORKLOADS

    reference: Dict[str, object] = {
        "about": "Counts pinned per workload and seed by perfbench/pin.py; "
                 "checked against the graph oracle on a 2000-event prefix of each first file.",
        "workloads": {},
    }
    for workload in WORKLOADS:
        reference["workloads"][workload] = {}  # type: ignore[index]
        for seed in PINNED_SEEDS:
            work = make_workdir(f"pin-{workload}")
            try:
                reference["workloads"][workload][str(seed)] = pin_seed(workload, seed, work)  # type: ignore[index]
            finally:
                remove_workdir(work)
            log(f"pinned {workload} seed {seed}")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
