"""The schema-versioned ``BENCH_<suite>.json`` artifact format.

An artifact is the durable output of one ``repro-bench run``: enough to
re-plot, re-compare and audit a measurement months later without the
machine that produced it.  The layout is deliberately flat and stable —
the case ``name`` fields are the join keys of ``repro-bench compare``,
so renaming a case is a breaking change (bump a case name only together
with its baseline).

Top-level layout (``schema`` = ``"repro-bench/1"``)::

    {
      "schema": "repro-bench/1",
      "suite": "clocks",
      "created_unix": 1753500000.0,
      "machine": {"python": "3.11.7", "implementation": "cpython", "platform": "...",
                  "nproc": 2, "cpu": "Intel(R) Xeon(R) ..."},
      "config": {"warmup": 1, "repeats": 3},
      "results": [
        {"name": "clock_ops/single_lock-t10/TC", "kind": "clock_ops",
         "params": {...}, "events": 2000, "repeats": 3,
         "runs_ns": [...], "best_ns": ..., "mean_ns": ..., "median_ns": ...,
         "iqr_ns": ..., "per_event_ns": ...,
         "sub": {"hb+tc": {"runs_ns": [...], "best_ns": ..., "median_ns": ...}},   # session cases
         "meta": {...}}
      ]
    }
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .runner import BenchCaseResult, BenchConfig

#: Current artifact schema identifier.  Bump the suffix on breaking
#: layout changes; :func:`validate_artifact` rejects other versions.
SCHEMA_VERSION = "repro-bench/1"

#: Fields every ``results`` entry must carry.  ``median_ns`` / ``iqr_ns``
#: are not required, so artifacts written before they existed still load.
_REQUIRED_RESULT_FIELDS = ("name", "kind", "events", "repeats", "runs_ns", "best_ns", "mean_ns")

#: Where :func:`machine_fingerprint` reads the CPU model on Linux.
_CPUINFO = Path("/proc/cpuinfo")


def _cpu_model() -> str:
    """The first ``model name`` in ``/proc/cpuinfo``, else ``platform.processor()``."""
    try:
        with _CPUINFO.open(encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine_fingerprint() -> Dict[str, object]:
    """Coarse provenance of the measuring machine (no secrets, no hostnames)."""
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def make_artifact(
    suite: str,
    results: Sequence[BenchCaseResult],
    config: Optional[BenchConfig] = None,
) -> Dict[str, object]:
    """Assemble the artifact dictionary for one measured suite."""
    resolved = config if config is not None else BenchConfig()
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "created_unix": time.time(),
        "machine": machine_fingerprint(),
        "config": {"warmup": resolved.warmup, "repeats": resolved.repeats},
        "results": [result.as_dict() for result in results],
    }


def artifact_path(out_dir: Union[str, Path], suite: str) -> Path:
    """The canonical artifact file name for a suite: ``BENCH_<suite>.json``."""
    return Path(out_dir) / f"BENCH_{suite}.json"


def write_artifact(path: Union[str, Path], artifact: Dict[str, object]) -> Path:
    """Write an artifact as pretty-printed JSON; returns the path written."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(artifact, indent=2, sort_keys=False) + "\n")
    return target


def load_artifact(path: Union[str, Path]) -> Dict[str, object]:
    """Load an artifact and validate it; raises :class:`ValueError` if invalid."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from error
    problems = validate_artifact(payload)
    if problems:
        raise ValueError(f"{path}: invalid bench artifact: " + "; ".join(problems))
    return payload


def validate_artifact(artifact: object) -> List[str]:
    """Structural validation; returns a list of problems (empty when valid)."""
    problems: List[str] = []
    if not isinstance(artifact, dict):
        return [f"artifact must be a JSON object, got {type(artifact).__name__}"]
    schema = artifact.get("schema")
    if schema != SCHEMA_VERSION:
        problems.append(f"unsupported schema {schema!r} (expected {SCHEMA_VERSION!r})")
    if not isinstance(artifact.get("suite"), str) or not artifact.get("suite"):
        problems.append("missing or empty 'suite'")
    if not isinstance(artifact.get("created_unix"), (int, float)):
        problems.append("missing numeric 'created_unix'")
    config = artifact.get("config")
    if not isinstance(config, dict):
        problems.append("missing 'config' object")
    results = artifact.get("results")
    if not isinstance(results, list):
        problems.append("missing 'results' list")
        return problems
    seen_names = set()
    for position, entry in enumerate(results):
        where = f"results[{position}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} is not an object")
            continue
        for field in _REQUIRED_RESULT_FIELDS:
            if field not in entry:
                problems.append(f"{where} is missing {field!r}")
        name = entry.get("name")
        if isinstance(name, str):
            if name in seen_names:
                problems.append(f"{where}: duplicate case name {name!r}")
            seen_names.add(name)
        runs = entry.get("runs_ns")
        if isinstance(runs, list):
            if not runs:
                problems.append(f"{where}: empty runs_ns")
            elif not all(isinstance(value, (int, float)) and value >= 0 for value in runs):
                problems.append(f"{where}: runs_ns must be non-negative numbers")
            elif isinstance(entry.get("best_ns"), (int, float)) and entry["best_ns"] != min(runs):
                problems.append(f"{where}: best_ns does not equal min(runs_ns)")
        elif "runs_ns" in entry:
            problems.append(f"{where}: runs_ns must be a list")
    return problems
