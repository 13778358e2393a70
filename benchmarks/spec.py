"""What the benchmark measures, as ``BENCHMARK.json`` at the repository root says.

``BENCHMARK.json`` is the one source of workload names, metric names,
units, bounds and ``run_seconds``. Only the rotation of CLI commands lives
here; each command has a per-layer metric ``cli.process_ms.<command>``.
"""

from __future__ import annotations

import json
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

RUN_SECONDS = _SPEC["run_seconds"]
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
# metric name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
UNITS = {**END_TO_END, **PER_LAYER}

CLI_COMMANDS = (
    "predict",
    "predict_csv",
    "cost",
    "allocate_optimal",
    "allocate_bound_loss",
    "allocate_bound_cost",
    "sweep",
    "synth_profile",
    "fit",
)
