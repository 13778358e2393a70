"""Span recorder that wraps moescale's public functions from outside.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.install` replaces
each traced function in every ``moescale`` module namespace that binds it
(``from .laws import predict_loss`` makes a second binding) and
:meth:`Tracer.uninstall` puts the originals back. Each call records one span:
name, start, end, parent span and answer id, plus a short note (the
exception class, or a result detail such as the extrapolation flag). Spans
stay in flat arrays in memory and are written as JSONL at the end of a run.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

SETUP = -1
CHECK = -2
REFERENCE = -3

# span name -> (module, attribute); the attribute may be "Class.method".
TRACED = {
    "laws.predict_loss": ("moescale.laws", "predict_loss"),
    "inference.interpolate": ("moescale.inference", "LatencyProfile.interpolate"),
    "inference.profile_build": ("moescale.inference", "LatencyProfile.__init__"),
    "inference.profile_from_json": ("moescale.inference", "LatencyProfile.from_json"),
    "inference.cost_table": ("moescale.inference", "cost_table"),
    "inference.min_cost_over_gpus": ("moescale.inference", "min_cost_over_gpus"),
    "allocation.moe_loss_optimal": ("moescale.allocation", "moe_loss_optimal"),
    "allocation.loss_optimal_result": ("moescale.allocation", "loss_optimal_result"),
    "allocation.bound_loss": ("moescale.allocation", "min_cost_for_bounded_loss"),
    "allocation.bound_cost": ("moescale.allocation", "min_loss_for_bounded_cost"),
    "allocation.flops_ratio": ("moescale.allocation", "flops_ratio_to_match"),
    "allocation.frontier_sweep": ("moescale.allocation", "frontier_sweep"),
    "fitting.fit_moe": ("moescale.fitting", "fit_moe"),
    "fitting.lbfgs": ("moescale.fitting", "minimize"),
    "fitting.polish": ("moescale.fitting", "least_squares"),
    "synth.synth_runs": ("moescale.synth", "synth_runs"),
    "synth.synth_profile": ("moescale.synth", "synth_profile"),
    "synth.serve_simulate": ("moescale.synth", "serve_simulate"),
    "synth.grid_argmin_loss": ("moescale.synth", "grid_argmin_loss"),
    "cli.main": ("moescale.cli", "main"),
}


def _note(name: str, result) -> str:
    if name == "inference.interpolate":
        return "extrapolated" if result[1] else ""
    if name == "fitting.lbfgs":
        return f"nfev={result.nfev} {'converged' if result.success else 'stopped'}"
    if name == "fitting.polish":
        return f"nfev={result.nfev}"
    return ""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.answer = array("q")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, str] = {}
        self.current = -1
        self.answer_id = SETUP
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self.current)
        self.answer.append(self.answer_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.current = idx
        return idx

    def close(self, idx: int, note: str = "") -> None:
        self.end[idx] = perf_counter()
        self.current = self.parent[idx]
        if note:
            self.notes[idx] = note

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, type(exc).__name__)
                raise
            tracer.close(idx, _note(name, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever a moescale module binds it."""
        modules = [m for key, m in sys.modules.items() if key == "moescale" or key.startswith("moescale.")]
        for name, (module_name, attr) in TRACED.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                if isinstance(original, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, original.__func__)))
                else:
                    setattr(cls, meth, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def records(self):
        for i in range(len(self.start)):
            yield {
                "id": i,
                "name": self.names[self.name[i]],
                "start": self.start[i],
                "end": self.end[i],
                "parent": self.parent[i],
                "answer": self.answer[i],
                "note": self.notes.get(i, ""),
            }

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")

    def extend(self, records, parent: int, answer: int) -> None:
        """Append spans recorded in another process under ``parent``."""
        offset = len(self.start)
        for rec in records:
            self.name.append(self._name_id(rec["name"]))
            self.parent.append(parent if rec["parent"] < 0 else rec["parent"] + offset)
            self.answer.append(answer)
            self.start.append(rec["start"])
            self.end.append(rec["end"])
            if rec["note"]:
                self.notes[len(self.start) - 1] = rec["note"]


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
