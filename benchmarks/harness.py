"""Timed loop, answer checks, metrics and the result line for one workload."""

from __future__ import annotations

import gc
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spec
from tracer import CHECK, REFERENCE, SETUP, Tracer
from workloads import WORKLOADS, src_env

# Set-up runs once before the timed loop and again after each pass, at
# least SETUP_PER_PASS times and for at least SETUP_MIN_S, so its median
# covers the whole run rather than one moment of it.
SETUP_PER_PASS = 3
SETUP_MIN_S = 0.25
# The run goes on past its seconds until the tail percentile has at least
# this many successful executions beyond it, but never measures longer
# than MAX_MEASURE_S, so that a run ends within three minutes.
MIN_BEYOND = 10
MAX_MEASURE_S = 120.0
# What an execution keeps of its answer after the first pass (which is the
# one checked): later passes only count failures and times.
KEEP_AFTER_FIRST_PASS = ("error", "cmd", "process_s")
IMPORT_PROBES = 3


def run(name: str, seed: int, seconds: float, traced: bool, root: Path, work: Path) -> int:
    work.mkdir(exist_ok=True)
    tracer = Tracer() if traced else None
    wl = WORKLOADS[name](root, work, tracer)
    if tracer is not None:
        tracer.install()

    setup_times = []

    def setup(repeats=1, min_s=0.0):
        if tracer is not None:
            tracer.answer_id = SETUP
        spent = 0.0
        gc.collect()
        gc.disable()
        while repeats > 0 or spent < min_s:
            t0 = time.perf_counter()
            span = tracer.open("setup") if tracer is not None else None
            state = wl.setup(seed)
            if tracer is not None:
                tracer.close(span)
            setup_times.append(time.perf_counter() - t0)
            spent += setup_times[-1]
            repeats -= 1
        gc.enable()
        return state

    state = setup()
    items = wl.items(state)
    if tracer is not None:
        tracer.answer_id = REFERENCE
    wl.prepare(state)

    failed_items: set[int] = set()

    def after_pass(executions):
        failed_items.update(e["item"] for e in executions if "error" in e["payload"])
        setup(SETUP_PER_PASS, SETUP_MIN_S)

    def tail_is_full(executions):
        walls = ok_walls(executions, failed_items)
        return not walls or beyond(walls, wl.tail_pct) >= MIN_BEYOND

    loop = measure(wl, state, items, seconds, tracer, after_pass, tail_is_full)
    peak_rss_mb = wl.peak_rss_mb()

    # Checks run once per distinct answer, on its first execution.
    if tracer is not None:
        tracer.answer_id = CHECK
    check_runs: dict[str, int] = {}
    check_fails: dict[str, int] = {}
    for e in loop["executions"][: len(items)]:
        if e["item"] in failed_items:
            continue
        for check, passed in wl.check(state, items[e["item"]], e["payload"]).items():
            check_runs[check] = check_runs.get(check, 0) + 1
            if not passed:
                check_fails[check] = check_fails.get(check, 0) + 1
                failed_items.add(e["item"])

    executions = loop["executions"]
    attempted = len(executions)
    failed = sum(e["item"] in failed_items for e in executions)
    walls = ok_walls(executions, failed_items)
    correct = not check_fails and bool(walls)
    tail_walls = walls or [e["wall"] for e in executions]
    tail = float(np.percentile(tail_walls, wl.tail_pct))

    if tracer is None:
        metrics = end_to_end(executions, failed_items, setup_times, tail_walls, tail, peak_rss_mb)
    else:
        tracer.uninstall()
        metrics = per_layer(wl, state, items, loop, tracer, root, attempted, failed, len(setup_times))
        trace_path = work / f"trace-{name}.jsonl"
        tracer.write_jsonl(trace_path)

    errors: dict[str, int] = {}
    for e in executions:
        if "error" in e["payload"]:
            key = re.sub(r"\d[\d.e+-]*", "#", e["payload"]["error"])[:160]
            errors[key] = errors.get(key, 0) + 1
    provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "measured_s": loop["measured_s"],
        "trace": int(traced),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "distinct_answers": len(items),
        "passes": loop["passes"],
        "attempted": attempted,
        "failed": failed,
        "percentile_samples": {
            "answer_p50_ms": {"pct": 50, "n": len(tail_walls)},
            "answer_p90_ms": {"pct": wl.tail_pct, "n": len(tail_walls), "beyond": beyond(tail_walls, wl.tail_pct)},
            "setup_s": {"pct": 50, "n": len(setup_times)},
        },
        "checks_run": check_runs,
        "check_failures": check_fails,
        "untyped_errors": errors,
    }
    if traced:
        provenance["trace_file"] = str(trace_path.relative_to(root))
    if name == "cli":
        shutil.rmtree(state["base"], ignore_errors=True)

    print("provenance " + json.dumps(provenance, sort_keys=True))
    for key, value in metrics.items():
        print(f"metric {name} {key} = {value:.6g} {spec.UNITS[key]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": spec.UNITS[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def measure(wl, state, items, seconds: float, tracer, after_pass, tail_is_full) -> dict:
    """Ask every item once per pass until ``seconds`` of passes are measured.

    The run stops when another pass would mostly overrun ``seconds`` and
    ``tail_is_full(executions)`` holds, or at MAX_MEASURE_S. ``after_pass``
    runs after each pass, outside the measured time.
    """
    executions = []
    pass_walls = []
    while True:
        gc.collect()
        p0 = time.perf_counter()
        for k, item in enumerate(items):
            answer_id = len(executions)
            span = None
            if tracer is not None:
                tracer.answer_id = answer_id
                span = tracer.open("answer")
            c0 = wl.cpu_s()
            t0 = time.perf_counter()
            payload = wl.answer(state, item, answer_id)
            wall = time.perf_counter() - t0
            cpu = wl.cpu_s() - c0
            if tracer is not None:
                tracer.close(span)
            if pass_walls:
                payload = {key: payload[key] for key in KEEP_AFTER_FIRST_PASS if key in payload}
            executions.append({"item": k, "payload": payload, "wall": wall, "cpu": cpu})
        pass_walls.append(time.perf_counter() - p0)
        after_pass(executions)
        measured = sum(pass_walls)
        if measured >= MAX_MEASURE_S:
            break
        if measured + 0.5 * statistics.fmean(pass_walls) >= seconds and tail_is_full(executions):
            break
    return {"executions": executions, "passes": len(pass_walls), "measured_s": sum(pass_walls)}


def ok_walls(executions, failed_items) -> list[float]:
    """Wall time of every execution of every answer that did not fail."""
    return [e["wall"] for e in executions if e["item"] not in failed_items]


def beyond(walls, pct: float) -> int:
    """How many of ``walls`` lie above their ``pct`` percentile."""
    cut = float(np.percentile(walls, pct))
    return sum(w > cut for w in walls)


def end_to_end(executions, failed_items, setup_times, walls, tail, peak_rss_mb) -> dict[str, float]:
    """End-to-end metrics.

    Throughput and CPU take each distinct answer's median execution, so a
    few executions slowed by other load on the machine do not move them.
    ``walls`` are the walls of every successful execution (of every one if
    none succeeded); ``tail`` is their tail percentile, in seconds.
    """
    by_item: dict[int, list[dict]] = {}
    for e in executions:
        by_item.setdefault(e["item"], []).append(e)
    wall = [statistics.median(e["wall"] for e in es) for es in by_item.values()]
    cpu = [statistics.median(e["cpu"] for e in es) for es in by_item.values()]
    return {
        "setup_s": statistics.median(setup_times),
        "answers_per_s": (len(by_item) - len(failed_items)) / sum(wall),
        "answer_p50_ms": 1e3 * statistics.median(walls),
        "answer_p90_ms": 1e3 * tail,
        "cpu_ms_per_answer": 1e3 * statistics.fmean(cpu),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(wl, state, items, loop, tracer: Tracer, root: Path, attempted: int, failed: int,
              setups: int) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    Counts ("calls", "_per_answer") cover the first pass, so they repeat
    exactly for a seed; times are per execution over every pass.
    """
    n = len(tracer.start)
    name_idx = np.frombuffer(tracer.name, dtype=np.int32)
    names = np.array(tracer.names)[name_idx]
    start = np.frombuffer(tracer.start, dtype=np.float64)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - start
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    answer = np.frombuffer(tracer.answer, dtype=np.int64)
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    notes = np.array([tracer.notes.get(i, "") for i in range(n)], dtype=object)

    answers_n = len(loop["executions"])
    first = len(items)
    timed = answer >= 0
    in_first = timed & (answer < first)

    # a span is "in allocation" when it or any ancestor is an allocation call
    in_alloc = np.array([s.startswith("allocation.") for s in tracer.names])[name_idx]
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        in_alloc[live] |= in_alloc[anc[live]]
        anc[live] = parent[anc[live]]

    def mask(name, where=timed):
        return where & (names == name)

    def calls(name, where=in_first):
        return float(np.count_nonzero(mask(name, where))) / max(first, 1)

    def self_ms(name):
        return 1e3 * float(self_time[mask(name)].sum()) / max(answers_n, 1)

    def mean_ms(name, where=timed):
        m = mask(name, where)
        return 1e3 * float(dur[m].mean()) if m.any() else 0.0

    def frac(name, pred):
        m = mask(name)
        return float(sum(pred(x) for x in notes[m])) / np.count_nonzero(m) if m.any() else 0.0

    def nfev(name):
        total = sum(int(x.split()[0].split("=")[1]) for x in notes[mask(name)] if x.startswith("nfev="))
        return float(total) / max(answers_n, 1)

    profile_spans = (names == "inference.profile_build") | (names == "inference.profile_from_json")
    outer_profile = profile_spans & ~(has_parent & profile_spans[np.where(has_parent, parent, 0)])
    synth_setup = (answer == SETUP) & np.isin(names, ["synth.synth_runs", "synth.synth_profile"])
    synth_oracle = (answer == CHECK) & np.isin(names, ["synth.serve_simulate", "synth.grid_argmin_loss"])
    process_ms = {}
    if wl.name == "cli":
        for cmd in spec.CLI_COMMANDS:
            walls = [e["payload"]["process_s"] for e in loop["executions"] if e["payload"]["cmd"] == cmd]
            process_ms[cmd] = 1e3 * statistics.fmean(walls)

    import_ms, scipy_ms = import_times(root)
    metrics = {
        "failed_frac": failed / attempted,
        "laws.predict_loss.calls": calls("laws.predict_loss"),
        "laws.predict_loss.self_ms": self_ms("laws.predict_loss"),
        "laws.predict_loss.us_per_call": 1e3 * mean_ms("laws.predict_loss"),
        "inference.interpolate.calls": calls("inference.interpolate"),
        "inference.interpolate.self_ms": self_ms("inference.interpolate"),
        "inference.interpolate.us_per_call": 1e3 * mean_ms("inference.interpolate"),
        "inference.interpolate.extrapolated_frac": frac("inference.interpolate", lambda x: x == "extrapolated"),
        "inference.min_cost_over_gpus.calls": calls("inference.min_cost_over_gpus"),
        "inference.min_cost_over_gpus.self_ms": self_ms("inference.min_cost_over_gpus"),
        "inference.cost_table.calls": calls("inference.cost_table"),
        "inference.no_feasible_frac": frac("inference.min_cost_over_gpus", lambda x: x == "NoFeasibleGpuError"),
        "inference.profile_build_ms": 1e3 * float(dur[outer_profile].mean()) if outer_profile.any() else 0.0,
        "allocation.moe_loss_optimal.calls": calls("allocation.moe_loss_optimal"),
        "allocation.moe_loss_optimal.self_ms": self_ms("allocation.moe_loss_optimal"),
        "allocation.bound_loss_ms": mean_ms("allocation.bound_loss"),
        "allocation.bound_cost_ms": mean_ms("allocation.bound_cost"),
        "allocation.flops_ratio_ms": mean_ms("allocation.flops_ratio"),
        "allocation.frontier_sweep_ms": mean_ms("allocation.frontier_sweep"),
        "allocation.law_evals_per_answer": calls("laws.predict_loss", in_first & in_alloc),
        "allocation.lookups_per_answer": calls("inference.interpolate", in_first & in_alloc),
        "fitting.fit_moe_ms": mean_ms("fitting.fit_moe"),
        "fitting.lbfgs.calls": calls("fitting.lbfgs"),
        "fitting.lbfgs.self_ms": self_ms("fitting.lbfgs"),
        "fitting.lbfgs.nfev": nfev("fitting.lbfgs"),
        "fitting.lbfgs.converged_frac": frac("fitting.lbfgs", lambda x: x.endswith("converged")),
        "fitting.polish.calls": calls("fitting.polish"),
        "fitting.polish.self_ms": self_ms("fitting.polish"),
        "fitting.polish.nfev": nfev("fitting.polish"),
        "synth.setup_ms": 1e3 * float(dur[synth_setup].sum()) / setups,
        "synth.oracle_ms": 1e3 * float(dur[synth_oracle].sum()) / max(answers_n, 1),
        "cli.import_ms": import_ms,
        "cli.import_scipy_ms": scipy_ms,
        "cli.main_ms": mean_ms("cli.main", answer == REFERENCE),
    }
    for cmd in spec.CLI_COMMANDS:
        metrics[f"cli.process_ms.{cmd}"] = process_ms.get(cmd, 0.0)
    metrics["trace.overhead_frac"] = trace_overhead(wl, state, items, loop)
    return metrics


def trace_overhead(wl, state, items, loop) -> float:
    """Traced over untraced wall of the first pass, replayed with tracing off."""
    wl.tracer = None
    replay = 0.0
    for k, item in enumerate(items):
        t0 = time.perf_counter()
        wl.answer(state, item, len(loop["executions"]) + k)
        replay += time.perf_counter() - t0
    traced = sum(e["wall"] for e in loop["executions"][: len(items)])
    return traced / replay - 1.0


def import_times(root: Path) -> tuple[float, float]:
    """Median cumulative import time of moescale and scipy.optimize in a cold process."""
    env = src_env(root)
    totals: dict[str, list[float]] = {"moescale": [], "scipy.optimize": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import moescale"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in totals:
                totals[parts[2]].append(int(parts[1]) / 1e3)
    return tuple(statistics.median(v) if v else 0.0 for v in totals.values())


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"
