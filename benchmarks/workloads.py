"""The workloads: what one answer is, and how each answer is checked.

Each workload is a closed loop with one client: the next answer is asked
only after the previous one returns. A run generates a fixed set of
distinct answers from its seed (a plan block covers every expert pair on
both profiles; a cli rotation runs the nine commands once) and asks the
whole set again in passes until its time is up. Checks run after the timed
loop, on the first pass.

An answer fails when it raises an untyped exception, fails its check, or
(cli) exits with another code than 0, 2 or 3. A typed ``MoescaleError``
(exit code 2 or 3 from the CLI) is a correct infeasible answer.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import moescale as ms
import moescale.cli  # noqa: F401  (binds ms.cli for the in-process reference calls)
from moescale import MoescaleError
from spec import CLI_COMMANDS
from tracer import read_jsonl

CHILD_TIMEOUT_S = 120
THROUGHPUT_RTOL = 0.01
CLI_POINTS = 10_000
CLI_FIT_STARTS = 48


def _cpu_self() -> float:
    return time.process_time()


def _rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _rss_children_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Workload:
    name = ""
    # Tail percentile reported as answer_p90_ms, over every execution of
    # every successful answer. The harness measures until at least ten
    # executions lie beyond it.
    tail_pct = 90.0
    cpu_s = staticmethod(_cpu_self)
    peak_rss_mb = staticmethod(_rss_self_mb)

    def __init__(self, root: Path, work: Path, tracer=None):
        self.root = root
        self.work = work
        self.tracer = tracer

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def prepare(self, state: dict) -> None:
        """Work done once after set-up and outside every timed region."""

    def items(self, state: dict) -> list:
        """The distinct answers one pass asks, in order."""
        raise NotImplementedError

    def answer(self, state: dict, item, answer_id: int) -> dict:
        raise NotImplementedError

    def check(self, state: dict, item, payload: dict) -> dict[str, bool]:
        raise NotImplementedError


class Plan(Workload):
    """Six planning calls per answer for one seeded (budget, E_base, E_prime)."""

    name = "plan"
    # 12 to 14 of 20 sessions succeed; a default run makes five or more
    # passes, 60 to 70 samples, 12 to 14 of them beyond p80.
    tail_pct = 80.0

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        return {
            "hw": ms.HardwareConfig(),
            "geom": ms.fit_geometry(inputs.GEOMETRY_ROWS),
            "profiles": (inputs.affine_profile(), inputs.measured_profile(rng)),
            "block": inputs.plan_block(rng),
        }

    def items(self, state):
        return state["block"]

    def answer(self, state, item, answer_id):
        budget, e_base, e_prime, which = item
        hw, geom, profile = state["hw"], state["geom"], state["profiles"][which]
        serving = {"hw": hw, "geom": geom, "profile": profile}
        out = {"typed": {}, "errors": {}}

        def call(key, fn):
            try:
                out[key] = fn()
            except MoescaleError as exc:
                out["typed"][key] = type(exc).__name__
            except Exception as exc:  # an untyped escape is the failure being counted
                out["errors"][key] = f"{type(exc).__name__}: {exc}"

        truth = inputs.TRUTH
        call("optimal", lambda: ms.loss_optimal_result(budget, e_prime, truth, **serving))
        if "optimal" in out:
            n_opt = out["optimal"].n_dense
            call("cost_table", lambda: ms.cost_table(n_opt, e_prime, hw, geom, profile))
        call("bound_loss", lambda: ms.min_cost_for_bounded_loss(budget, e_base, e_prime, truth, **serving))
        call("bound_cost", lambda: ms.min_loss_for_bounded_cost(budget, e_base, e_prime, truth, **serving))
        call("flops_ratio", lambda: ms.flops_ratio_to_match(budget, e_base, e_prime, truth))
        call("sweep", lambda: ms.frontier_sweep([budget], [e_base, e_prime], truth, curve_points=64, **serving))
        if out["errors"]:
            out["error"] = "; ".join(f"{k}: {v}" for k, v in out["errors"].items())
        return out

    def check(self, state, item, payload):
        budget, e_base, e_prime, which = item
        hw, geom, profile = state["hw"], state["geom"], state["profiles"][which]
        truth = inputs.TRUTH
        checks = {}
        optimal = payload.get("optimal")
        if optimal is not None:
            lo, hi = ms.SearchConfig().n_bounds
            grid = 4096
            step = math.log(hi / lo) / (grid - 1)
            n_grid, loss_grid = ms.grid_argmin_loss(budget, e_prime, truth, n_bounds=(lo, hi), grid_size=grid)
            checks["plan.optimum_vs_grid"] = (
                abs(math.log(optimal.n_dense / n_grid)) <= step * (1.0 + 1e-9)
                and optimal.predicted_loss <= loss_grid * (1.0 + 1e-12)
            )
        sims = []
        for result in (optimal, payload.get("bound_loss")):
            if result is None:
                continue
            n_total = ms.total_params(result.n_dense, result.experts)
            batch = ms.max_batch_size(n_total, result.n_dense, result.best_gpus, hw, geom)
            if batch < max(128.0, float(hw.output_len)):
                continue
            analytic = ms.throughput(result.n_dense, result.experts, result.best_gpus, hw, geom, profile)
            sim = ms.serve_simulate(result.n_dense, result.experts, result.best_gpus, hw, geom, profile)
            sims.append(sim.warmed_up and abs(sim.tokens_per_second - analytic) <= THROUGHPUT_RTOL * analytic)
        if sims:
            checks["plan.throughput_vs_sim"] = all(sims)
        bound_loss = payload.get("bound_loss")
        if bound_loss is not None:
            _, _, target = ms.moe_loss_optimal(budget, e_base, truth)
            checks["plan.bound_loss_meets_target"] = bound_loss.predicted_loss <= target * (1.0 + 1e-12)
        return checks


class Cli(Workload):
    """One cold ``python -m moescale`` process per answer, nine commands in rotation."""

    name = "cli"
    # A default run makes five or more rotations of the nine commands:
    # 45 samples or more, 13 or more beyond p70. Each command is a ninth of
    # the samples and the two slowest are far above the rest, so p75 would
    # sit on that gap and jump; p70 sits among the third slowest's samples.
    tail_pct = 70.0
    cpu_s = staticmethod(_cpu_children)
    peak_rss_mb = staticmethod(_rss_children_mb)

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        base = self.work / "cli"
        src = base / "inputs"
        shutil.rmtree(src, ignore_errors=True)
        src.mkdir(parents=True)
        (src / "params.json").write_text(inputs.TRUTH.to_json() + "\n")
        (src / "profile.json").write_text(inputs.affine_profile().to_json() + "\n")
        (src / "hardware.json").write_text(ms.HardwareConfig().to_json() + "\n")
        rows = ["hidden_dim,n_layers,n_params"] + [f"{h!r},{l!r},{n!r}" for h, l, n in inputs.GEOMETRY_ROWS]
        (src / "geometry.csv").write_text("\n".join(rows) + "\n")
        ms.runs_to_csv(inputs.fit_runs(int(rng.integers(0, 2**31))), src / "runs.csv")
        n = np.exp(rng.uniform(math.log(1e8), math.log(1e10), CLI_POINTS))
        d = np.exp(rng.uniform(math.log(1e9), math.log(1e11), CLI_POINTS))
        e = rng.choice(inputs.EXPERT_CHOICES, CLI_POINTS).astype(float)
        lines = ["n_dense,d_tokens,experts"] + [f"{a!r},{b!r},{c!r}" for a, b, c in zip(n.tolist(), d.tolist(), e.tolist())]
        (src / "points.csv").write_text("\n".join(lines) + "\n")

        i = "../../inputs/"
        params = ["--params", i + "params.json"]
        serving = ["--profile", i + "profile.json", "--geometry", i + "geometry.csv", "--hardware", i + "hardware.json"]
        budget = inputs.log_uniform(rng, 1e19, 1e21)
        e_base, e_prime = inputs.EXPERT_PAIRS[int(rng.integers(len(inputs.EXPERT_PAIRS)))]
        pair = ["--e-base", str(e_base), "--e-prime", str(e_prime)]
        point = [inputs.log_uniform(rng, 1e8, 1e10), inputs.log_uniform(rng, 1e9, 1e11)]
        experts = [int(rng.choice(inputs.EXPERT_CHOICES)) for _ in range(2)]
        n_cost = inputs.log_uniform(rng, 1e8, 1e10)
        jitter = rng.uniform(0.9, 1.1, size=6)
        prompt, decode = inputs.PROMPT_MODEL, inputs.DECODE_MODEL
        coefs = [float(c * j) for c, j in zip((prompt.c0, prompt.c1, prompt.c2, decode.c0, decode.c1, decode.c2), jitter)]
        argv = {
            "predict": ["predict", *params, "--n", repr(point[0]), "--d", repr(point[1]), "--e", str(experts[0])],
            "predict_csv": ["predict", *params, "--csv", i + "points.csv", "-o", "predicted.csv"],
            "cost": ["cost", "--n", repr(n_cost), "--e", str(experts[1]), *serving],
            "allocate_optimal": ["allocate", *params, "--budget", repr(budget), "--mode", "optimal", *pair, *serving],
            "allocate_bound_loss": ["allocate", *params, "--budget", repr(budget), "--mode", "bound-loss", *pair, *serving],
            "allocate_bound_cost": ["allocate", *params, "--budget", repr(budget), "--mode", "bound-cost", *pair, *serving],
            "sweep": ["sweep", *params, "--budgets", repr(budget), "--experts", f"{e_base},{e_prime}", *serving, "-o", "sweep.csv"],
            "synth_profile": [
                "synth", "profile",
                "--prompt", ",".join(repr(c) for c in coefs[:3]),
                "--decode", ",".join(repr(c) for c in coefs[3:]),
                "-o", "profile_out.json",
            ],
            "fit": ["fit", "--runs", i + "runs.csv", "--params", "fitted.json", "--report", "fit_report.json",
                    "--max-starts", str(CLI_FIT_STARTS)],
        }
        return {"base": base, "commands": [(cmd, argv[cmd]) for cmd in CLI_COMMANDS]}

    def prepare(self, state):
        """The same calls through in-process ``moescale.cli.main``: the reference outputs."""
        for sub in ("ref", "answers"):
            shutil.rmtree(state["base"] / sub, ignore_errors=True)
        refs = {}
        here = Path.cwd()
        for cmd, argv in state["commands"]:
            out_dir = state["base"] / "ref" / cmd
            out_dir.mkdir(parents=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            os.chdir(out_dir)
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = ms.cli.main(argv)
            finally:
                os.chdir(here)
            refs[cmd] = (code, stdout.getvalue().encode(), _read_files(out_dir))
        state["refs"] = refs

    def items(self, state):
        return list(state["commands"])

    def answer(self, state, item, answer_id):
        cmd, argv = item
        out_dir = state["base"] / "answers" / str(answer_id)
        out_dir.mkdir(parents=True)
        env = src_env(self.root)
        if self.tracer is None:
            full = [sys.executable, "-m", "moescale", *argv]
        else:
            spans = state["base"] / "answers" / f"spans-{answer_id}.jsonl"
            full = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans), *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(full, cwd=out_dir, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
        payload = {"cmd": cmd, "process_s": time.perf_counter() - t0, "code": proc.returncode,
                   "stdout": proc.stdout, "dir": out_dir}
        if proc.returncode not in (0, 2, 3):
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            payload["error"] = f"exit {proc.returncode}: {' '.join(tail)}"
        if self.tracer is not None and spans.exists():
            self.tracer.extend(read_jsonl(spans), parent=self.tracer.current, answer=answer_id)
        return payload

    def check(self, state, item, payload):
        code, stdout, files = state["refs"][payload["cmd"]]
        same = payload["code"] == code and payload["stdout"] == stdout and _read_files(payload["dir"]) == files
        return {"cli.matches_in_process": same}


def src_env(root: Path) -> dict[str, str]:
    """Environment for a child process that imports moescale from the checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def _read_files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


WORKLOADS = {w.name: w for w in (Plan, Cli)}
