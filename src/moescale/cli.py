"""Command-line front-end.

Subcommands wire the library into file-based workflows:

    fit       runs.csv -> params.json (+ fit report)
    predict   params.json + (N, D, E) -> loss, single or batched over CSV
    allocate  budget -> one allocated configuration (optimal / bound modes)
    sweep     budgets x experts -> loss-vs-cost frontier table
    cost      hardware + profile -> per-GPU-count serving cost table
    synth     generate synthetic runs / latency profiles from ground truth
    verify    re-run the analytic-vs-simulation oracle comparisons

Outputs are plain CSV/JSON with no timestamps; identical inputs and seeds
give byte-identical bytes. Exit codes: 0 success, 1 input or parse error,
2 infeasible or unreachable bound, 3 numeric failure.

A JSON file named by the MOESCALE_CONFIG environment variable supplies
per-flag defaults (keys are flag destinations, e.g. "max_starts");
explicit flags always win.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .allocation import (
    SearchConfig,
    dense_optimal,
    frontier_sweep,
    loss_optimal_result,
    min_cost_for_bounded_loss,
    min_loss_for_bounded_cost,
)
from .errors import (
    CostBoundUnreachableError,
    FitFailedError,
    InsufficientMemoryError,
    MissingProfileSliceError,
    NoFeasibleGpuError,
    NonMonotoneBranchError,
    QualityBoundUnreachableError,
    SearchBoundsError,
    UnservableError,
)
from .fitting import FitConfig, fit_dense, fit_moe, runs_from_csv, runs_to_csv
from .inference import (
    GeometryFit,
    HardwareConfig,
    LatencyProfile,
    cost_table,
    fit_geometry,
    max_batch_size,
    min_cost_over_gpus,
    throughput,
)
from .laws import (
    ArchitectureConvention,
    DenseLawParams,
    ScalingLawParams,
    predict_loss,
    predict_loss_dense,
    total_params,
)
from .synth import (
    AffineLatencyModel,
    SynthSpec,
    dense_optimal_numeric,
    serve_simulate,
    synth_profile,
    synth_runs,
)

CONFIG_ENV_VAR = "MOESCALE_CONFIG"

_BOUND_ERRORS = (
    QualityBoundUnreachableError,
    CostBoundUnreachableError,
    NoFeasibleGpuError,
    InsufficientMemoryError,
    UnservableError,
    SearchBoundsError,
)
_NUMERIC_ERRORS = (FitFailedError, NonMonotoneBranchError)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for
    infeasible bounds, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _table_text(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2)
    buf = io.StringIO()
    writer = csv.writer(buf)
    fieldnames = list(rows[0]) if rows else []
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt(row[k]) for k in fieldnames])
    return buf.getvalue()


def _float_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty list")
    return values


def _load_json(path: str) -> dict | list:
    with open(path) as fh:
        return json.load(fh)


def _load_any_params(path: str):
    """params.json holds either law; the dense one is recognized by l0."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object of parameters")
    if "l0" in data:
        return "dense", DenseLawParams.from_dict(data)
    return "moe", ScalingLawParams.from_dict(data)


def _load_moe_params(path: str) -> ScalingLawParams:
    kind, params = _load_any_params(path)
    if kind != "moe":
        raise ValueError(f"{path}: expected expert-law parameters, found dense-law keys")
    return params


def _load_hardware(path: str | None) -> HardwareConfig:
    if path is None:
        return HardwareConfig()
    return HardwareConfig.from_dict(_load_json(path))


def _load_profile(path: str) -> LatencyProfile:
    with open(path) as fh:
        return LatencyProfile.from_json(fh.read())


def _load_geometry(args) -> GeometryFit:
    if args.mu is not None and args.geometry is not None:
        raise ValueError("pass either --mu or --geometry, not both")
    if args.mu is not None:
        return GeometryFit(mu=args.mu)
    if args.geometry is not None:
        rows = []
        with open(args.geometry, newline="") as fh:
            reader = csv.DictReader(fh)
            needed = {"hidden_dim", "n_layers", "n_params"}
            if reader.fieldnames is None or not needed <= set(reader.fieldnames):
                missing = sorted(needed - set(reader.fieldnames or []))
                raise ValueError(f"{args.geometry}: missing columns: {', '.join(missing)}")
            for rec in reader:
                rows.append((float(rec["hidden_dim"]), float(rec["n_layers"]), float(rec["n_params"])))
        return fit_geometry(rows)
    raise ValueError("KV-cache geometry required: pass --mu or --geometry")


def _search_config(args) -> SearchConfig:
    return SearchConfig(rel_tol=args.rel_tol, n_bounds=(args.n_min, args.n_max))


def _arch_config(args) -> ArchitectureConvention:
    return ArchitectureConvention(ffn_fraction=args.ffn_fraction, top_k=args.top_k)


def _add_search_flags(sub):
    sub.add_argument("--rel-tol", type=float, default=1e-6, help="search termination, relative (default 1e-6)")
    sub.add_argument("--n-min", type=float, default=1e5, help="model-size search lower bound (default 1e5)")
    sub.add_argument("--n-max", type=float, default=1e13, help="model-size search upper bound (default 1e13)")


def _add_arch_flags(sub):
    sub.add_argument("--ffn-fraction", type=float, default=1.0 / 3.0,
                     help="fraction of dense parameters replicated per expert (default 1/3)")
    sub.add_argument("--top-k", type=float, default=2.0, help="experts active per token (default 2)")


def _add_serving_flags(sub):
    sub.add_argument("--hardware", metavar="PATH", default=None,
                     help="hardware JSON (defaults: 8x40GiB GPUs, fp16, p=512, n=256)")
    sub.add_argument("--profile", metavar="PATH", required=True, help="latency profile JSON")
    sub.add_argument("--mu", type=float, default=None, help="KV geometry coefficient hl = mu*N^(2/3)")
    sub.add_argument("--geometry", metavar="PATH", default=None,
                     help="CSV of hidden_dim,n_layers,n_params rows to fit mu from")


def _add_output_flags(sub):
    sub.add_argument("-o", "--output", metavar="PATH", default=None, help="write here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="table format (default csv)")


def cmd_fit(args) -> int:
    runs = runs_from_csv(args.runs)
    config = FitConfig(
        huber_delta=args.delta,
        max_starts=args.max_starts,
        rng_seed=args.seed,
        holdout_fraction=args.holdout,
        use_full_grid=args.full_grid,
    )
    if args.dense:
        dense_runs = [r for r in runs if r.experts == 1.0]
        if not dense_runs:
            raise ValueError("--dense: no rows with experts=1")
        report = fit_dense(dense_runs, config)
    else:
        report = fit_moe(runs, config)
    with open(args.params, "w") as fh:
        fh.write(report.params.to_json())
        fh.write("\n")
    if args.report is not None:
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    holdout = repr(report.rmsle_holdout) if report.rmsle_holdout is not None else "n/a"
    print(f"fit: runs={report.n_runs} train={report.n_train} holdout={report.n_holdout} starts={report.starts_run}")
    print(f"objective={report.objective!r} rmsle={report.rmsle!r} rmsle_holdout={holdout}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"wrote {args.params}")
    return 0


def _predict_rows(kind, params, n_dense, d_tokens, experts):
    """Predicted loss for one row of scalars or for whole columns as arrays.

    Dense-law parameters accept only experts == 1.
    """
    if kind == "dense":
        if np.any(experts != 1.0):
            raise ValueError("dense-law parameters only predict experts=1 rows")
        return predict_loss_dense(n_dense, d_tokens, params)
    return predict_loss(n_dense, d_tokens, experts, params)


def cmd_predict(args) -> int:
    kind, params = _load_any_params(args.params)
    if args.csv is not None:
        rows = []
        with open(args.csv, newline="") as fh:
            reader = csv.DictReader(fh)
            needed = {"n_dense", "d_tokens", "experts"}
            if reader.fieldnames is None or not needed <= set(reader.fieldnames):
                missing = sorted(needed - set(reader.fieldnames or []))
                raise ValueError(f"{args.csv}: missing columns: {', '.join(missing)}")
            for rec in reader:
                rows.append(
                    {
                        "n_dense": float(rec["n_dense"]),
                        "d_tokens": float(rec["d_tokens"]),
                        "experts": float(rec["experts"]),
                    }
                )
        columns = [np.array([row[k] for row in rows]) for k in ("n_dense", "d_tokens", "experts")]
        try:
            losses = _predict_rows(kind, params, *columns)
        except ValueError:
            # Re-run row by row so the error is the one the first bad row
            # raises, whatever faults later rows hold.
            for row in rows:
                _predict_rows(kind, params, row["n_dense"], row["d_tokens"], row["experts"])
            raise
        for row, loss in zip(rows, losses.tolist()):
            row["predicted_loss"] = loss
        _emit(_table_text(rows, args.format), args.output)
        return 0
    if args.n is None or args.d is None:
        raise ValueError("pass --n and --d (and --e for expert models), or --csv")
    if kind == "dense":
        if args.e not in (None, 1.0):
            raise ValueError("dense-law parameters only predict experts=1")
        loss = predict_loss_dense(args.n, args.d, params)
    else:
        experts = 1.0 if args.e is None else args.e
        loss = predict_loss(args.n, args.d, experts, params)
    print(repr(float(loss)))
    return 0


def cmd_allocate(args) -> int:
    params = _load_moe_params(args.params)
    hw = _load_hardware(args.hardware)
    profile = _load_profile(args.profile)
    geom = _load_geometry(args)
    search = _search_config(args)
    arch = _arch_config(args)
    e_base = args.e_base
    e_prime = args.e_prime if args.e_prime is not None else e_base
    if args.mode == "optimal":
        result = loss_optimal_result(args.budget, e_prime, params, arch, hw, geom, profile, search)
    elif args.mode == "bound-loss":
        result = min_cost_for_bounded_loss(
            args.budget, e_base, e_prime, params, arch, hw, geom, profile, search,
            target_loss=args.target_loss,
        )
    else:
        result = min_loss_for_bounded_cost(
            args.budget, e_base, e_prime, params, arch, hw, geom, profile, search,
            cost_bound=args.cost_bound,
        )
    row = {"budget": args.budget, "mode": args.mode, **result.to_dict()}
    _emit(_table_text([row], args.format), args.output)
    return 0


def cmd_sweep(args) -> int:
    params = _load_moe_params(args.params)
    hw = _load_hardware(args.hardware)
    profile = _load_profile(args.profile)
    geom = _load_geometry(args)
    rows = frontier_sweep(
        _float_list(args.budgets),
        _float_list(args.experts),
        params,
        _arch_config(args),
        hw,
        geom,
        profile,
        _search_config(args),
    )
    _emit(_table_text(rows, args.format), args.output)
    return 0


def cmd_cost(args) -> int:
    hw = _load_hardware(args.hardware)
    profile = _load_profile(args.profile)
    geom = _load_geometry(args)
    arch = _arch_config(args)
    table = cost_table(args.n, args.e, hw, geom, profile, arch)
    rows = [{"kind": "gpu", **row} for row in table]
    cheapest = min_cost_over_gpus(args.n, args.e, hw, geom, profile, arch)
    rows.append({"kind": "min", **table[cheapest.gpus - 1]})
    _emit(_table_text(rows, args.format), args.output)
    return 0


def cmd_synth_runs(args) -> int:
    truth = _load_moe_params(args.params)
    spec = SynthSpec(
        ground_truth=truth,
        n_dense=tuple(_float_list(args.sizes)),
        d_tokens=tuple(_float_list(args.tokens)),
        experts=tuple(_float_list(args.experts)),
        noise_sigma=args.sigma,
        rng_seed=args.seed,
    )
    runs = synth_runs(spec)
    runs_to_csv(runs, args.output)
    print(f"wrote {len(runs)} runs to {args.output}")
    return 0


def cmd_synth_profile(args) -> int:
    c_prompt = _float_list(args.prompt)
    c_decode = _float_list(args.decode)
    if len(c_prompt) != 3 or len(c_decode) != 3:
        raise ValueError("--prompt and --decode take c0,c1,c2")
    profile = synth_profile(
        AffineLatencyModel(*c_prompt),
        AffineLatencyModel(*c_decode),
        _float_list(args.batches),
        _float_list(args.models),
        [int(g) for g in _float_list(args.gpus)],
    )
    with open(args.output, "w") as fh:
        fh.write(profile.to_json())
        fh.write("\n")
    print(f"wrote {len(profile.samples)} samples to {args.output}")
    return 0


def cmd_verify(args) -> int:
    hw = _load_hardware(args.hardware)
    profile = _load_profile(args.profile)
    geom = _load_geometry(args)
    arch = _arch_config(args)
    failures = 0

    # serving model vs token-level simulation; agreement needs the
    # steady-batching regime (batch comfortably above output_len), so probe
    # the largest size per (experts, gpus) that still clears that bar
    floor_batch = max(128.0, float(hw.output_len))
    worst = 0.0
    checked = 0
    for experts in (1.0, 4.0, 8.0, 32.0):
        for gpus in profile.gpu_counts():
            expansion = 1.0 + (experts - 1.0) * arch.ffn_fraction
            n_hi = gpus * hw.gpu_mem_bytes / hw.dtype_bytes / expansion
            candidates = np.geomspace(1e6, 0.95 * n_hi, 24)[::-1]
            n_dense = None
            for n in candidates:
                try:
                    if max_batch_size(total_params(n, experts, arch), n, gpus, hw, geom) >= floor_batch:
                        n_dense = float(n)
                        break
                except InsufficientMemoryError:
                    continue
            if n_dense is None:
                continue
            try:
                analytic = throughput(n_dense, experts, gpus, hw, geom, profile, arch)
                sim = serve_simulate(n_dense, experts, gpus, hw, geom, profile, arch, steps=args.steps)
            except MissingProfileSliceError:
                continue
            if sim.tokens_per_second <= 0 or not sim.warmed_up:
                continue
            rel = abs(sim.tokens_per_second - analytic) / analytic
            worst = max(worst, rel)
            checked += 1
    if checked == 0:
        print("[FAIL] throughput: no servable configurations to check")
        failures += 1
    elif worst <= 0.01:
        print(f"[PASS] throughput: simulation within 1% of analytic on {checked} configs (worst {worst!r})")
    else:
        print(f"[FAIL] throughput: worst simulation gap {worst!r} exceeds 1% over {checked} configs")
        failures += 1

    # dense closed form vs numeric minimizer on seeded random draws
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(20):
        dp = DenseLawParams(
            l0=float(rng.uniform(0.5, 2.0)),
            coef_N=float(rng.uniform(100.0, 600.0)),
            coef_D=float(rng.uniform(100.0, 600.0)),
            alpha=float(rng.uniform(0.3, 0.5)),
            beta=float(rng.uniform(0.3, 0.5)),
        )
        budget = float(rng.uniform(1e18, 1e21))
        n_closed, _ = dense_optimal(budget, dp)
        n_numeric, _ = dense_optimal_numeric(budget, dp)
        worst = max(worst, abs(n_closed - n_numeric) / n_closed)
    if worst <= 1e-3:
        print(f"[PASS] dense optimum: closed form within 1e-3 of numeric minimizer (worst {worst!r})")
    else:
        print(f"[FAIL] dense optimum: closed form differs from numeric by {worst!r}")
        failures += 1

    return 3 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moescale",
        description="Fit expert-model scaling laws, price inference, allocate training budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND", parser_class=_Parser)

    p = sub.add_parser("fit", help="fit law parameters to training runs")
    p.add_argument("--runs", metavar="PATH", required=True, help="CSV of n_dense,d_tokens,experts,val_loss")
    p.add_argument("--params", metavar="PATH", required=True, help="where to write fitted parameters (JSON)")
    p.add_argument("--report", metavar="PATH", default=None, help="also write the full fit report (JSON)")
    p.add_argument("--dense", action="store_true", help="fit the dense law on the experts=1 rows only")
    p.add_argument("--max-starts", type=int, default=512, help="multi-start budget (default 512)")
    p.add_argument("--seed", type=int, default=0, help="start sampling / holdout split seed (default 0)")
    p.add_argument("--holdout", type=float, default=0.2, help="held-out fraction for reporting (default 0.2)")
    p.add_argument("--delta", type=float, default=1e-3, help="robust-loss width in log space (default 1e-3)")
    p.add_argument("--full-grid", action="store_true", help="run every grid start instead of sampling")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="evaluate a fitted law")
    p.add_argument("--params", metavar="PATH", required=True, help="fitted parameters JSON")
    p.add_argument("--n", type=float, default=None, help="dense-equivalent parameter count")
    p.add_argument("--d", type=float, default=None, help="training tokens")
    p.add_argument("--e", type=float, default=None, help="expert count (>= 1)")
    p.add_argument("--csv", metavar="PATH", default=None, help="batch mode: CSV of n_dense,d_tokens,experts")
    _add_output_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("allocate", help="allocate one training budget")
    p.add_argument("--params", metavar="PATH", required=True, help="fitted parameters JSON")
    p.add_argument("--budget", type=float, required=True, help="training budget in FLOPs")
    p.add_argument("--mode", choices=("optimal", "bound-loss", "bound-cost"), default="optimal")
    p.add_argument("--e-base", type=float, default=1.0, help="reference expert count (default 1)")
    p.add_argument("--e-prime", type=float, default=None, help="expert count to allocate (default: e-base)")
    p.add_argument("--target-loss", type=float, default=None,
                   help="bound-loss: explicit loss bound instead of the e-base optimum")
    p.add_argument("--cost-bound", type=float, default=None,
                   help="bound-cost: explicit cost bound instead of the e-base optimum")
    _add_serving_flags(p)
    _add_search_flags(p)
    _add_arch_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("sweep", help="loss-vs-cost frontier over budgets and experts")
    p.add_argument("--params", metavar="PATH", required=True, help="fitted parameters JSON")
    p.add_argument("--budgets", required=True, help="comma-separated budgets in FLOPs")
    p.add_argument("--experts", required=True, help="comma-separated expert counts")
    _add_serving_flags(p)
    _add_search_flags(p)
    _add_arch_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cost", help="serving cost table for one model")
    p.add_argument("--n", type=float, required=True, help="dense-equivalent parameter count")
    p.add_argument("--e", type=float, default=1.0, help="expert count (default 1)")
    _add_serving_flags(p)
    _add_arch_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("synth", help="generate synthetic inputs")
    synth_sub = p.add_subparsers(dest="synth_command", required=True, metavar="WHAT", parser_class=_Parser)

    q = synth_sub.add_parser("runs", help="training runs from a ground-truth law")
    q.add_argument("--params", metavar="PATH", required=True, help="ground-truth parameters JSON")
    q.add_argument("--sizes", required=True, help="comma-separated dense sizes")
    q.add_argument("--tokens", required=True, help="comma-separated token counts")
    q.add_argument("--experts", required=True, help="comma-separated expert counts")
    q.add_argument("--sigma", type=float, default=0.0, help="log-normal noise scale (default 0)")
    q.add_argument("--seed", type=int, default=0, help="noise seed (default 0)")
    q.add_argument("-o", "--output", metavar="PATH", required=True, help="runs CSV to write")
    q.set_defaults(func=cmd_synth_runs)

    q = synth_sub.add_parser("profile", help="affine latency profile")
    q.add_argument("--prompt", required=True, metavar="C0,C1,C2", help="prompt-stage affine coefficients")
    q.add_argument("--decode", required=True, metavar="C0,C1,C2", help="decode-stage affine coefficients")
    q.add_argument("--batches", default="1,64,512,4096", help="batch grid (default 1,64,512,4096)")
    q.add_argument("--models", default="1e8,1e9,1e10,1e11", help="model-bytes grid (default 1e8..1e11)")
    q.add_argument("--gpus", default="1,2,3,4,5,6,7,8", help="gpu counts (default 1..8)")
    q.add_argument("-o", "--output", metavar="PATH", required=True, help="profile JSON to write")
    q.set_defaults(func=cmd_synth_profile)

    p = sub.add_parser("verify", help="run the built-in oracle comparisons")
    _add_serving_flags(p)
    _add_arch_flags(p)
    p.add_argument("--seed", type=int, default=0, help="random-draw seed (default 0)")
    p.add_argument("--steps", type=int, default=4096, help="simulation steps (default 4096)")
    p.set_defaults(func=cmd_verify)

    return parser


def _apply_config_defaults(parser: argparse.ArgumentParser):
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a flat JSON object")
    known = set()
    stack = [parser]
    while stack:
        current = stack.pop()
        for action in current._actions:
            known.add(action.dest)
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
        current.set_defaults(**{k: v for k, v in data.items() if k in {a.dest for a in current._actions}})
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        _apply_config_defaults(parser)
        args = parser.parse_args(argv)
        return args.func(args)
    except _BOUND_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
