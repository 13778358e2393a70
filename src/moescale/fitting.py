"""Robust fitting of the loss laws to observed training runs.

The objective is a Huber loss on log-space residuals, minimized by L-BFGS-B
from a grid of initializations (sampled when the full grid is too large).
Expert anchors are fitted through the smooth reparameterization
``e_start = 1 + exp(u)``, ``e_max = e_start + exp(v)`` so their ordering
constraints hold by construction. Each law has one kernel returning its
log-space residuals and their Jacobian; the Huber gradient is
``J^T clip(r, ±delta)`` from that kernel, and the trust-region polish calls
the same kernel for its residuals and Jacobian.

Runs are canonically sorted before anything touches them, which makes the
holdout split, the objective value, and the fitted parameters bitwise
invariant to the order rows arrive in (at a fixed ``rng_seed``).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.optimize import least_squares, minimize

from .errors import FitFailedError, IdentifiabilityWarning
from .laws import (
    DenseLawParams,
    ScalingLawParams,
    _effective_experts_core,
    predict_loss,
    predict_loss_dense,
)

__all__ = [
    "TrainingRun",
    "FitConfig",
    "StartDiagnostic",
    "FitReport",
    "huber",
    "objective",
    "rmsle",
    "rmsle_dense",
    "fit_moe",
    "fit_dense",
    "runs_from_csv",
    "runs_to_csv",
    "default_grid_spec",
]

RUNS_CSV_COLUMNS = ("n_dense", "d_tokens", "experts", "val_loss")

# Objective value signalling a nonpositive loss bracket; large enough to lose
# against any sane fit, finite so the line search can walk back out.
_PENALTY_BASE = 1.0e9
_BRACKET_FLOOR = 1.0e-12


@dataclass(frozen=True)
class TrainingRun:
    """One observed training run."""

    n_dense: float
    d_tokens: float
    experts: float
    val_loss: float

    def __post_init__(self):
        if not self.n_dense > 0:
            raise ValueError("n_dense must be positive")
        if not self.d_tokens > 0:
            raise ValueError("d_tokens must be positive")
        if not self.experts >= 1:
            raise ValueError("experts must be >= 1")
        if not self.val_loss > 0:
            raise ValueError("val_loss must be positive")


def default_grid_spec() -> dict[str, tuple[float, ...]]:
    """Initialization grid for the multi-start search.

    Exponents start on {0, .5, ..., 2}; coefficient axes are natural-log
    initializations (the coefficient starts at exp(value)); the interaction
    coefficient starts on the same coarse ladder as the log-coefficients and
    the irreducible term on {-1, ..., 1}.
    """
    exponents = (0.0, 0.5, 1.0, 1.5, 2.0)
    log_coefs = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    return {
        "alpha": exponents,
        "beta": exponents,
        "gamma": exponents,
        "log_coef_n": log_coefs,
        "log_coef_e": log_coefs,
        "log_coef_d": log_coefs,
        "interaction": log_coefs,
        "irreducible": (-1.0, -0.5, 0.0, 0.5, 1.0),
    }


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the fitting procedure.

    Attributes:
        huber_delta: residual scale where the loss switches from quadratic
            to linear.
        grid_spec: per-parameter initialization values (see
            :func:`default_grid_spec`).
        max_starts: number of grid points sampled (without replacement) when
            the full grid is larger; ``use_full_grid`` overrides.
        rng_seed: seed driving the holdout split and the start sample.
        convergence_tol: objective-change tolerance handed to the local
            minimizer.
        max_iterations: iteration cap per start.
        holdout_fraction: share of runs held out of the objective and scored
            separately; 0 disables the split.
        e_start_init: initial one-expert anchor, > 1 (shared by all starts).
        e_max_init: initial saturation anchor, > e_start_init.
        use_full_grid: run every grid point instead of sampling.
    """

    huber_delta: float = 1.0e-3
    grid_spec: dict[str, tuple[float, ...]] = field(default_factory=default_grid_spec)
    max_starts: int = 512
    rng_seed: int = 0
    convergence_tol: float = 1.0e-9
    max_iterations: int = 1000
    holdout_fraction: float = 0.2
    e_start_init: float = 1.5
    e_max_init: float = 64.0
    use_full_grid: bool = False

    def __post_init__(self):
        if not self.huber_delta > 0:
            raise ValueError("huber_delta must be positive")
        if self.max_starts < 1:
            raise ValueError("max_starts must be >= 1")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must lie in [0, 1)")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.e_start_init > 1.0:
            raise ValueError("e_start_init must exceed 1")
        if not self.e_max_init > self.e_start_init:
            raise ValueError("e_max_init must exceed e_start_init")
        missing = set(default_grid_spec()) - set(self.grid_spec)
        if missing:
            raise ValueError(f"grid_spec missing axes: {', '.join(sorted(missing))}")
        for name, values in self.grid_spec.items():
            if len(values) == 0:
                raise ValueError(f"grid_spec axis {name!r} is empty")


@dataclass(frozen=True)
class StartDiagnostic:
    """Per-start record: where the search began and where it ended."""

    index: int
    init: dict[str, float]
    initial_objective: float
    final_objective: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "init": dict(self.init),
            "initial_objective": self.initial_objective,
            "final_objective": self.final_objective,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class FitReport:
    """Outcome of :func:`fit_moe` or :func:`fit_dense`."""

    params: ScalingLawParams | DenseLawParams
    objective: float
    rmsle: float
    rmsle_holdout: float | None
    n_runs: int
    n_train: int
    n_holdout: int
    starts_run: int
    per_start: tuple[StartDiagnostic, ...]
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "objective": self.objective,
            "rmsle": self.rmsle,
            "rmsle_holdout": self.rmsle_holdout,
            "n_runs": self.n_runs,
            "n_train": self.n_train,
            "n_holdout": self.n_holdout,
            "starts_run": self.starts_run,
            "per_start": [s.to_dict() for s in self.per_start],
            "notes": list(self.notes),
        }


def huber(residuals, delta: float):
    """Elementwise Huber loss: quadratic within ``delta``, linear outside.

    huber(r) = r^2/2 for |r| <= delta, and delta*(|r| - delta/2) beyond.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    r = np.asarray(residuals, dtype=float)
    a = np.abs(r)
    out = np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))
    if np.ndim(residuals) == 0:
        return float(out)
    return out


def _sorted_runs(runs: Sequence[TrainingRun]) -> list[TrainingRun]:
    return sorted(runs, key=lambda r: (r.n_dense, r.d_tokens, r.experts, r.val_loss))


def _run_arrays(runs: Sequence[TrainingRun]):
    n = np.array([r.n_dense for r in runs], dtype=float)
    d = np.array([r.d_tokens for r in runs], dtype=float)
    e = np.array([r.experts for r in runs], dtype=float)
    y = np.log(np.array([r.val_loss for r in runs], dtype=float))
    return np.log(n), np.log(d), e, y


class _LawEval(NamedTuple):
    """One law evaluated at a raw parameter vector over a set of runs.

    ``resid`` and ``jac`` are the log-space residuals and their Jacobian,
    both zero on runs outside ``valid``; ``bracket`` and ``bracket_jac`` are
    the additive bracket and its Jacobian on every run.
    """

    resid: np.ndarray
    jac: np.ndarray
    bracket: np.ndarray
    bracket_jac: np.ndarray
    valid: np.ndarray


def _moe_kernel(theta, x, z, e, y) -> _LawEval:
    """The expert-aware law at theta = (alpha, beta, gamma, log coef_N,
    log coef_E, log coef_D, interaction, irreducible, u, v), with
    e_start = 1 + exp(u) and e_max = e_start + exp(v)."""
    alpha, beta, gamma, a_n, a_e, a_d, d_int, f, u, v = theta
    e_start = 1.0 + math.exp(u)
    gap = math.exp(v)
    e_max = e_start + gap
    e_hat = _effective_experts_core(e, e_start, e_max, gap)
    w = np.log(e_hat)
    t_n = np.exp(a_n - alpha * x)
    t_e = np.exp(a_e - beta * w)
    t_d = np.exp(a_d - gamma * z)
    bracket = t_n + t_e + t_d + f
    valid = bracket > _BRACKET_FLOOR

    # d(log Ehat)/d(e_start) and d(log Ehat)/d(e_max), exact at e == 1 too,
    # chained through u and v.
    spread = e_start * e_max / gap
    p = e - 1.0 + spread
    dw_des = e_hat * spread**2 / (p**2 * e_start**2)
    dw_dem = e_hat * (1.0 / e_max**2 - spread**2 / (p**2 * e_max**2))
    dw_du = (dw_des + dw_dem) * (e_start - 1.0)
    dw_dv = dw_dem * gap
    db_dw = -beta * t_e
    # Built transposed: one row per parameter.
    bracket_jt = np.array(
        [
            -x * t_n,
            -w * t_e,
            -z * t_d,
            t_n,
            t_e,
            t_d,
            np.zeros_like(x),
            np.ones_like(x),
            db_dw * dw_du,
            db_dw * dw_dv,
        ]
    )

    safe_bracket = np.where(valid, bracket, 1.0)
    resid = np.where(valid, np.log(safe_bracket) + d_int * x * w - y, 0.0)
    # d(log bracket) plus the interaction term d_int * log N * log Ehat,
    # which reaches u and v through log Ehat.
    inv_b = 1.0 / safe_bracket
    jt = bracket_jt * inv_b
    jt[6] = x * w
    dr_dw = db_dw * inv_b + d_int * x
    jt[8] = dr_dw * dw_du
    jt[9] = dr_dw * dw_dv
    jt[:, ~valid] = 0.0
    return _LawEval(resid, jt.T, bracket, bracket_jt.T, valid)


def _dense_kernel(theta, x, z, e, y) -> _LawEval:
    """The dense law at theta = (alpha, beta, log coef_N, log coef_D, l0);
    ``e`` is unused."""
    alpha, beta, a_n, a_d, l0 = theta
    t_n = np.exp(a_n - alpha * x)
    t_d = np.exp(a_d - beta * z)
    bracket = t_n + t_d + l0
    bracket_jt = np.array([-x * t_n, -z * t_d, t_n, t_d, np.ones_like(x)])
    # l0 is bounded >= 0, so the bracket stays positive and even a tiny one
    # keeps its true log residual.
    return _LawEval(np.log(bracket) - y, (bracket_jt * (1.0 / bracket)).T, bracket, bracket_jt.T, bracket > 0)


def _objective_grad(ev: _LawEval, delta: float) -> tuple[float, np.ndarray]:
    """Huber objective sum(huber(r, delta)) and its gradient J^T clip(r, ±delta).

    Parameter points driving any run's additive bracket to the floor get a
    large finite penalty instead, whose gradient (minus the violating runs'
    summed bracket Jacobian) pushes those brackets back up.
    """
    if not ev.valid.all():
        bad = ~ev.valid
        obj = _PENALTY_BASE + float(np.sum(_BRACKET_FLOOR - ev.bracket[bad]))
        return obj, -ev.bracket_jac[bad].sum(axis=0)
    return float(np.sum(huber(ev.resid, delta))), ev.jac.T @ np.clip(ev.resid, -delta, delta)


def objective(params: ScalingLawParams, runs: Sequence[TrainingRun], config: FitConfig | None = None) -> float:
    """Huber objective of the expert-aware law over a set of runs.

    Sum over runs of huber(log predicted - log observed). Points where the
    additive bracket is nonpositive return a large finite penalty rather
    than raising, so search code can keep moving.
    """
    cfg = config or FitConfig()
    if len(runs) == 0:
        raise ValueError("runs must be non-empty")
    ev = _moe_kernel(_theta_from_params(params), *_run_arrays(_sorted_runs(runs)))
    return _objective_grad(ev, cfg.huber_delta)[0]


def _theta_from_params(params: ScalingLawParams) -> np.ndarray:
    e_start = max(params.e_start, 1.0 + 1.0e-300)
    return np.array(
        [
            params.alpha,
            params.beta,
            params.gamma,
            math.log(params.coef_N),
            math.log(params.coef_E),
            math.log(params.coef_D),
            params.interaction,
            params.irreducible,
            math.log(e_start - 1.0) if e_start > 1.0 else -745.0,
            math.log(params.e_max - e_start),
        ]
    )


def _params_from_theta(theta: np.ndarray) -> ScalingLawParams:
    alpha, beta, gamma, a_n, a_e, a_d, d_int, f, u, v = theta
    e_start = 1.0 + math.exp(u)
    return ScalingLawParams(
        coef_N=math.exp(a_n),
        coef_E=math.exp(a_e),
        coef_D=math.exp(a_d),
        irreducible=float(f),
        alpha=float(alpha),
        beta=float(beta),
        gamma=float(gamma),
        interaction=float(d_int),
        e_start=e_start,
        e_max=e_start + math.exp(v),
    )


def _dense_params_from_theta(theta: np.ndarray) -> DenseLawParams:
    alpha, beta, a_n, a_d, l0 = theta
    return DenseLawParams(
        l0=float(l0),
        coef_N=math.exp(a_n),
        coef_D=math.exp(a_d),
        alpha=float(alpha),
        beta=float(beta),
    )


def rmsle(params: ScalingLawParams, runs: Sequence[TrainingRun]) -> float:
    """Root-mean-square log-loss error of the law over a set of runs."""
    if len(runs) == 0:
        raise ValueError("runs must be non-empty")
    n = np.array([r.n_dense for r in runs])
    d = np.array([r.d_tokens for r in runs])
    e = np.array([r.experts for r in runs])
    y = np.log([r.val_loss for r in runs])
    pred = np.log(predict_loss(n, d, e, params))
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def rmsle_dense(params: DenseLawParams, runs: Sequence[TrainingRun]) -> float:
    """Root-mean-square log-loss error of the dense law over a set of runs."""
    if len(runs) == 0:
        raise ValueError("runs must be non-empty")
    n = np.array([r.n_dense for r in runs])
    d = np.array([r.d_tokens for r in runs])
    y = np.log([r.val_loss for r in runs])
    pred = np.log(predict_loss_dense(n, d, params))
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def _identifiability_notes(runs: Sequence[TrainingRun], axes: dict[str, str], minimum: int) -> list[str]:
    notes = []
    if len(runs) < minimum:
        notes.append(f"only {len(runs)} runs supplied; at least {minimum} recommended")
    degenerate = [
        label
        for attr, label in axes.items()
        if len({getattr(r, attr) for r in runs}) < 2
    ]
    if degenerate:
        notes.append(
            "degenerate design, exponents unidentifiable along: " + ", ".join(degenerate)
        )
    return notes


def _split_runs(runs: list[TrainingRun], cfg: FitConfig, rng: np.random.Generator):
    n_hold = int(round(cfg.holdout_fraction * len(runs)))
    if n_hold == 0:
        return runs, []
    perm = rng.permutation(len(runs))
    hold_idx = set(perm[:n_hold].tolist())
    train = [r for i, r in enumerate(runs) if i not in hold_idx]
    hold = [r for i, r in enumerate(runs) if i in hold_idx]
    if not train:
        raise ValueError("holdout_fraction leaves no training runs")
    return train, hold


def _sample_start_ids(sizes: tuple[int, ...], cfg: FitConfig, rng: np.random.Generator) -> np.ndarray:
    total = math.prod(sizes)
    if cfg.use_full_grid or cfg.max_starts >= total:
        return np.arange(total)
    return rng.choice(total, size=cfg.max_starts, replace=False)


def _run_starts(starts, objective_grad, bounds, cfg, init_labels):
    """Minimize from every start; return diagnostics and (objective, index, x) winners."""
    lb = np.array([b[0] for b in bounds])
    ub = np.array([b[1] for b in bounds])
    options = {
        "maxiter": cfg.max_iterations,
        "ftol": cfg.convergence_tol,
        "gtol": 0.1 * cfg.convergence_tol,
    }
    diagnostics = []
    results = []
    for idx, x0 in enumerate(starts):
        x0 = np.clip(x0, lb, ub)
        f0, _ = objective_grad(x0)
        res = minimize(
            objective_grad,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options=options,
        )
        fun = float(res.fun) if np.isfinite(res.fun) else math.inf
        diagnostics.append(
            StartDiagnostic(
                index=idx,
                init=init_labels(x0),
                initial_objective=float(f0),
                final_objective=fun,
                converged=bool(res.success),
            )
        )
        results.append((fun, idx, np.array(res.x)))
    return diagnostics, results


def _polish_least_squares(kernel, data, x_best, bounds, delta):
    """Trust-region refinement of one candidate from the multi-start search.

    ``least_squares`` with the 'huber' loss at f_scale = delta minimizes the
    identical objective (r^2/2 inside delta, delta*(|r| - delta/2) outside)
    and converges far tighter than a quasi-Newton step on this badly
    conditioned surface.
    """

    def fun(theta):
        ev = kernel(theta, *data)
        # Out-of-domain points get a huge flat residual; the polish never
        # starts there, this just keeps the trust region away from the cliff.
        return np.where(ev.valid, ev.resid, 1.0e6)

    def jac(theta):
        return kernel(theta, *data).jac

    lb = np.array([b[0] for b in bounds])
    ub = np.array([b[1] for b in bounds])
    eps = float(np.finfo(float).eps)
    try:
        res = least_squares(
            fun,
            np.clip(x_best, lb, ub),
            jac=jac,
            bounds=(lb, ub),
            method="trf",
            loss="huber",
            f_scale=delta,
            ftol=eps,
            xtol=eps,
            gtol=eps,
            max_nfev=2000,
        )
    except ValueError:
        return None
    return np.array(res.x)


_GRID_NOTE = (
    "coefficient grid values are natural-log initializations "
    "(coefficient starts at exp(value)); the interaction coefficient "
    "initializes on the raw grid values"
)
_RMSLE_NOTE = "rmsle is in-sample on the training split; rmsle_holdout scores the held-out split"


def _fit(runs, cfg, *, kernel, axes, fixed, bounds, init_labels, to_params, score, design, min_runs):
    """Multi-start fit shared by both laws.

    Starts take ``axes`` from ``cfg.grid_spec`` (sampled down to
    ``max_starts`` by ``rng_seed``) followed by the ``fixed`` values. Each
    runs L-BFGS-B on the Huber objective of ``kernel``; candidates are then
    polished in order of final objective (start index breaking ties), and
    the first that evaluates cleanly on every supplied run wins.
    """
    if len(runs) == 0:
        raise ValueError("runs must be non-empty")
    ordered = _sorted_runs(runs)
    notes = _identifiability_notes(ordered, design, min_runs)
    for note in notes:
        warnings.warn(note, IdentifiabilityWarning, stacklevel=3)

    rng = np.random.default_rng(cfg.rng_seed)
    train, hold = _split_runs(ordered, cfg, rng)
    data = _run_arrays(train)

    def fg(theta):
        return _objective_grad(kernel(theta, *data), cfg.huber_delta)

    values = [np.asarray(cfg.grid_spec[name], dtype=float) for name in axes]
    sizes = tuple(len(v) for v in values)
    starts = []
    for flat in _sample_start_ids(sizes, cfg, rng):
        coords = np.unravel_index(int(flat), sizes)
        starts.append(np.array([v[i] for v, i in zip(values, coords)] + list(fixed)))

    diagnostics, results = _run_starts(starts, fg, bounds, cfg, init_labels)

    everything = _run_arrays(ordered)
    for fun, idx, vec in sorted(results, key=lambda t: (t[0], t[1])):
        if not math.isfinite(fun):
            continue
        x_pol = _polish_least_squares(kernel, data, vec, bounds, cfg.huber_delta)
        if x_pol is not None:
            f_pol, _ = fg(x_pol)
            if f_pol < fun:
                fun, vec = f_pol, x_pol
        # The winner must evaluate cleanly on every supplied run, held-out
        # rows included; otherwise fall through to the next-best start.
        if np.all(kernel(vec, *everything).valid):
            break
    else:
        raise FitFailedError("no optimizer start produced a usable fit")

    params = to_params(vec)
    return FitReport(
        params=params,
        objective=fun,
        rmsle=score(params, train),
        rmsle_holdout=score(params, hold) if hold else None,
        n_runs=len(ordered),
        n_train=len(train),
        n_holdout=len(hold),
        starts_run=len(starts),
        per_start=tuple(diagnostics),
        notes=tuple(notes) + (_GRID_NOTE, _RMSLE_NOTE),
    )


_MOE_AXES = ("alpha", "beta", "gamma", "log_coef_n", "log_coef_e", "log_coef_d", "interaction", "irreducible")
_MOE_BOUNDS = [
    (0.0, 4.0),  # alpha
    (0.0, 4.0),  # beta
    (0.0, 4.0),  # gamma
    (-60.0, 60.0),  # log coef_N
    (-60.0, 60.0),  # log coef_E
    (-60.0, 60.0),  # log coef_D
    (-10.0, 30.0),  # interaction
    (-10.0, 10.0),  # irreducible
    (-30.0, 10.0),  # u
    (-30.0, 15.0),  # v
]


def _moe_labels(x0) -> dict[str, float]:
    e_start = 1.0 + math.exp(x0[8])
    labels = {name: float(value) for name, value in zip(_MOE_AXES, x0)}
    labels.update(e_start=e_start, e_max=e_start + math.exp(x0[9]))
    return labels


def fit_moe(runs: Sequence[TrainingRun], config: FitConfig | None = None) -> FitReport:
    """Fit the expert-aware loss law to observed runs.

    Multi-start L-BFGS-B on the Huber log-space objective. Starts come from
    ``config.grid_spec`` (sampled down to ``max_starts`` by ``rng_seed``).
    Candidates are polished by a trust-region refinement in order of final
    objective, start index breaking ties; the first that evaluates cleanly
    on every run wins.

    Args:
        runs: observed (n_dense, d_tokens, experts, val_loss) records;
            ideally 10+ spanning at least two values in each axis (fewer is
            allowed but warned about).
        config: fit settings; defaults to :class:`FitConfig`.

    Returns:
        FitReport with fitted params, objective, in-sample and held-out
        rmsle, and per-start diagnostics.

    Raises:
        FitFailedError: if no start produced a usable parameter point.
    """
    cfg = config or FitConfig()
    return _fit(
        runs,
        cfg,
        kernel=_moe_kernel,
        axes=_MOE_AXES,
        fixed=(math.log(cfg.e_start_init - 1.0), math.log(cfg.e_max_init - cfg.e_start_init)),
        bounds=_MOE_BOUNDS,
        init_labels=_moe_labels,
        to_params=_params_from_theta,
        score=rmsle,
        design={"n_dense": "N", "d_tokens": "D", "experts": "E"},
        min_runs=10,
    )


# Positive-exponent floor keeps the fitted law inside its type's domain.
_DENSE_BOUNDS = [
    (1.0e-9, 4.0),  # alpha
    (1.0e-9, 4.0),  # beta
    (-60.0, 60.0),  # log coef_N
    (-60.0, 60.0),  # log coef_D
    (0.0, 50.0),  # l0
]


def fit_dense(runs: Sequence[TrainingRun], config: FitConfig | None = None) -> FitReport:
    """Fit the dense two-term law to single-expert runs.

    Same machinery as :func:`fit_moe` on the reduced parameter vector
    (alpha, beta, log coefficients, irreducible), with the irreducible term
    bounded at zero. Rejects runs with experts != 1.
    """
    if any(r.experts != 1 for r in runs):
        raise ValueError("fit_dense requires runs with experts = 1")
    return _fit(
        runs,
        config or FitConfig(),
        kernel=_dense_kernel,
        axes=("alpha", "beta", "log_coef_n", "log_coef_d", "irreducible"),
        fixed=(),
        bounds=_DENSE_BOUNDS,
        init_labels=lambda x0: dict(zip(("alpha", "beta", "log_coef_n", "log_coef_d", "l0"), map(float, x0))),
        to_params=_dense_params_from_theta,
        score=rmsle_dense,
        design={"n_dense": "N", "d_tokens": "D"},
        min_runs=6,
    )


def runs_from_csv(path) -> list[TrainingRun]:
    """Load training runs from a CSV with columns n_dense,d_tokens,experts,val_loss.

    Extra columns are ignored; a missing column or unparseable cell raises
    ValueError naming the column (and row).
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in RUNS_CSV_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"runs CSV missing column(s): {', '.join(missing)}")
        runs = []
        for lineno, row in enumerate(reader, start=2):
            values = {}
            for col in RUNS_CSV_COLUMNS:
                cell = row.get(col)
                try:
                    values[col] = float(cell)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"runs CSV line {lineno}: column {col!r} has "
                        f"unparseable value {cell!r}"
                    ) from None
            runs.append(TrainingRun(**values))
    if not runs:
        raise ValueError("runs CSV contains no data rows")
    return runs


def runs_to_csv(runs: Iterable[TrainingRun], path) -> None:
    """Write training runs as CSV with the canonical four-column header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNS_CSV_COLUMNS)
        for r in runs:
            writer.writerow([repr(r.n_dense), repr(r.d_tokens), repr(r.experts), repr(r.val_loss)])
