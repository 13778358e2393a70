"""Robust fitting of the loss laws to observed training runs.

The objective is a Huber loss on log-space residuals (Hoffmann et al. 2022,
Approach 3). Both laws are separable: with the nonlinear parameters fixed,
the additive bracket is linear in its coefficients. A variable-projection
screen (Golub & Pereyra 1973) solves for those coefficients over a grid of
the nonlinear parameters and ranks the candidates by the objective; a
trust-region (TRF) polish of every parameter then refines them in that
order, and the first that evaluates cleanly on every run wins. Expert
anchors are fitted as ``e_start = 1 + exp(u)``, ``e_max = e_start + exp(v)``
so their ordering holds by construction. Each law has one kernel returning
its log-space residuals and their Jacobian, which the polish consumes.

Runs are canonically sorted before anything touches them, which makes the
holdout split, the objective value, and the fitted parameters bitwise
invariant to the order rows arrive in (at a fixed ``rng_seed``).

``scipy.optimize`` is imported on the first fit, not with this module, so
commands that never fit do not pay for loading it.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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
# against any sane fit, finite so search code can keep moving.
_PENALTY_BASE = 1.0e9
_BRACKET_FLOOR = 1.0e-12
# Candidates per batched screen solve; bounds the screen's memory.
_SCREEN_CHUNK = 256


# The optimizer stays a module attribute, looked up at call time, so that a
# caller can wrap or replace ``fitting.least_squares`` (benchmarks/tracer.py
# times it this way). No fit calls ``minimize`` any more; it stays because
# benchmarks/tracer.py still looks it up by name.
def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, importing scipy on first use."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, importing scipy on first use."""
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(*args, **kwargs)


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
    """Nonlinear-parameter grid that :func:`fit_moe` screens: exponents on 8
    points in [0.05, 1.2], the interaction on 17 in [-0.02, 0.02] (8704
    candidates), anchors held at ``FitConfig.e_start_init``/``e_max_init``."""
    exponents = tuple(np.linspace(0.05, 1.2, 8).tolist())
    return {
        "alpha": exponents,
        "beta": exponents,
        "gamma": exponents,
        "interaction": tuple(np.linspace(-0.02, 0.02, 17).tolist()),
    }


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the fitting procedure.

    Attributes:
        huber_delta: residual scale where the loss switches from quadratic
            to linear.
        grid_spec: values of the expert-aware law's nonlinear parameters
            that the screen covers (see :func:`default_grid_spec`). The
            dense law screens both exponents on a fixed 24-point grid.
        max_starts: most screened candidates polished; the first that
            evaluates cleanly on every run stops the search.
        rng_seed: seed driving the holdout split.
        holdout_fraction: share of runs held out of the objective and scored
            separately; 0 disables the split.
        e_start_init: one-expert anchor held during the screen, > 1.
        e_max_init: saturation anchor held during the screen,
            > e_start_init.
    """

    huber_delta: float = 1.0e-3
    grid_spec: dict[str, tuple[float, ...]] = field(default_factory=default_grid_spec)
    max_starts: int = 512
    rng_seed: int = 0
    holdout_fraction: float = 0.2
    e_start_init: float = 1.5
    e_max_init: float = 64.0

    def __post_init__(self):
        if not self.huber_delta > 0:
            raise ValueError("huber_delta must be positive")
        if self.max_starts < 1:
            raise ValueError("max_starts must be >= 1")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must lie in [0, 1)")
        if not self.e_start_init > 1.0:
            raise ValueError("e_start_init must exceed 1")
        if not self.e_max_init > self.e_start_init:
            raise ValueError("e_max_init must exceed e_start_init")
        axes = set(default_grid_spec())
        missing = axes - set(self.grid_spec)
        if missing:
            raise ValueError(f"grid_spec missing axes: {', '.join(sorted(missing))}")
        unknown = set(self.grid_spec) - axes
        if unknown:
            raise ValueError(f"grid_spec has unknown axes: {', '.join(sorted(unknown))}")
        for name, values in self.grid_spec.items():
            if len(values) == 0:
                raise ValueError(f"grid_spec axis {name!r} is empty")


@dataclass(frozen=True)
class StartDiagnostic:
    """One polished candidate: its index in the screened grid, its screened
    start and objective, the objective after the polish, and whether
    ``least_squares`` succeeded."""

    index: int
    init: dict[str, float]
    initial_objective: float
    final_objective: float
    converged: bool

    def to_dict(self) -> dict:
        return asdict(self)


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
    both zero on runs outside ``valid``; ``bracket`` is the additive bracket
    on every run.
    """

    resid: np.ndarray
    jac: np.ndarray
    bracket: np.ndarray
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
    return _LawEval(resid, jt.T, bracket, valid)


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
    return _LawEval(np.log(bracket) - y, (bracket_jt * (1.0 / bracket)).T, bracket, bracket > 0)


def _objective_value(ev: _LawEval, delta: float) -> float:
    """Huber objective sum(huber(r, delta)), or, where any run's bracket
    reaches the floor, a large finite penalty growing with the deficit."""
    if not ev.valid.all():
        return _PENALTY_BASE + float(np.sum(_BRACKET_FLOOR - ev.bracket[~ev.valid]))
    return float(np.sum(huber(ev.resid, delta)))


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
    return _objective_value(ev, cfg.huber_delta)


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


def _split_runs(runs: list[TrainingRun], cfg: FitConfig):
    n_hold = int(round(cfg.holdout_fraction * len(runs)))
    if n_hold == 0:
        return runs, []
    perm = np.random.default_rng(cfg.rng_seed).permutation(len(runs))
    hold_idx = set(perm[:n_hold].tolist())
    train = [r for i, r in enumerate(runs) if i not in hold_idx]
    hold = [r for i, r in enumerate(runs) if i in hold_idx]
    if not train:
        raise ValueError("holdout_fraction leaves no training runs")
    return train, hold


def _screen(points, terms_of, to_theta, bounds, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Raw parameter vector and Huber objective (inf if unusable) of each
    candidate, one per row of nonlinear parameters in ``points``.

    ``terms_of(chunk)`` gives the bracket's terms at unit coefficients
    (S, runs, K) and the log of the bracket the losses imply (S, runs). One
    batched least-squares solve, weighted by 1/target so errors are relative
    like log residuals, gives the coefficients; ``pinv`` tolerates the
    rank-deficient bases of degenerate designs. A candidate outside
    ``bounds`` (a coefficient that must be positive is not) or whose bracket
    reaches the floor is unusable.
    """
    lb, ub = np.array(bounds).T
    thetas, objs = [], []
    for start in range(0, len(points), _SCREEN_CHUNK):
        chunk = points[start : start + _SCREEN_CHUNK]
        terms, log_target = terms_of(chunk)
        scaled = terms * np.exp(-log_target)[..., None]
        # Unit columns keep pinv's cutoff from dropping terms that are
        # merely small (N^-alpha is ~1e-3 at alpha = 0.34).
        norms = np.linalg.norm(scaled, axis=1)
        coefs = np.linalg.pinv(scaled / norms[:, None, :]).sum(axis=2) / norms
        bracket = np.einsum("srk,sk->sr", terms, coefs)
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = to_theta(chunk, coefs)
            resid = np.log(bracket) - log_target
        usable = np.all((theta >= lb) & (theta <= ub), axis=1) & np.all(bracket > _BRACKET_FLOOR, axis=1)
        loss = huber(np.where(usable[:, None], resid, 0.0), delta).sum(axis=1)
        thetas.append(theta)
        objs.append(np.where(usable, loss, np.inf))
    return np.concatenate(thetas), np.concatenate(objs)


def _polish_least_squares(kernel, data, x_start, bounds, delta):
    """Trust-region refinement of one screened candidate.

    ``least_squares`` with the 'huber' loss at f_scale = delta minimizes the
    identical objective (r^2/2 inside delta, delta*(|r| - delta/2) outside).
    Returns the scipy result, or None when the start is rejected.
    """

    # The TRF asks for the Jacobian only at points whose residuals it has
    # just evaluated, so ``jac`` takes the kernel evaluation ``fun`` made
    # there instead of repeating it. The entry is dropped once used: the TRF
    # scales the Jacobian it is given in place.
    last: dict[bytes, _LawEval] = {}

    def fun(theta):
        last.clear()
        ev = last[theta.tobytes()] = kernel(theta, *data)
        # Out-of-domain points get a huge flat residual; the polish never
        # starts there, this just keeps the trust region away from the cliff.
        return np.where(ev.valid, ev.resid, 1.0e6)

    def jac(theta):
        ev = last.pop(theta.tobytes(), None)
        return (ev if ev is not None else kernel(theta, *data)).jac

    lb, ub = np.array(bounds).T
    eps = float(np.finfo(float).eps)
    try:
        return least_squares(
            fun,
            np.clip(x_start, lb, ub),
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


_RMSLE_NOTE = "rmsle is in-sample on the training split; rmsle_holdout scores the held-out split"


def _fit(runs, cfg, *, kernel, separable, bounds, labels, to_params, score, design, min_runs):
    """Screen-then-polish fit shared by both laws.

    ``separable(cfg, *data)`` gives the law's arguments to :func:`_screen`.
    At most ``cfg.max_starts`` usable candidates are polished, in order of
    screened objective (grid index breaking ties); the first whose result
    evaluates cleanly on every supplied run, held-out rows included, wins.
    """
    if len(runs) == 0:
        raise ValueError("runs must be non-empty")
    ordered = _sorted_runs(runs)
    notes = _identifiability_notes(ordered, design, min_runs)
    for note in notes:
        warnings.warn(note, IdentifiabilityWarning, stacklevel=3)

    train, hold = _split_runs(ordered, cfg)
    data = _run_arrays(train)
    delta = cfg.huber_delta
    thetas, screened = _screen(*separable(cfg, *data), bounds, delta)

    order = np.argsort(screened, kind="stable")[: cfg.max_starts]
    diagnostics = []
    for idx in order[np.isfinite(screened[order])]:
        # The TRF accepts only steps that lower the objective, so its result
        # is never worse than the screened start.
        res = _polish_least_squares(kernel, data, thetas[idx], bounds, delta)
        vec = thetas[idx] if res is None else np.array(res.x)
        fun = _objective_value(kernel(vec, *data), delta)
        diagnostics.append(
            StartDiagnostic(
                index=int(idx),
                init=labels(thetas[idx]),
                initial_objective=float(screened[idx]),
                final_objective=fun,
                converged=res is not None and bool(res.success),
            )
        )
        if np.all(kernel(vec, *_run_arrays(ordered)).valid):
            break
    else:
        raise FitFailedError("no screened candidate produced a usable fit")

    params = to_params(vec)
    return FitReport(
        params=params,
        objective=fun,
        rmsle=score(params, train),
        rmsle_holdout=score(params, hold) if hold else None,
        n_runs=len(ordered),
        n_train=len(train),
        n_holdout=len(hold),
        starts_run=len(diagnostics),
        per_start=tuple(diagnostics),
        notes=tuple(notes) + (_RMSLE_NOTE,),
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


def _moe_separable(cfg: FitConfig, x, z, e, y):
    """The expert-aware law over (alpha, beta, gamma, interaction), with the
    anchors held at the configured initial values (clipped into bounds)."""
    u, v = np.clip(
        [math.log(cfg.e_start_init - 1.0), math.log(cfg.e_max_init - cfg.e_start_init)],
        *np.array(_MOE_BOUNDS[8:]).T,
    )
    e_start = 1.0 + math.exp(u)
    gap = math.exp(v)
    w = np.log(_effective_experts_core(e, e_start, e_start + gap, gap))

    def terms(chunk):
        alpha, beta, gamma, d_int = (col[:, None] for col in chunk.T)
        t_n = np.exp(-alpha * x)
        return np.stack((t_n, np.exp(-beta * w), np.exp(-gamma * z), np.ones_like(t_n)), axis=-1), y - d_int * x * w

    def to_theta(chunk, coefs):
        anchors = np.broadcast_to([u, v], (len(chunk), 2))
        return np.column_stack([chunk[:, :3], np.log(coefs[:, :3]), chunk[:, 3], coefs[:, 3], anchors])

    axes = [cfg.grid_spec[name] for name in ("alpha", "beta", "gamma", "interaction")]
    return np.array(list(itertools.product(*axes)), dtype=float), terms, to_theta


def _moe_labels(x0) -> dict[str, float]:
    e_start = 1.0 + math.exp(x0[8])
    labels = {name: float(value) for name, value in zip(_MOE_AXES, x0)}
    labels.update(e_start=e_start, e_max=e_start + math.exp(x0[9]))
    return labels


def fit_moe(runs: Sequence[TrainingRun], config: FitConfig | None = None) -> FitReport:
    """Fit the expert-aware loss law to observed runs.

    A variable-projection screen over ``config.grid_spec`` solves for the
    linear coefficients at each grid point and ranks the candidates by the
    Huber log-space objective. Up to ``max_starts`` of them are polished
    by a trust-region refinement, best first; the first that evaluates
    cleanly on every run wins.

    Args:
        runs: observed (n_dense, d_tokens, experts, val_loss) records;
            ideally 10+ spanning at least two values in each axis (fewer is
            allowed but warned about).
        config: fit settings; defaults to :class:`FitConfig`.

    Returns:
        FitReport with fitted params, objective, in-sample and held-out
        rmsle, and one diagnostic per polished candidate.

    Raises:
        FitFailedError: if no candidate produced a usable parameter point.
    """
    return _fit(
        runs,
        config or FitConfig(),
        kernel=_moe_kernel,
        separable=_moe_separable,
        bounds=_MOE_BOUNDS,
        labels=_moe_labels,
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


def _dense_separable(cfg: FitConfig, x, z, e, y):
    """The dense law over both exponents on 24 points in [0.05, 1.2]."""

    def terms(chunk):
        alpha, beta = (col[:, None] for col in chunk.T)
        t_n = np.exp(-alpha * x)
        return np.stack((t_n, np.exp(-beta * z), np.ones_like(t_n)), axis=-1), np.broadcast_to(y, t_n.shape)

    def to_theta(chunk, coefs):
        return np.column_stack([chunk, np.log(coefs[:, :2]), coefs[:, 2]])

    return np.array(list(itertools.product(np.linspace(0.05, 1.2, 24), repeat=2))), terms, to_theta


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
        separable=_dense_separable,
        bounds=_DENSE_BOUNDS,
        labels=lambda x0: dict(zip(("alpha", "beta", "log_coef_n", "log_coef_d", "l0"), map(float, x0))),
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
