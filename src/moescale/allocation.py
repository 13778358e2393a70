"""Training-budget allocation under loss and serving-cost constraints.

Four questions, one fixed training budget:

  1. dense_optimal / moe_loss_optimal: what model size minimizes loss?
  2. min_cost_for_bounded_loss: cheapest-to-serve model at least as good as
     a reference optimum (shrink the model, train it longer).
  3. min_loss_for_bounded_cost: best model no pricier to serve than a
     reference optimum.
  4. flops_ratio_to_match: how much budget does a different expert count
     need to reach the same loss?

Searches run on log model size. Loss along the budget slice is unimodal
(log-loss is a convex-plus-linear function of log size), which licenses
golden-section for the optimum and bisection on the under-trained branch,
where loss decreases toward the optimum. The branch is still probed
empirically before every bisection; a violation raises instead of quietly
returning a wrong root. The cost-bounded search takes as a premise that
serving cost along size is a nondecreasing envelope with upward jumps where
the minimum feasible GPU count steps up, and brackets the transition with a
coarse scan before bisecting the predicate. The premise holds on affine
profiles and fails where per-token latency rises with batch (every
measured-style slice); there the answer may not be the largest feasible
size. Both price many sizes per call of ``inference.cost_grid``: the scan
in one call, the bisection the next few levels of midpoints at a time. A
size no GPU count can serve is over every cost bound: a sweep flags its
row with the unservable cells' notes, and an answer there raises
``NoFeasibleGpuError`` (the one-cell views of ``inference`` raise
``UnservableError``).

Inputs are checked once, before any search: ``SearchConfig`` checks its
bounds and tolerance, and ``moe_loss_optimal``, which every entry calls
first, checks budget and experts (``frontier_sweep`` checks every pair
before its loop). The loops then run the unchecked
``laws._loss``/``_expanded``; reported values still come from the public
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    CostBoundUnreachableError,
    NonMonotoneBranchError,
    QualityBoundUnreachableError,
    SearchBoundsError,
)
from .inference import (
    GeometryFit,
    GpuCostChoice,
    HardwareConfig,
    LatencyProfile,
    _cheapest_choices,
    min_cost_over_gpus,
)
from .laws import (
    ArchitectureConvention,
    DenseLawParams,
    ScalingLawParams,
    _expanded,
    _experts,
    _loss,
    predict_loss,
    training_flops,
)

__all__ = [
    "SearchConfig",
    "AllocationResult",
    "dense_optimal",
    "moe_loss_optimal",
    "loss_optimal_result",
    "min_cost_for_bounded_loss",
    "min_loss_for_bounded_cost",
    "frontier_sweep",
    "flops_ratio_to_match",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# slack for comparisons that are exact in real arithmetic (self-bound fixed points)
_REACH_RTOL = 1e-12
# levels of midpoints the cost-bounded bisection prices per cost_grid call
_COST_BISECT_DEPTH = 6


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the one-dimensional searches.

    rel_tol is the relative-interval termination for golden-section and
    bisection; n_bounds brackets model size in parameters.
    """

    rel_tol: float = 1e-6
    n_bounds: tuple[float, float] = (1e5, 1e13)

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if not math.isfinite(self.rel_tol):
            raise ValueError("rel_tol must be finite")
        # finer than a few ulps of a log size the searches never stop
        if self.rel_tol < 1e-12:
            raise ValueError("rel_tol must be at least 1e-12")
        lo, hi = self.n_bounds
        if not (0 < lo < hi):
            raise ValueError("n_bounds must satisfy 0 < lo < hi")
        if not math.isfinite(hi):
            raise ValueError("n_bounds must be finite")


@dataclass(frozen=True)
class AllocationResult:
    """One allocated configuration and how it serves.

    overtrain_ratio is model size relative to the loss-optimal size at the
    same (budget, experts): 1 at the optimum, below 1 when the budget was
    deliberately shifted from parameters to tokens.
    """

    n_dense: float
    d_tokens: float
    experts: float
    predicted_loss: float
    training_flops: float
    cost_per_token: float
    best_gpus: int
    overtrain_ratio: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def dense_optimal(
    budget_flops: float,
    params: DenseLawParams,
    flops_per_param_token: float = 6.0,
) -> tuple[float, float]:
    """Compute-optimal dense split of a budget into size and tokens.

    With loss = l0 + A/N^alpha + B/D^beta and budget = 6ND, the Lagrange
    conditions give

        N_opt = g * (C/6)^(beta/(alpha+beta))
        D_opt = (C/6)^(alpha/(alpha+beta)) / g,   g = (alpha*A/(beta*B))^(1/(alpha+beta))

    Tokens are returned as budget/(6*N_opt) so the budget is spent exactly.
    """
    if not budget_flops > 0:
        raise ValueError("budget_flops must be positive")
    a, b = params.alpha, params.beta
    g = (a * params.coef_N / (b * params.coef_D)) ** (1.0 / (a + b))
    n_opt = g * (budget_flops / flops_per_param_token) ** (b / (a + b))
    return n_opt, budget_flops / (flops_per_param_token * n_opt)


def _tokens_for(n_dense: float, budget: float, experts: float, arch: ArchitectureConvention) -> float:
    activated = _expanded(n_dense, min(float(arch.top_k), experts), arch)
    return budget / (arch.flops_per_param_token * activated)


def _loss_on_slice(n_dense: float, budget: float, experts: float, params, arch) -> float:
    """Loss spending the whole budget at size n_dense; the tokens may still over- or underflow."""
    d = _tokens_for(n_dense, budget, experts, arch)
    if not math.isfinite(d):
        raise ValueError("D must be finite")
    if not d > 0:
        raise ValueError("D must be positive")
    return _loss(n_dense, d, experts, params)


def _bisect(lower, lo: float, hi: float, tol: float, depth: int = 1) -> tuple[float, float]:
    """Halve [lo, hi] down to width tol; a true answer at mid puts the root above it.

    ``lower(points)`` answers for a list of points at once, one bool each.
    Each call asks for the next ``depth`` levels of midpoints, level by
    level, left to right, and the walk then takes the same steps as one
    point at a time would; depth 1 asks for one point per call.
    """
    while hi - lo > tol:
        level, points = [(lo, hi)], []
        for _ in range(depth):
            mids = [0.5 * (a + b) for a, b in level]
            points += mids
            level = [half for (a, b), m in zip(level, mids) for half in ((a, m), (m, b))]
        answers = lower(points)
        k = 0
        for _ in range(depth):
            if not hi - lo > tol:
                break
            if answers[k]:
                lo, k = points[k], 2 * k + 2
            else:
                hi, k = points[k], 2 * k + 1
    return lo, hi


def _check_budget(budget_flops: float) -> None:
    if not budget_flops > 0:
        raise ValueError("budget_flops must be positive")
    if not math.isfinite(budget_flops):
        raise ValueError("budget_flops must be finite")


def moe_loss_optimal(
    budget_flops: float,
    experts: float,
    params: ScalingLawParams,
    arch: ArchitectureConvention = ArchitectureConvention(),
    search: SearchConfig = SearchConfig(),
) -> tuple[float, float, float]:
    """Loss-minimizing (n_dense, d_tokens, loss) at a fixed budget and expert count.

    Golden-section on log size; ties shrink toward the smaller model. A
    minimizer pinned to an n_bounds endpoint raises SearchBoundsError since
    the true optimum then lies outside the window.
    """
    _check_budget(budget_flops)
    _experts(experts)
    lo = math.log(search.n_bounds[0])
    hi = math.log(search.n_bounds[1])
    lo0, hi0 = lo, hi

    def f(x: float) -> float:
        return _loss_on_slice(math.exp(x), budget_flops, experts, params, arch)

    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > search.rel_tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
    if lo - lo0 <= 2.0 * search.rel_tol:
        raise SearchBoundsError("lower", search.n_bounds[0])
    if hi0 - hi <= 2.0 * search.rel_tol:
        raise SearchBoundsError("upper", search.n_bounds[1])
    n_opt = math.exp(0.5 * (lo + hi))
    d_opt = _tokens_for(n_opt, budget_flops, experts, arch)
    return n_opt, d_opt, predict_loss(n_opt, d_opt, experts, params)


def loss_optimal_result(
    budget_flops: float,
    experts: float,
    params: ScalingLawParams,
    arch: ArchitectureConvention = ArchitectureConvention(),
    hw: HardwareConfig = HardwareConfig(),
    geom: GeometryFit | None = None,
    profile: LatencyProfile | None = None,
    search: SearchConfig = SearchConfig(),
) -> AllocationResult:
    """moe_loss_optimal packaged with its serving cost (overtrain_ratio 1)."""
    if geom is None or profile is None:
        raise ValueError("geom and profile are required")
    n_opt, _, _ = moe_loss_optimal(budget_flops, experts, params, arch, search)
    return _result_at(n_opt, budget_flops, experts, params, arch, hw, geom, profile, n_opt)


def _check_decreasing_branch(budget, experts, params, arch, n_lo, n_hi, probes=33):
    """Probe the under-trained branch; loss must strictly decrease with size."""
    if probes < 2 or not n_lo < n_hi:
        return
    log_lo, log_hi = math.log(n_lo), math.log(n_hi)
    prev = None
    for i in range(probes):
        x = log_lo + (log_hi - log_lo) * i / (probes - 1)
        value = _loss_on_slice(math.exp(x), budget, experts, params, arch)
        if prev is not None and value >= prev:
            raise NonMonotoneBranchError(
                f"loss is not strictly decreasing below the optimum near "
                f"n_dense={math.exp(x):.6g} (experts={experts}, budget={budget:.6g})"
            )
        prev = value


def _result_at(n_dense, budget, experts, params, arch, hw, geom, profile, n_ref) -> AllocationResult:
    d = _tokens_for(n_dense, budget, experts, arch)
    choice = min_cost_over_gpus(n_dense, experts, hw, geom, profile, arch)
    return AllocationResult(
        n_dense=n_dense,
        d_tokens=d,
        experts=experts,
        predicted_loss=predict_loss(n_dense, d, experts, params),
        training_flops=training_flops(n_dense, d, experts, arch),
        cost_per_token=choice.cost_per_token,
        best_gpus=choice.gpus,
        overtrain_ratio=min(n_dense / n_ref, 1.0),
    )


def min_cost_for_bounded_loss(
    budget_flops: float,
    experts_base: float,
    experts_prime: float,
    params: ScalingLawParams,
    arch: ArchitectureConvention = ArchitectureConvention(),
    hw: HardwareConfig = HardwareConfig(),
    geom: GeometryFit | None = None,
    profile: LatencyProfile | None = None,
    search: SearchConfig = SearchConfig(),
    target_loss: float | None = None,
) -> AllocationResult:
    """Cheapest-to-serve model with experts_prime matching the loss of the
    experts_base optimum at the same budget.

    Walks down the under-trained branch: the smallest size whose
    budget-slice loss equals the target, found by bisection between
    n_bounds[0] and the experts_prime optimum. Smaller models serve
    cheaper, so the equality point is the cost minimizer under the bound.
    ``target_loss`` overrides the bound; experts_base is ignored then.

    Raises:
        QualityBoundUnreachableError: experts_prime cannot reach the target
            loss at this budget even when loss-optimal.
        SearchBoundsError: the equality point lies below n_bounds[0].
        NonMonotoneBranchError: branch probe found non-decreasing loss.
    """
    if geom is None or profile is None:
        raise ValueError("geom and profile are required")
    if target_loss is None:
        _, _, target = moe_loss_optimal(budget_flops, experts_base, params, arch, search)
    else:
        target = target_loss
    n_best, _, loss_best = moe_loss_optimal(budget_flops, experts_prime, params, arch, search)
    if loss_best > target * (1.0 + _REACH_RTOL):
        raise QualityBoundUnreachableError(target=target, best=loss_best)
    n_lo = search.n_bounds[0]
    loss_at_lo = _loss_on_slice(n_lo, budget_flops, experts_prime, params, arch)
    if loss_at_lo < target:
        raise SearchBoundsError("lower", n_lo)
    _check_decreasing_branch(budget_flops, experts_prime, params, arch, n_lo, n_best)
    def above_target(x: float) -> bool:
        return _loss_on_slice(math.exp(x), budget_flops, experts_prime, params, arch) > target

    _, hi = _bisect(
        lambda xs: [above_target(x) for x in xs], math.log(n_lo), math.log(n_best), search.rel_tol
    )
    # hi side satisfies loss <= target; keep the bound met
    return _result_at(
        math.exp(hi), budget_flops, experts_prime, params, arch, hw, geom, profile, n_best
    )


def min_loss_for_bounded_cost(
    budget_flops: float,
    experts_base: float,
    experts_prime: float,
    params: ScalingLawParams,
    arch: ArchitectureConvention = ArchitectureConvention(),
    hw: HardwareConfig = HardwareConfig(),
    geom: GeometryFit | None = None,
    profile: LatencyProfile | None = None,
    search: SearchConfig = SearchConfig(),
    cost_bound: float | None = None,
) -> AllocationResult:
    """Best experts_prime model serving no pricier than the experts_base
    optimum at the same budget.

    Loss improves with size up to the experts_prime optimum. Taking as a
    premise that serving cost only grows with size, the answer is the
    largest size under the bound, capped at that optimum: a 64-point coarse
    scan brackets the transition of cost(N) <= bound, then bisection
    sharpens it. The premise holds on affine profiles but fails where
    per-token latency rises with batch (every measured-style slice), and
    the answer may then lie below the largest feasible size.
    ``cost_bound`` overrides the bound; experts_base is ignored then.

    Raises:
        CostBoundUnreachableError: even the smallest size in n_bounds costs
            more than the bound.
    """
    if geom is None or profile is None:
        raise ValueError("geom and profile are required")
    if cost_bound is None:
        n_base, _, _ = moe_loss_optimal(budget_flops, experts_base, params, arch, search)
        bound = min_cost_over_gpus(n_base, experts_base, hw, geom, profile, arch).cost_per_token
    else:
        bound = cost_bound
    n_best, _, _ = moe_loss_optimal(budget_flops, experts_prime, params, arch, search)
    limit = bound * (1.0 + _REACH_RTOL)

    n_lo = search.n_bounds[0]
    at_lo, at_best = _cheapest_choices([n_lo, n_best], experts_prime, hw, geom, profile, arch)
    if not _within(at_lo, limit):
        cheapest = at_lo.cost_per_token if isinstance(at_lo, GpuCostChoice) else math.inf
        raise CostBoundUnreachableError(bound=bound, cheapest=cheapest)
    if _within(at_best, limit):
        return _result_at(
            n_best, budget_flops, experts_prime, params, arch, hw, geom, profile, n_best
        )

    def choices(xs) -> list:
        return _cheapest_choices([math.exp(x) for x in xs], experts_prime, hw, geom, profile, arch)

    # coarse scan isolates the last feasible size before the transition
    log_lo, log_hi = math.log(n_lo), math.log(n_best)
    scan = [log_lo + (log_hi - log_lo) * i / 63 for i in range(64)]
    lo, hi = log_lo, log_hi
    for x, choice in zip(scan[1:], choices(scan[1:])):
        if _within(choice, limit):
            lo = x
        else:
            hi = x
            break
    lo, _ = _bisect(
        lambda xs: [_within(c, limit) for c in choices(xs)],
        lo,
        hi,
        search.rel_tol,
        _COST_BISECT_DEPTH,
    )
    return _result_at(
        math.exp(lo), budget_flops, experts_prime, params, arch, hw, geom, profile, n_best
    )


def _within(choice, limit: float) -> bool:
    """Whether a ``_cheapest_choices`` entry serves at a cost within limit."""
    return isinstance(choice, GpuCostChoice) and choice.cost_per_token <= limit


def frontier_sweep(
    budgets,
    expert_candidates,
    params: ScalingLawParams,
    arch: ArchitectureConvention = ArchitectureConvention(),
    hw: HardwareConfig = HardwareConfig(),
    geom: GeometryFit | None = None,
    profile: LatencyProfile | None = None,
    search: SearchConfig = SearchConfig(),
    curve_points: int = 64,
    curve_span: tuple[float, float] = (0.05, 1.5),
) -> list[dict]:
    """Loss-vs-cost frontier table over budgets and expert counts.

    Per (budget, experts): one "optimal" row at the loss-optimal size, then
    ``curve_points`` "curve" rows sweeping size over curve_span times the
    optimal size (log-spaced), every row spending the full budget.
    Infeasible serving configurations come back flagged with a note instead
    of aborting the sweep.
    """
    if geom is None or profile is None:
        raise ValueError("geom and profile are required")

    def sweep_row(budget, experts, kind, **values) -> dict:
        """One table row; the columns not given are left unpriced."""
        return {
            "budget": budget,
            "experts": experts,
            "kind": kind,
            "n_dense": math.nan,
            "d_tokens": math.nan,
            "predicted_loss": math.nan,
            "training_flops": math.nan,
            "cost_per_token": math.nan,
            "best_gpus": 0,
            "overtrain_ratio": math.nan,
            "feasible": False,
            "note": "",
        } | values

    def emit(budget, experts, sizes, n_ref) -> list[dict]:
        """The rows of one (budget, experts) block, priced in one pass."""
        tokens = [_tokens_for(size, budget, experts, arch) for size in sizes]
        n, d = np.array(sizes), np.array(tokens)
        loss = predict_loss(n, d, experts, params)
        flops = training_flops(n, d, experts, arch)
        choices = _cheapest_choices(n, experts, hw, geom, profile, arch)
        rows = []
        cells = zip(sizes, tokens, loss.tolist(), flops.tolist(), choices)
        for i, (size, row_d, row_loss, row_flops, choice) in enumerate(cells):
            row = sweep_row(budget, experts, "optimal" if i == 0 else "curve", n_dense=size, d_tokens=row_d,
                            predicted_loss=row_loss, training_flops=row_flops, overtrain_ratio=size / n_ref)
            if isinstance(choice, GpuCostChoice):
                row.update(cost_per_token=choice.cost_per_token, best_gpus=choice.gpus, feasible=True)
            else:
                row["note"] = str(choice)
            rows.append(row)
        return rows

    budgets, expert_candidates = list(budgets), list(expert_candidates)
    for budget in budgets:
        for experts in expert_candidates:
            _check_budget(budget)
            _experts(experts)
    rows = []
    for budget in budgets:
        for experts in expert_candidates:
            try:
                n_opt, _, _ = moe_loss_optimal(budget, experts, params, arch, search)
            except SearchBoundsError as exc:
                rows.append(sweep_row(budget, experts, "optimal", note=str(exc)))
                continue
            span_lo, span_hi = curve_span
            log_lo = math.log(span_lo * n_opt)
            log_hi = math.log(span_hi * n_opt)
            curve = [
                math.exp(log_lo + (log_hi - log_lo) * i / (curve_points - 1)) for i in range(curve_points)
            ]
            rows += emit(budget, experts, [n_opt, *curve], n_opt)
    return rows


def flops_ratio_to_match(
    budget_base: float,
    experts_base: float,
    experts_prime: float,
    params: ScalingLawParams,
    arch: ArchitectureConvention = ArchitectureConvention(),
    search: SearchConfig = SearchConfig(),
    budget_span: tuple[float, float] = (1e-4, 1e4),
) -> float:
    """Budget multiple at which experts_prime matches the experts_base
    optimal loss. Below 1 means the alternative reaches the same quality
    on less compute.

    Bisects on log budget inside budget_span (relative to budget_base);
    optimal loss decreases strictly with budget, so the sign brackets the
    root or the span is declared too narrow.
    """
    _, _, target = moe_loss_optimal(budget_base, experts_base, params, arch, search)

    def excess(budget: float) -> float:
        return moe_loss_optimal(budget, experts_prime, params, arch, search)[2] - target

    lo_budget = budget_base * budget_span[0]
    hi_budget = budget_base * budget_span[1]
    if excess(lo_budget) < 0:
        raise SearchBoundsError("lower", lo_budget)
    if excess(hi_budget) > 0:
        raise SearchBoundsError("upper", hi_budget)
    lo, hi = _bisect(
        lambda xs: [excess(math.exp(x)) > 0 for x in xs],
        math.log(lo_budget),
        math.log(hi_budget),
        search.rel_tol,
    )
    return math.exp(0.5 * (lo + hi)) / budget_base
