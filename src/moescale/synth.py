"""Synthetic data generators and brute-force oracles.

Everything here exists to cross-check the fast paths: runs sampled from a
known ground truth exercise the fitter, affine latency profiles exercise the
interpolator (bilinear interpolation reproduces an affine function exactly),
and the token-level serving simulation checks the closed-form throughput
model. Oracles ship in the library rather than the test tree so the CLI can
replay the comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fitting import TrainingRun
from .inference import (
    GeometryFit,
    HardwareConfig,
    LatencyProfile,
    LatencySample,
    max_batch_size,
)
from .laws import (
    ArchitectureConvention,
    DenseLawParams,
    ScalingLawParams,
    activated_params,
    predict_loss,
    predict_loss_dense,
    total_params,
)

__all__ = [
    "SynthSpec",
    "synth_runs",
    "AffineLatencyModel",
    "synth_profile",
    "SimulationResult",
    "serve_simulate",
    "grid_argmin_loss",
    "dense_optimal_numeric",
]


@dataclass(frozen=True)
class SynthSpec:
    """Design grid plus ground truth for generating training runs.

    Runs cover the full cross product of the three grids. ``noise_sigma``
    scales log-normal multiplicative noise on the loss; zero means losses
    equal the ground-truth predictions bitwise.
    """

    ground_truth: ScalingLawParams
    n_dense: tuple[float, ...]
    d_tokens: tuple[float, ...]
    experts: tuple[float, ...]
    noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not self.n_dense or not self.d_tokens or not self.experts:
            raise ValueError("design grids must be non-empty")
        if any(n <= 0 for n in self.n_dense) or any(d <= 0 for d in self.d_tokens):
            raise ValueError("n_dense and d_tokens must be positive")
        if any(e < 1 for e in self.experts):
            raise ValueError("experts must be >= 1")
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be >= 0")


def synth_runs(spec: SynthSpec) -> list[TrainingRun]:
    """Sample runs from the spec's ground truth.

    Iterates n_dense (outer), then d_tokens, then experts (inner); one
    standard-normal draw per run in that order, so output is bitwise
    reproducible for a fixed spec.
    """
    combos = [
        (n, d, e)
        for n in spec.n_dense
        for d in spec.d_tokens
        for e in spec.experts
    ]
    rng = np.random.default_rng(spec.rng_seed)
    z = rng.standard_normal(len(combos))
    runs = []
    for (n, d, e), zi in zip(combos, z):
        clean = predict_loss(n, d, e, spec.ground_truth)
        noisy = float(clean * math.exp(spec.noise_sigma * zi))
        runs.append(TrainingRun(n_dense=float(n), d_tokens=float(d), experts=float(e), val_loss=noisy))
    return runs


@dataclass(frozen=True)
class AffineLatencyModel:
    """Per-stage iteration latency (c0 + c1*batch + c2*model_bytes)/gpus."""

    c0: float
    c1: float
    c2: float

    def latency(self, batch: float, model_bytes: float, gpus: int) -> float:
        return (self.c0 + self.c1 * batch + self.c2 * model_bytes) / gpus


def synth_profile(
    prompt: AffineLatencyModel,
    decode: AffineLatencyModel,
    batches: Sequence[float],
    model_sizes: Sequence[float],
    gpu_counts: Sequence[int],
) -> LatencyProfile:
    """Tabulate two affine stage models onto a rectangular profile grid.

    Bilinear interpolation over the result reproduces the affine models
    exactly inside the grid hull, which is what makes this profile usable
    as a ground truth. All sampled latencies must come out positive.
    """
    if len(set(batches)) < 2 or len(set(model_sizes)) < 2:
        raise ValueError("need >= 2 distinct batch sizes and model sizes")
    samples = []
    for stage, model in (("prompt", prompt), ("decode", decode)):
        for g in gpu_counts:
            for b in batches:
                for m in model_sizes:
                    lat = model.latency(b, m, g)
                    if lat <= 0:
                        raise ValueError(
                            f"affine model gives nonpositive latency at "
                            f"stage={stage}, batch={b}, model_bytes={m}, gpus={g}"
                        )
                    samples.append(
                        LatencySample(
                            stage=stage,
                            model_bytes=float(m),
                            gpus=int(g),
                            batch=float(b),
                            latency_s=lat,
                        )
                    )
    return LatencyProfile(samples)


@dataclass(frozen=True)
class SimulationResult:
    tokens_per_second: float
    tokens_emitted: float
    elapsed_s: float
    steps: int
    warmed_up: bool


def serve_simulate(
    n_dense: float,
    experts: float,
    gpus: int,
    hw: HardwareConfig,
    geom: GeometryFit,
    profile: LatencyProfile,
    arch: ArchitectureConvention = ArchitectureConvention(),
    steps: int = 4096,
) -> SimulationResult:
    """Token-level serving simulation; the slow twin of `throughput`.

    Keeps an integer batch of b = floor(max_batch_size) request slots, each
    holding a request with some output tokens left. Every decode iteration
    emits one token per slot and costs L_decode(b); slots that finish are
    refilled immediately, costing one prompt iteration at a batch equal to
    the number of refills (about b/output_len per step once remaining
    lifetimes are staggered). The first output_len steps are warmup and
    excluded from the rate; if the simulation never leaves warmup the rate
    covers the whole window and ``warmed_up`` is False.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n_total = total_params(n_dense, experts, arch)
    batch_real = max_batch_size(n_total, n_dense, gpus, hw, geom)
    b = int(math.floor(batch_real))
    if b < 1:
        return SimulationResult(0.0, 0.0, 0.0, steps, False)
    model_bytes = n_total * hw.dtype_bytes
    n_out = hw.output_len
    lat_decode, _ = profile.interpolate("decode", model_bytes, gpus, float(b))
    prompt_cache: dict[int, float] = {}

    def prompt_latency(refills: int) -> float:
        if refills not in prompt_cache:
            value, _ = profile.interpolate("prompt", model_bytes, gpus, float(refills))
            prompt_cache[refills] = value
        return prompt_cache[refills]

    # stagger initial lifetimes so completions spread evenly across steps
    remaining = (np.arange(b) % n_out) + 1
    warmup = n_out
    counted_tokens = 0.0
    counted_time = 0.0
    total_tokens = 0.0
    total_time = 0.0
    for step in range(steps):
        remaining -= 1
        done = remaining == 0
        refills = int(done.sum())
        elapsed = lat_decode
        if refills:
            elapsed += prompt_latency(refills)
            remaining[done] = n_out
        total_tokens += b
        total_time += elapsed
        if step >= warmup:
            counted_tokens += b
            counted_time += elapsed
    warmed_up = steps > warmup
    if warmed_up:
        rate = counted_tokens / counted_time
        return SimulationResult(rate, counted_tokens, counted_time, steps, True)
    rate = total_tokens / total_time if total_time > 0 else 0.0
    return SimulationResult(rate, total_tokens, total_time, steps, False)


def grid_argmin_loss(
    budget_flops: float,
    experts: float,
    params: ScalingLawParams,
    arch: ArchitectureConvention = ArchitectureConvention(),
    n_bounds: tuple[float, float] = (1e5, 1e13),
    grid_size: int = 4096,
) -> tuple[float, float]:
    """Exhaustive log-spaced scan of loss over model size at a fixed budget.

    Spends the whole budget at each size: D = budget/(flops_per_token(N)).
    Endpoints are included. Returns (n_dense, loss) at the grid argmin.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    lo, hi = n_bounds
    if not (0 < lo < hi):
        raise ValueError("n_bounds must satisfy 0 < lo < hi")
    sizes = np.geomspace(lo, hi, grid_size)
    tokens = budget_flops / (arch.flops_per_param_token * activated_params(sizes, experts, arch))
    losses = predict_loss(sizes, tokens, experts, params)
    i = int(np.argmin(losses))
    return float(sizes[i]), float(losses[i])


def dense_optimal_numeric(
    budget_flops: float,
    params: DenseLawParams,
    flops_per_param_token: float = 6.0,
    n_bounds: tuple[float, float] = (1e0, 1e16),
) -> tuple[float, float]:
    """Numeric twin of the closed-form compute-optimal dense allocation.

    Minimizes dense loss over log model size with tokens pinned by the
    budget, never touching the closed form. Used to cross-check it.
    """
    if not budget_flops > 0:
        raise ValueError("budget_flops must be positive")

    def objective(x: float) -> float:
        n = math.exp(x)
        d = budget_flops / (flops_per_param_token * n)
        return predict_loss_dense(n, d, params)

    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        objective,
        bounds=(math.log(n_bounds[0]), math.log(n_bounds[1])),
        method="bounded",
        options={"xatol": 1e-12},
    )
    n_opt = float(math.exp(res.x))
    return n_opt, budget_flops / (flops_per_param_token * n_opt)
