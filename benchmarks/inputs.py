"""Seeded input generators. The package only ever sees what these return.

The canonical law, design grid, geometry rows and affine profile mirror the
frozen fixtures in ``tests/conftest.py`` so the benchmark exercises the same
shapes the acceptance tests do.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import moescale as ms
from moescale import AffineLatencyModel, LatencyProfile, LatencySample, ScalingLawParams, SynthSpec

TRUTH = ScalingLawParams(
    coef_N=406.4,
    coef_E=0.7,
    coef_D=410.7,
    irreducible=1.2,
    alpha=0.34,
    beta=0.45,
    gamma=0.30,
    interaction=-0.004,
    e_start=1.4,
    e_max=62.0,
)
DESIGN_N = (1.0e8, 2.0e8, 3.2e8, 7.3e8)
DESIGN_E = (1.0, 4.0, 8.0, 16.0, 32.0)
DESIGN_D = (2.5e9, 5.0e9, 7.5e9, 1.0e10, 2.0e10)
GEOMETRY_ROWS = (
    (768.0, 12.0, 81395712.0),
    (1024.0, 16.0, 289406976.0),
    (1536.0, 16.0, 679477248.0),
)
PROMPT_MODEL = AffineLatencyModel(c0=0.004, c1=2.0e-5, c2=1.0e-12)
DECODE_MODEL = AffineLatencyModel(c0=0.002, c1=1.5e-6, c2=8.0e-13)
PROFILE_BATCHES = (1.0, 64.0, 512.0, 4096.0)
PROFILE_MODEL_BYTES = (1.0e8, 1.0e9, 1.0e10, 1.0e11)
PROFILE_GPUS = (1, 2, 3, 4, 5, 6, 7, 8)

EXPERT_CHOICES = (1, 4, 8, 16, 32)
EXPERT_PAIRS = tuple(itertools.combinations(EXPERT_CHOICES, 2))
BUDGET_LOG10 = (18.0, 22.0)
FIT_NOISE_SIGMA = 0.002

# Measured-style profile: only three batch points, the smallest at 64, with
# latencies concave in batch (per-token cost falls as batch grows). The
# per-stage base curves at model_bytes=1e9 on one GPU follow the shape
# quoted for the extrapolation defect in the roadmap.
MEASURED_BATCHES = (64.0, 512.0, 4096.0)
MEASURED_BASE = {"prompt": (0.001, 0.05, 0.4), "decode": (0.0008, 0.02, 0.15)}
MEASURED_KEEP_GPUS = 5


def affine_profile() -> LatencyProfile:
    return ms.synth_profile(
        PROMPT_MODEL, DECODE_MODEL, PROFILE_BATCHES, PROFILE_MODEL_BYTES, PROFILE_GPUS
    )


def measured_profile(rng: np.random.Generator) -> LatencyProfile:
    """Concave three-point profile with some GPU counts missing.

    One and eight GPUs are always present; three of the counts in between
    are dropped. Each stage's base curve is scaled by a seeded jitter, and
    latency grows with model size and shrinks sublinearly with GPU count.
    """
    middle = sorted(int(g) for g in rng.choice(np.arange(2, 8), size=MEASURED_KEEP_GPUS - 2, replace=False))
    gpus = [1, *middle, 8]
    samples = []
    for stage, base in MEASURED_BASE.items():
        jitter = rng.uniform(0.9, 1.1, size=len(base))
        for g in gpus:
            for b, lat in zip(MEASURED_BATCHES, base * jitter):
                for m in PROFILE_MODEL_BYTES:
                    value = lat * (0.5 + 0.5 * m / 1.0e9) ** 0.5 / g**0.9
                    samples.append(LatencySample(stage, m, g, b, float(value)))
    return ms.LatencyProfile(samples)


def plan_block(rng: np.random.Generator) -> list[tuple[float, int, int, int]]:
    """One block of planning draws: (budget, e_base, e_prime, profile index).

    Every expert pair appears once per profile, and each profile's ten
    budgets are log-uniform over 1e18..1e22 stratified into ten bins, so
    every block covers the whole range. Sessions alternate profiles.
    """
    per_profile = []
    for _ in range(2):
        lo, hi = BUDGET_LOG10
        width = (hi - lo) / len(EXPERT_PAIRS)
        bins = rng.permutation(len(EXPERT_PAIRS))
        budgets = [10.0 ** (lo + width * (k + rng.uniform())) for k in bins]
        order = rng.permutation(len(EXPERT_PAIRS))
        per_profile.append([(budgets[i], *EXPERT_PAIRS[i]) for i in order])
    block = []
    for a, b in zip(*per_profile):
        block.append((*a, 0))
        block.append((*b, 1))
    return block


def fit_runs(noise_seed: int):
    spec = SynthSpec(
        ground_truth=TRUTH,
        n_dense=DESIGN_N,
        d_tokens=DESIGN_D,
        experts=DESIGN_E,
        noise_sigma=FIT_NOISE_SIGMA,
        rng_seed=noise_seed,
    )
    return ms.synth_runs(spec)


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
