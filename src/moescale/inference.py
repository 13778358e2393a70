"""Serving cost model: memory-bound batch sizing, latency lookup, throughput.

The chain is

    weights + KV cache fill GPU memory  ->  max batch size
    batch + measured iteration latencies ->  tokens/second
    tokens/second + GPU pricing          ->  cost per generated token

Latencies come from a profile of (stage, model_bytes, gpus, batch) samples
interpolated bilinearly over batch and model bytes:

    L = v00*(1-y0)*(1-y1) + v01*(1-y0)*y1 + v10*y0*(1-y1) + v11*y0*y1

where y0 and y1 are the query's fractional positions in its grid cell.
Queries outside the sampled hull use the edge cell on that axis, so the
weight leaves [0, 1] and the surface extends linearly; they are flagged.
KV-cache geometry uses the dense-equivalent model size (experts do not
change hidden size or depth), while weight memory uses the expanded
parameter count.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import (
    InsufficientMemoryError,
    MissingProfileSliceError,
    NoFeasibleGpuError,
    UnservableError,
)
from .laws import ArchitectureConvention, total_params

__all__ = [
    "HardwareConfig",
    "GeometryFit",
    "LatencySample",
    "LatencyProfile",
    "GpuCostChoice",
    "fit_geometry",
    "kv_cache_bytes_per_token",
    "max_batch_size",
    "throughput_for_batch",
    "throughput",
    "cost_per_token",
    "min_cost_over_gpus",
    "cost_table",
]

PROFILE_STAGES = ("prompt", "decode")


@dataclass(frozen=True)
class HardwareConfig:
    """Serving hardware and workload shape.

    Attributes:
        gpu_mem_bytes: usable memory per GPU.
        max_gpus: largest GPU count considered when minimizing cost.
        cost_per_gpu_second: price of one GPU for one second. The default of
            1.0 makes costs read as GPU-seconds per token.
        prompt_len: prompt tokens per request.
        output_len: generated tokens per request.
        dtype_bytes: bytes per stored value (weights and KV cache).
    """

    gpu_mem_bytes: float = 40.0 * 2**30
    max_gpus: int = 8
    cost_per_gpu_second: float = 1.0
    prompt_len: int = 512
    output_len: int = 256
    dtype_bytes: float = 2.0

    def __post_init__(self):
        if not self.gpu_mem_bytes > 0:
            raise ValueError("gpu_mem_bytes must be positive")
        if self.max_gpus < 1:
            raise ValueError("max_gpus must be >= 1")
        if not self.cost_per_gpu_second > 0:
            raise ValueError("cost_per_gpu_second must be positive")
        if self.prompt_len < 1 or self.output_len < 1:
            raise ValueError("prompt_len and output_len must be >= 1")
        if not self.dtype_bytes > 0:
            raise ValueError("dtype_bytes must be positive")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "HardwareConfig":
        """Build from a flat dict; missing keys fall back to the defaults,
        unknown keys are rejected."""
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError(f"unknown keys for HardwareConfig: {', '.join(unknown)}")
        kwargs = dict(data)
        for key in ("max_gpus", "prompt_len", "output_len"):
            if key in kwargs:
                value = kwargs[key]
                if float(value) != int(value):
                    raise ValueError(f"{key} must be an integer")
                kwargs[key] = int(value)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "HardwareConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("expected a flat JSON object of hardware fields")
        return cls.from_dict(data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass(frozen=True)
class GeometryFit:
    """Power-law fit of hidden_dim * n_layers against model size.

    ``hidden_dim * n_layers ~= mu * N^(2/3)`` pins KV-cache size per token
    to the dense-equivalent parameter count.
    """

    mu: float
    rows: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")

    def hidden_layer_product(self, n_dense: float) -> float:
        if not n_dense > 0:
            raise ValueError("n_dense must be positive")
        return self.mu * n_dense ** (2.0 / 3.0)


def fit_geometry(rows: Sequence[tuple[float, float, float]]) -> GeometryFit:
    """Least-squares fit of mu in hidden*layers = mu * N^(2/3).

    Args:
        rows: (hidden_dim, n_layers, n_params) per model shape.

    Returns:
        GeometryFit carrying mu and the rows it came from.
    """
    if len(rows) == 0:
        raise ValueError("rows must be non-empty")
    for h, l, n in rows:
        if h <= 0 or l <= 0 or n <= 0:
            raise ValueError("geometry rows must be positive (hidden, layers, params)")
    basis = np.array([n ** (2.0 / 3.0) for _, _, n in rows])
    target = np.array([h * l for h, l, _ in rows])
    mu = float(np.sum(target * basis) / np.sum(basis * basis))
    return GeometryFit(mu=mu, rows=tuple((float(h), float(l), float(n)) for h, l, n in rows))


def kv_cache_bytes_per_token(n_dense: float, geom: GeometryFit, hw: HardwareConfig) -> float:
    """KV-cache bytes per token: keys and values across every layer."""
    return 2.0 * geom.hidden_layer_product(n_dense) * hw.dtype_bytes


@dataclass(frozen=True)
class LatencySample:
    """One measured iteration: a stage at a batch size on a model/GPU pair."""

    stage: str
    model_bytes: float
    gpus: int
    batch: float
    latency_s: float

    def __post_init__(self):
        if self.stage not in PROFILE_STAGES:
            raise ValueError(f"stage must be one of {PROFILE_STAGES}")
        if not self.model_bytes > 0:
            raise ValueError("model_bytes must be positive")
        if self.gpus < 1:
            raise ValueError("gpus must be >= 1")
        if not self.batch >= 1:
            raise ValueError("batch must be >= 1")
        if not self.latency_s > 0:
            raise ValueError("latency_s must be positive")


class LatencyProfile:
    """Immutable interpolator over measured iteration latencies.

    Samples must form a complete rectangular (batch x model_bytes) grid for
    every (stage, gpus) slice present, with at least two distinct batch
    sizes and two distinct model sizes per slice. Lookups are pure and
    thread-safe.

    A lookup finds the cell ``i = clip(bisect_right(grid, x) - 1, 0, n - 2)``
    on each axis, takes the weight ``y = (x - grid[i]) / (grid[i+1] - grid[i])``
    and sums the four corners as in the module docstring, in that order,
    from 0.0. This is scipy's linear ``RegularGridInterpolator`` (with
    ``fill_value=None``) term for term, so results match it bit for bit.
    Queries outside a slice's hull fall in the edge cell and so extrapolate
    linearly from the nearest edge; they report it.
    """

    def __init__(self, samples: Sequence[LatencySample]):
        if len(samples) == 0:
            raise ValueError("profile needs at least one sample")
        self._samples = tuple(samples)
        by_slice: dict[tuple[str, int], dict[tuple[float, float], float]] = {}
        for s in self._samples:
            key = (s.stage, s.gpus)
            cell = by_slice.setdefault(key, {})
            if (s.batch, s.model_bytes) in cell:
                raise ValueError(
                    f"duplicate sample for {key} at batch={s.batch}, "
                    f"model_bytes={s.model_bytes}"
                )
            cell[(s.batch, s.model_bytes)] = s.latency_s
        self._grids = {}
        for key, cell in by_slice.items():
            batches = sorted({float(b) for b, _ in cell})
            models = sorted({float(m) for _, m in cell})
            if len(batches) < 2 or len(models) < 2:
                raise ValueError(
                    f"slice {key} needs >= 2 distinct batch sizes and model sizes"
                )
            if len(cell) != len(batches) * len(models):
                raise ValueError(f"slice {key} is not a complete rectangular grid")
            values = [[float(cell[(b, m)]) for m in models] for b in batches]
            self._grids[key] = (batches, models, values)

    @property
    def samples(self) -> tuple[LatencySample, ...]:
        return self._samples

    def slices(self) -> list[tuple[str, int]]:
        return sorted(self._grids)

    def gpu_counts(self) -> list[int]:
        return sorted({g for _, g in self._grids})

    def has_slice(self, stage: str, gpus: int) -> bool:
        return (stage, int(gpus)) in self._grids

    def interpolate(self, stage: str, model_bytes: float, gpus: int, batch: float) -> tuple[float, bool]:
        """Latency in seconds plus a flag set when the query left the hull."""
        if stage not in PROFILE_STAGES:
            raise ValueError(f"stage must be one of {PROFILE_STAGES}")
        if not batch > 0:
            raise ValueError("batch must be positive")
        if not model_bytes > 0:
            raise ValueError("model_bytes must be positive")
        key = (stage, int(gpus))
        if key not in self._grids:
            raise MissingProfileSliceError(stage, int(gpus))
        batches, models, values = self._grids[key]
        i, y0 = _cell(batches, batch)
        j, y1 = _cell(models, model_bytes)
        lo, hi = values[i], values[i + 1]
        value = (
            0.0
            + lo[j] * (1 - y0) * (1 - y1)
            + lo[j + 1] * (1 - y0) * y1
            + hi[j] * y0 * (1 - y1)
            + hi[j + 1] * y0 * y1
        )
        extrapolated = bool(
            batch < batches[0]
            or batch > batches[-1]
            or model_bytes < models[0]
            or model_bytes > models[-1]
        )
        return float(value), extrapolated

    @classmethod
    def from_json(cls, text: str) -> "LatencyProfile":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("profile JSON must be an array of sample objects")
        required = ("stage", "model_bytes", "gpus", "batch", "latency_s")
        samples = []
        for i, item in enumerate(data):
            if not isinstance(item, dict):
                raise ValueError(f"profile entry {i} is not an object")
            missing = [k for k in required if k not in item]
            if missing:
                raise ValueError(f"profile entry {i} missing keys: {', '.join(missing)}")
            unknown = sorted(set(item) - set(required))
            if unknown:
                raise ValueError(f"profile entry {i} has unknown keys: {', '.join(unknown)}")
            gpus = item["gpus"]
            if float(gpus) != int(gpus):
                raise ValueError(f"profile entry {i}: gpus must be an integer")
            samples.append(
                LatencySample(
                    stage=item["stage"],
                    model_bytes=float(item["model_bytes"]),
                    gpus=int(gpus),
                    batch=float(item["batch"]),
                    latency_s=float(item["latency_s"]),
                )
            )
        return cls(samples)

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "stage": s.stage,
                    "model_bytes": s.model_bytes,
                    "gpus": s.gpus,
                    "batch": s.batch,
                    "latency_s": s.latency_s,
                }
                for s in self._samples
            ],
            indent=2,
        )


def _cell(grid: list[float], x: float) -> tuple[int, float]:
    """Index of the grid cell used for ``x`` (the edge cell outside the
    grid) and ``x``'s fractional position in it."""
    i = min(max(bisect_right(grid, x) - 1, 0), len(grid) - 2)
    return i, (x - grid[i]) / (grid[i + 1] - grid[i])


def max_batch_size(
    n_total: float,
    n_dense: float,
    gpus: int,
    hw: HardwareConfig,
    geom: GeometryFit,
) -> float:
    """Largest concurrent batch whose KV cache fits beside the weights.

        b = (gpus * gpu_mem - n_total * dtype_bytes)
            / ((2 * prompt_len + output_len) * kv_bytes_per_token)

    Each in-flight request holds prompt KV, a same-sized scratch margin, and
    output KV, hence the 2p + n tokens of cache per request.

    Args:
        n_total: parameter count including expert expansion (weight memory).
        n_dense: dense-equivalent size (KV geometry).
        gpus: GPU count, >= 1.

    Returns:
        Real-valued batch size > 0.

    Raises:
        InsufficientMemoryError: weights leave zero or negative headroom.
    """
    if gpus < 1:
        raise ValueError("gpus must be >= 1")
    if not n_total > 0 or not n_dense > 0:
        raise ValueError("parameter counts must be positive")
    weight_bytes = n_total * hw.dtype_bytes
    headroom = gpus * hw.gpu_mem_bytes - weight_bytes
    if headroom <= 0:
        min_gpus = int(math.floor(weight_bytes / hw.gpu_mem_bytes)) + 1
        raise InsufficientMemoryError(required_bytes=weight_bytes, min_gpus=min_gpus)
    tokens_per_request = 2.0 * hw.prompt_len + hw.output_len
    return headroom / (tokens_per_request * kv_cache_bytes_per_token(n_dense, geom, hw))


def throughput_for_batch(
    batch: float,
    model_bytes: float,
    gpus: int,
    hw: HardwareConfig,
    profile: LatencyProfile,
) -> float:
    """Steady-state tokens/second at a given concurrent batch size.

    Per decode iteration the server emits ``batch`` tokens and must also
    refill the ``batch / output_len`` requests that just finished, so one
    prompt iteration at that smaller batch rides along:

        T = batch / (L_prompt(batch / output_len) + L_decode(batch))

    A batch of zero serves nothing and returns 0.
    """
    return _throughput_and_flag(batch, model_bytes, gpus, hw, profile)[0]


def _throughput_and_flag(batch, model_bytes, gpus, hw, profile) -> tuple[float, bool]:
    """:func:`throughput_for_batch` plus whether either stage lookup left the profiled hull."""
    if batch <= 0:
        return 0.0, False
    lat_prompt, extrap_prompt = profile.interpolate("prompt", model_bytes, gpus, batch / hw.output_len)
    lat_decode, extrap_decode = profile.interpolate("decode", model_bytes, gpus, batch)
    total = lat_prompt + lat_decode
    if total <= 0:
        raise ValueError(
            "interpolated iteration latency is nonpositive; "
            "profile does not extend to this query"
        )
    return batch / total, extrap_prompt or extrap_decode


def throughput(
    n_dense: float,
    experts: float,
    gpus: int,
    hw: HardwareConfig,
    geom: GeometryFit,
    profile: LatencyProfile,
    arch: ArchitectureConvention = ArchitectureConvention(),
) -> float:
    """Tokens/second for a model served on ``gpus`` GPUs at max batch size."""
    n_total = total_params(n_dense, experts, arch)
    batch = max_batch_size(n_total, n_dense, gpus, hw, geom)
    return throughput_for_batch(batch, n_total * hw.dtype_bytes, gpus, hw, profile)


def cost_per_token(
    n_dense: float,
    experts: float,
    gpus: int,
    hw: HardwareConfig,
    geom: GeometryFit,
    profile: LatencyProfile,
    arch: ArchitectureConvention = ArchitectureConvention(),
) -> float:
    """Serving cost per generated token: gpus * price / throughput."""
    rate = throughput(n_dense, experts, gpus, hw, geom, profile, arch)
    if rate <= 0:
        raise UnservableError(f"zero throughput at gpus={gpus}")
    return gpus * hw.cost_per_gpu_second / rate


@dataclass(frozen=True)
class GpuCostChoice:
    """Cheapest GPU count for one model, with the numbers behind it."""

    gpus: int
    cost_per_token: float
    throughput: float
    batch: float
    extrapolated: bool


def _row_for_gpus(n_dense, n_total, g, hw, geom, profile):
    model_bytes = n_total * hw.dtype_bytes
    row = {
        "gpus": g,
        "feasible": False,
        "batch": math.nan,
        "throughput": math.nan,
        "cost_per_token": math.nan,
        "extrapolated": False,
        "note": "",
    }
    try:
        batch = max_batch_size(n_total, n_dense, g, hw, geom)
    except InsufficientMemoryError as exc:
        row["note"] = f"weights do not fit; needs >= {exc.min_gpus} gpus"
        return row
    try:
        rate, extrap = _throughput_and_flag(batch, model_bytes, g, hw, profile)
    except MissingProfileSliceError:
        row["note"] = "no profile slice at this gpu count"
        return row
    if rate <= 0:
        row["note"] = "zero throughput"
        return row
    row.update(
        feasible=True,
        batch=batch,
        throughput=rate,
        cost_per_token=g * hw.cost_per_gpu_second / rate,
        extrapolated=extrap,
    )
    return row


def cost_table(
    n_dense: float,
    experts: float,
    hw: HardwareConfig,
    geom: GeometryFit,
    profile: LatencyProfile,
    arch: ArchitectureConvention = ArchitectureConvention(),
) -> list[dict]:
    """Per-GPU-count serving table for one model (1..max_gpus, all rows kept)."""
    n_total = total_params(n_dense, experts, arch)
    return [_row_for_gpus(n_dense, n_total, g, hw, geom, profile) for g in range(1, hw.max_gpus + 1)]


def min_cost_over_gpus(
    n_dense: float,
    experts: float,
    hw: HardwareConfig,
    geom: GeometryFit,
    profile: LatencyProfile,
    arch: ArchitectureConvention = ArchitectureConvention(),
) -> GpuCostChoice:
    """Cheapest feasible GPU count in 1..max_gpus.

    Skips counts where the weights do not fit or the profile has no slice;
    exact cost ties resolve to the smaller GPU count.

    Raises:
        NoFeasibleGpuError: every count in range is infeasible.
    """
    row = _cheapest(cost_table(n_dense, experts, hw, geom, profile, arch), n_dense, experts, hw, arch)
    return GpuCostChoice(**{f.name: row[f.name] for f in fields(GpuCostChoice)})


def _cheapest(rows, n_dense, experts, hw, arch) -> dict:
    """Cheapest feasible row of a :func:`cost_table`; ties go to fewer GPUs."""
    best = None
    for row in rows:
        if not row["feasible"]:
            continue
        if best is None or row["cost_per_token"] < best["cost_per_token"]:
            best = row
    if best is None:
        n_total = total_params(n_dense, experts, arch)
        raise NoFeasibleGpuError(
            required_bytes=n_total * hw.dtype_bytes, max_gpus=hw.max_gpus
        )
    return best
