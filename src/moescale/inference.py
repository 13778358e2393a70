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

One array kernel, :func:`cost_grid`, runs the whole chain for a vector of
sizes at every GPU count 1..max_gpus and returns ``(sizes, gpus)`` arrays of
batch, throughput, cost, extrapolation flag and a status code per cell
(servable, weights do not fit, no profile slice, zero throughput,
nonpositive latency); a batch below one request serves nothing, as in
``serve_simulate``. It never raises for a serving condition: ``cost_table``
notes why each unservable GPU count is infeasible, ``min_cost_over_gpus``
skips it, and the one-cell views (``throughput``, ``cost_per_token``) raise
a typed error, ``UnservableError`` naming the GPU count where no cost holds.
Its lookup runs on tensors the profile builds on the first cost query for
a set of GPU counts and keeps (the profile is immutable): each stage's
slices stacked row by row, grid points padded with +inf to a common
length, so the cell index ``clip(count(grid <= x) - 1, 0, n - 2)`` is
``bisect_right``'s, and the four corner terms are summed from 0.0 in the
scalar lookup's order. Results match the scalar chain bit for bit. The KV
term keeps Python's ``**`` per size, because ``np.power`` differs from it
in the last ulp on some sizes.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

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
    "CostGrid",
    "SERVABLE",
    "NO_MEMORY",
    "NO_SLICE",
    "ZERO_THROUGHPUT",
    "NONPOSITIVE_LATENCY",
    "fit_geometry",
    "kv_cache_bytes_per_token",
    "max_batch_size",
    "throughput_for_batch",
    "throughput",
    "cost_per_token",
    "min_cost_over_gpus",
    "cost_table",
    "cost_grid",
]

PROFILE_STAGES = ("prompt", "decode")

# Status of one (size, GPU count) cell of a cost grid.
SERVABLE, NO_MEMORY, NO_SLICE, ZERO_THROUGHPUT, NONPOSITIVE_LATENCY = range(5)
_NOTES = {NO_SLICE: "no profile slice at this gpu count", ZERO_THROUGHPUT: "zero throughput",
          NONPOSITIVE_LATENCY: "interpolated latency is nonpositive"}
_OVERFLOW = "model weight bytes must be finite"
_BATCH_OVERFLOW = "serving batch must be finite; check the KV geometry and GPU memory"


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
    thread-safe. The first cost query for a set of GPU counts also builds
    padded array copies of those slices (see :func:`cost_grid`) and keeps
    them; two threads racing to build the same copy store equal arrays.

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
        self._tensors: dict[tuple, _ProfileTensor] = {}

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

    def _lookup(self, gpus: tuple, model_bytes, prompt_batch, decode_batch):
        """:meth:`interpolate` of both stages for sizes (rows) x GPU counts
        (columns), unchecked.

        ``model_bytes`` has one entry per size and each batch array one per
        cell. Returns each stage's latencies and out-of-hull flags, and
        whether both slices exist at each GPU count; where one is missing
        the cells hold meaningless numbers.
        """
        t = self._tensor(gpus)
        i, y0, out_b = _cells(t.batches, np.concatenate([prompt_batch, decode_batch], axis=1))
        j, y1, out_m = _cells(t.models, model_bytes[:, None])
        km = t.values.shape[2]
        corner = (t.first_value + i * km) + j
        v = t.values.ravel()
        value = (
            0.0
            + v[corner] * (1 - y0) * (1 - y1)
            + v[corner + 1] * (1 - y0) * y1
            + v[corner + km] * y0 * (1 - y1)
            + v[corner + km + 1] * y0 * y1
        )
        outside = out_b | out_m
        g = len(gpus)
        return value[:, :g], outside[:, :g], value[:, g:], outside[:, g:], t.present

    def _tensor(self, gpus: tuple) -> "_ProfileTensor":
        """The prompt then the decode slice at each GPU count in ``gpus``, as
        padded arrays; built on the first cost query that asks for them and
        kept."""
        tensor = self._tensors.get(gpus)
        if tensor is None:
            keys = [(stage, g) for stage in PROFILE_STAGES for g in gpus]
            grids = [self._grids.get(key, _NO_SLICE_GRID) for key in keys]
            kb = max(len(b) for b, _, _ in grids)
            km = max(len(m) for _, m, _ in grids)
            values = np.zeros((len(grids), kb, km))
            for r, (b, m, v) in enumerate(grids):
                values[r, : len(b), : len(m)] = v
            has = np.array([key in self._grids for key in keys]).reshape(2, len(gpus))
            tensor = self._tensors[gpus] = _ProfileTensor(
                batches=_PaddedGrid.of([b for b, _, _ in grids]),
                models=_PaddedGrid.of([m for _, m, _ in grids]),
                values=values,
                first_value=np.arange(len(grids)) * kb * km,
                present=has[0] & has[1],
            )
        return tensor

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


class _PaddedGrid(NamedTuple):
    """One axis of several slices: a row of ascending points per slice,
    padded with +inf to a common length, with what a lookup needs of it."""

    points: np.ndarray
    rows: np.ndarray
    first: np.ndarray
    last: np.ndarray
    last_cell: np.ndarray

    @classmethod
    def of(cls, axes: list[list[float]]) -> "_PaddedGrid":
        points = np.full((len(axes), max(len(a) for a in axes)), np.inf)
        for r, a in enumerate(axes):
            points[r, : len(a)] = a
        n = np.array([len(a) for a in axes])
        return cls(points, np.arange(len(axes)), points[:, 0], points[np.arange(len(axes)), n - 1], n - 2)


class _ProfileTensor(NamedTuple):
    """Both stages' slices at a tuple of GPU counts, prompt rows first."""

    batches: _PaddedGrid
    models: _PaddedGrid
    values: np.ndarray
    first_value: np.ndarray
    present: np.ndarray


# Stands in for a missing slice so every row of a tensor indexes safely.
_NO_SLICE_GRID = ([0.0, 1.0], [0.0, 1.0], [[0.0, 0.0], [0.0, 0.0]])


def _cells(grid: _PaddedGrid, x: np.ndarray):
    """:func:`_cell` and the hull test for every cell, one grid row per
    column of ``x``. Counting the points ``<= x`` is ``bisect_right``,
    since the +inf padding never counts."""
    i = np.minimum(np.maximum((grid.points <= x[..., None]).sum(axis=-1) - 1, 0), grid.last_cell)
    lo = grid.points[grid.rows, i]
    outside = (x < grid.first) | (x > grid.last)
    return i, (x - lo) / (grid.points[grid.rows, i + 1] - lo), outside


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
        ValueError: the weight bytes or the batch overflow.
    """
    if gpus < 1:
        raise ValueError("gpus must be >= 1")
    if not n_total > 0 or not n_dense > 0:
        raise ValueError("parameter counts must be positive")
    weight_bytes = n_total * hw.dtype_bytes
    if not math.isfinite(weight_bytes):
        raise ValueError(_OVERFLOW)
    headroom = gpus * hw.gpu_mem_bytes - weight_bytes
    if headroom <= 0:
        raise InsufficientMemoryError(required_bytes=weight_bytes, min_gpus=_min_gpus(weight_bytes, hw))
    tokens_per_request = 2.0 * hw.prompt_len + hw.output_len
    with np.errstate(over="ignore", divide="ignore"):
        batch = headroom / (tokens_per_request * kv_cache_bytes_per_token(n_dense, geom, hw))
    if not math.isfinite(batch):
        raise ValueError(_BATCH_OVERFLOW)
    return batch


def _min_gpus(weight_bytes: float, hw: HardwareConfig) -> int:
    """Smallest GPU count whose memory exceeds the weights."""
    return int(math.floor(weight_bytes / hw.gpu_mem_bytes)) + 1


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

    A batch below one request serves nothing and returns 0.
    """
    if batch < 1:
        return 0.0
    if not batch > 0:
        raise ValueError("batch must be positive")
    if not model_bytes > 0:
        raise ValueError("model_bytes must be positive")
    rate, _, status = _serve(
        np.array([[batch]], dtype=float), np.array([model_bytes], dtype=float), [gpus], hw, profile
    )
    _raise_for_status(status[0, 0], gpus, profile)
    return float(rate[0, 0])


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
    return float(_served_cell(n_dense, experts, gpus, hw, geom, profile, arch).throughput[0, 0])


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
    grid = _served_cell(n_dense, experts, gpus, hw, geom, profile, arch)
    if grid.status[0, 0] == ZERO_THROUGHPUT:
        raise UnservableError(f"{_NOTES[ZERO_THROUGHPUT]} at gpus={gpus}")
    return float(grid.cost_per_token[0, 0])


def _served_cell(n_dense, experts, gpus, hw, geom, profile, arch) -> "CostGrid":
    """The one-cell grid of a model on ``gpus`` GPUs; raises where the cell
    cannot be priced (zero throughput is left to the caller)."""
    grid = cost_grid([n_dense], experts, hw, geom, profile, arch, gpus=[gpus])
    if grid.status[0, 0] == NO_MEMORY:
        weight_bytes = float(grid.weight_bytes[0])
        raise InsufficientMemoryError(required_bytes=weight_bytes, min_gpus=_min_gpus(weight_bytes, hw))
    _raise_for_status(grid.status[0, 0], gpus, profile)
    return grid


def _raise_for_status(status, gpus, profile) -> None:
    if status == NO_SLICE:
        g = int(gpus)
        raise MissingProfileSliceError("decode" if profile.has_slice("prompt", g) else "prompt", g)
    if status == NONPOSITIVE_LATENCY:
        raise UnservableError(f"{_NOTES[status]} at gpus={gpus}")


@dataclass(frozen=True)
class GpuCostChoice:
    """Cheapest GPU count for one model, with the numbers behind it."""

    gpus: int
    cost_per_token: float
    throughput: float
    batch: float
    extrapolated: bool


class CostGrid(NamedTuple):
    """Serving numbers of each size (rows) at each GPU count (columns).

    ``status`` says which numbers of a cell hold: ``batch`` unless the
    weights do not fit (NO_MEMORY); ``throughput`` and ``extrapolated`` for
    SERVABLE and ZERO_THROUGHPUT cells; ``cost_per_token`` for SERVABLE ones.
    """

    gpus: tuple
    weight_bytes: np.ndarray
    batch: np.ndarray
    throughput: np.ndarray
    cost_per_token: np.ndarray
    extrapolated: np.ndarray
    status: np.ndarray


def cost_grid(
    n_dense,
    experts: float,
    hw: HardwareConfig,
    geom: GeometryFit,
    profile: LatencyProfile,
    arch: ArchitectureConvention = ArchitectureConvention(),
    gpus: Sequence[int] | None = None,
) -> CostGrid:
    """Price every size at every GPU count in one pass.

    The array form of max_batch_size -> throughput_for_batch -> cost per
    token, equal to it bit for bit. It does not raise for a serving
    condition: each cell's status reports it, checked in the scalar chain's
    order (weights do not fit, batch below one request, missing slice,
    nonpositive latency, zero throughput).

    Args:
        n_dense: dense-equivalent sizes, one row each.
        experts: expert count shared by every size.
        gpus: GPU counts to price, one column each (default 1..max_gpus).

    Raises:
        ValueError: a size or the expert count fails ``total_params``'
            checks, a size's weight bytes or a batch that fits overflow, or
            a GPU count is below 1.
    """
    sizes = np.atleast_1d(np.asarray(n_dense, dtype=float))
    with np.errstate(over="ignore"):
        weight_bytes = total_params(sizes, experts, arch) * hw.dtype_bytes
    if not np.isfinite(weight_bytes).all():
        raise ValueError(_OVERFLOW)
    counts = tuple(range(1, hw.max_gpus + 1)) if gpus is None else tuple(gpus)
    if min(counts) < 1:
        raise ValueError("gpus must be >= 1")
    # Python's ** per size: np.power differs from it in the last ulp on some sizes
    kv = np.array([kv_cache_bytes_per_token(n, geom, hw) for n in sizes.tolist()])
    g = np.array(counts, dtype=float)
    with np.errstate(all="ignore"):
        headroom = g * hw.gpu_mem_bytes - weight_bytes[:, None]
        batch = headroom / ((2.0 * hw.prompt_len + hw.output_len) * kv)[:, None]
        if not np.isfinite(batch[headroom > 0]).all():
            raise ValueError(_BATCH_OVERFLOW)
        rate, extrapolated, status = _serve(batch, weight_bytes, counts, hw, profile)
        cost = g * hw.cost_per_gpu_second / rate
    status[headroom <= 0] = NO_MEMORY
    return CostGrid(counts, weight_bytes, batch, rate, cost, extrapolated, status)


def _serve(batch, model_bytes, gpus, hw, profile):
    """Throughput, extrapolation flag and status of every cell at its batch."""
    with np.errstate(all="ignore"):
        lat_prompt, out_prompt, lat_decode, out_decode, present = profile._lookup(
            tuple(int(g) for g in gpus), model_bytes, batch / hw.output_len, batch
        )
        total = lat_prompt + lat_decode
        rate = np.where(batch >= 1, batch / total, 0.0)
    status = np.full(batch.shape, SERVABLE, dtype=np.int8)
    status[rate <= 0] = ZERO_THROUGHPUT
    status[total <= 0] = NONPOSITIVE_LATENCY
    status[:, ~present] = NO_SLICE
    status[batch < 1] = ZERO_THROUGHPUT
    return rate, out_prompt | out_decode, status


def cost_table(
    n_dense: float,
    experts: float,
    hw: HardwareConfig,
    geom: GeometryFit,
    profile: LatencyProfile,
    arch: ArchitectureConvention = ArchitectureConvention(),
) -> list[dict]:
    """Per-GPU-count serving table for one model (1..max_gpus, all rows kept, unservable ones noted)."""
    grid = cost_grid([n_dense], experts, hw, geom, profile, arch)
    rows = []
    cells = zip(grid.gpus, grid.status[0].tolist(), grid.batch[0].tolist(), grid.throughput[0].tolist(),
                grid.cost_per_token[0].tolist(), grid.extrapolated[0].tolist())
    for g, status, batch, rate, cost, extrapolated in cells:
        row = {
            "gpus": g,
            "feasible": False,
            "batch": math.nan,
            "throughput": math.nan,
            "cost_per_token": math.nan,
            "extrapolated": False,
            "note": _NOTES.get(status, ""),
        }
        if status == SERVABLE:
            row.update(
                feasible=True, batch=batch, throughput=rate, cost_per_token=cost, extrapolated=extrapolated
            )
        elif status == NO_MEMORY:
            row["note"] = f"weights do not fit; needs >= {_min_gpus(float(grid.weight_bytes[0]), hw)} gpus"
        rows.append(row)
    return rows


def min_cost_over_gpus(
    n_dense: float,
    experts: float,
    hw: HardwareConfig,
    geom: GeometryFit,
    profile: LatencyProfile,
    arch: ArchitectureConvention = ArchitectureConvention(),
) -> GpuCostChoice:
    """Cheapest feasible GPU count in 1..max_gpus.

    Skips counts that cannot serve the model (see :func:`cost_table`'s
    notes); exact cost ties resolve to the smaller GPU count.

    Raises:
        NoFeasibleGpuError: every count in range is infeasible.
    """
    (choice,) = _cheapest_choices([n_dense], experts, hw, geom, profile, arch)
    if isinstance(choice, Exception):
        raise choice
    return choice


def _cheapest_choices(n_dense, experts, hw, geom, profile, arch) -> list:
    """:func:`min_cost_over_gpus` for every size, with the
    ``NoFeasibleGpuError`` it would raise for a size in that size's place."""
    grid = cost_grid(n_dense, experts, hw, geom, profile, arch)
    servable = grid.status == SERVABLE
    cost = np.where(servable, grid.cost_per_token, np.inf)
    best = cost.argmin(axis=1)
    sizes = np.arange(len(best))
    # a servable count priced at inf still beats every unservable one
    best = np.where(servable[sizes, best], best, servable.argmax(axis=1))
    cells = zip(
        grid.status.tolist(),
        servable[sizes, best].tolist(),
        grid.weight_bytes.tolist(),
        best.tolist(),
        grid.cost_per_token[sizes, best].tolist(),
        grid.throughput[sizes, best].tolist(),
        grid.batch[sizes, best].tolist(),
        grid.extrapolated[sizes, best].tolist(),
    )
    choices = []
    for status, ok, weight_bytes, k, cost, rate, batch, extrapolated in cells:
        if not ok:
            # why the counts with headroom fail, in GPU-count order; none when memory is the cause
            notes = [_NOTES[s] for s in dict.fromkeys(status) if s in _NOTES]
            choices.append(NoFeasibleGpuError(required_bytes=weight_bytes, max_gpus=hw.max_gpus, notes=notes))
        else:
            choices.append(GpuCostChoice(grid.gpus[k], cost, rate, batch, extrapolated))
    return choices
