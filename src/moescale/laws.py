"""Loss laws and parameter-counting conventions for expert-sparse transformers.

This module holds the pure math everything else builds on:

  * ``effective_experts`` -- saturating transform mapping a raw expert count
    onto the effective count the loss law consumes.
  * ``predict_loss`` / ``predict_loss_dense`` -- loss as a function of dense
    model size, training tokens, and expert count.
  * ``total_params`` / ``activated_params`` / ``training_flops`` -- parameter
    and compute accounting for top-k routed expert models.
  * ``suggested_learning_rate`` -- peak-LR heuristic in model size.

All evaluation functions accept scalars or numpy arrays and broadcast.

Inputs are checked once, where they enter: by the public functions and the
parameter dataclasses. The unchecked cores ``_loss`` and ``_expanded`` serve
them and the allocation searches. ``_loss`` keeps numpy's ufuncs, since
``math.exp`` differs from ``np.exp`` in the last ulp on ~5% of inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

__all__ = [
    "ArchitectureConvention",
    "ScalingLawParams",
    "DenseLawParams",
    "effective_experts",
    "predict_loss",
    "predict_loss_dense",
    "total_params",
    "activated_params",
    "training_flops",
    "suggested_learning_rate",
]


def _as_float_array(x: Any, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _scalar_like(out: np.ndarray, *inputs: Any) -> Any:
    # Mirror numpy ufunc behavior: scalar inputs give a python float back.
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


@dataclass(frozen=True)
class ArchitectureConvention:
    """Accounting conventions tying dense-equivalent size to real models.

    Attributes:
        ffn_fraction: fraction of dense parameters duplicated per extra
            expert (feed-forward share of the block).
        top_k: experts routed per token.
        flops_per_param_token: training FLOPs per activated parameter per
            token.
    """

    ffn_fraction: float = 1.0 / 3.0
    top_k: int = 2
    flops_per_param_token: float = 6.0

    def __post_init__(self):
        if not 0.0 <= self.ffn_fraction <= 1.0:
            raise ValueError("ffn_fraction must lie in [0, 1]")
        if self.top_k < 1:
            raise ValueError("top_k must be a positive integer")
        if self.flops_per_param_token <= 0:
            raise ValueError("flops_per_param_token must be positive")


def _validated_flat_dict(cls, data: dict) -> dict:
    """Check a flat JSON-style dict against a dataclass' field set."""
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ValueError(f"unknown keys for {cls.__name__}: {', '.join(unknown)}")
    missing = sorted(set(names) - set(data))
    if missing:
        raise ValueError(f"missing keys for {cls.__name__}: {', '.join(missing)}")
    return {name: float(data[name]) for name in names}


@dataclass(frozen=True)
class ScalingLawParams:
    """Fitted constants of the expert-aware loss law.

    The law evaluated by :func:`predict_loss` is

        log L = log(coef_N/N^alpha + coef_E/Ehat^beta + coef_D/D^gamma
                    + irreducible) + interaction * log N * log Ehat

    with ``Ehat = effective_experts(E, e_start, e_max)``.

    ``irreducible`` is nominally >= 0; slightly negative fitted values are
    representable, and evaluation rejects any point where the additive
    bracket stops being positive.
    """

    coef_N: float
    coef_E: float
    coef_D: float
    irreducible: float
    alpha: float
    beta: float
    gamma: float
    interaction: float
    e_start: float
    e_max: float

    def __post_init__(self):
        for name in ("coef_N", "coef_E", "coef_D"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not 0.0 <= value <= 4.0:
                raise ValueError(f"{name} must lie in [0, 4]")
        if not self.e_start >= 1.0:
            raise ValueError("e_start must be >= 1")
        if not self.e_max > self.e_start:
            raise ValueError("e_max must exceed e_start")
        if not np.isfinite(self.e_max):
            raise ValueError("e_start and e_max must be finite")
        for name in ("irreducible", "interaction"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def to_dict(self) -> dict[str, float]:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ScalingLawParams":
        return cls(**_validated_flat_dict(cls, data))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScalingLawParams":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("expected a flat JSON object of law parameters")
        return cls.from_dict(data)


@dataclass(frozen=True)
class DenseLawParams:
    """Constants of the two-term dense loss law used by the closed form.

    :func:`predict_loss_dense` evaluates

        L = l0 + coef_N / N^alpha + coef_D / D^beta
    """

    l0: float
    coef_N: float
    coef_D: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.l0 < 0:
            raise ValueError("l0 must be >= 0")
        for name in ("coef_N", "coef_D"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("alpha", "beta"):
            if not 0.0 < getattr(self, name) <= 4.0:
                raise ValueError(f"{name} must lie in (0, 4]")

    def to_dict(self) -> dict[str, float]:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "DenseLawParams":
        return cls(**_validated_flat_dict(cls, data))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DenseLawParams":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("expected a flat JSON object of law parameters")
        return cls.from_dict(data)


def effective_experts(E, e_start: float, e_max: float):
    """Map a raw expert count onto the saturating effective count.

    The transform is fixed by two anchors: one expert maps to ``e_start``
    exactly, and the value approaches ``e_max`` as E grows. In between it
    interpolates through

        1/Ehat = 1/(E - 1 + s) + 1/e_max,   s = (1/e_start - 1/e_max)^-1

    Args:
        E: expert count(s), real >= 1. Search and fitting code evaluates at
            non-integer E; integrality is not required.
        e_start: value at E = 1, >= 1.
        e_max: supremum approached as E -> inf, > e_start.

    Returns:
        Effective expert count, same shape as E.
    """
    if not (np.isfinite(e_start) and np.isfinite(e_max)):
        raise ValueError("e_start and e_max must be finite")
    if e_start < 1.0:
        raise ValueError("e_start must be >= 1")
    if e_max <= e_start:
        raise ValueError("e_max must exceed e_start")
    return _scalar_like(_effective_experts_core(_experts(E), e_start, e_max, e_max - e_start), E)


def _experts(E) -> np.ndarray:
    e = _as_float_array(E, "E")
    if np.any(e < 1.0):
        raise ValueError("expert count must be >= 1")
    return e


def _effective_experts_core(e: np.ndarray, e_start: float, e_max: float, gap: float) -> np.ndarray:
    """Unchecked transform with the anchor gap ``e_max - e_start`` passed in.

    Callers that hold the gap directly (the fitter parameterizes it as
    ``exp(v)``) keep it exact; recomputing it from nearby anchors would
    cancel.
    """
    # (1/e_start - 1/e_max)^-1, written without the subtraction so nearby
    # anchors don't cancel.
    spread = e_start * e_max / gap
    out = 1.0 / (1.0 / (e - 1.0 + spread) + 1.0 / e_max)
    # At E = 1 the transform collapses algebraically to e_start; pin it so
    # the anchor holds exactly instead of to round-off.
    return np.where(e == 1.0, e_start, out)


def predict_loss(N, D, E, params: ScalingLawParams):
    """Evaluate the expert-aware loss law.

    Args:
        N: dense-equivalent parameter count(s), > 0.
        D: training token count(s), > 0.
        E: expert count(s), >= 1.
        params: law constants.

    Returns:
        Predicted validation loss, broadcast over the inputs.

    Raises:
        ValueError: on nonpositive N or D, E < 1, or a parameter point where
            the additive bracket is <= 0 (possible only when
            ``params.irreducible`` is negative).
    """
    n = _as_float_array(N, "N")
    d = _as_float_array(D, "D")
    if np.any(n <= 0):
        raise ValueError("N must be positive")
    if np.any(d <= 0):
        raise ValueError("D must be positive")
    return _scalar_like(_loss(n, d, _experts(E), params), N, D, E)


def _loss(n, d, e, params: ScalingLawParams):
    """:func:`predict_loss` on finite N, D > 0 and E >= 1; checks only the bracket."""
    log_n = np.log(n)
    log_ehat = np.log(_effective_experts_core(e, params.e_start, params.e_max, params.e_max - params.e_start))
    bracket = (
        params.coef_N * np.exp(-params.alpha * log_n)
        + params.coef_E * np.exp(-params.beta * log_ehat)
        + params.coef_D * np.exp(-params.gamma * np.log(d))
        + params.irreducible
    )
    if (bracket <= 0).any():
        raise ValueError(
            "additive loss bracket is nonpositive at this point; "
            "the fitted irreducible term is too negative"
        )
    return np.exp(np.log(bracket) + params.interaction * log_n * log_ehat)


def predict_loss_dense(N, D, params: DenseLawParams):
    """Evaluate the dense two-term loss law L = l0 + coef_N/N^a + coef_D/D^b."""
    n = _as_float_array(N, "N")
    d = _as_float_array(D, "D")
    if np.any(n <= 0) or np.any(d <= 0):
        raise ValueError("N and D must be positive")
    out = (
        params.l0
        + params.coef_N * np.exp(-params.alpha * np.log(n))
        + params.coef_D * np.exp(-params.beta * np.log(d))
    )
    return _scalar_like(out, N, D)


def _sizes(N, E) -> tuple[np.ndarray, np.ndarray]:
    n = _as_float_array(N, "N")
    e = _as_float_array(E, "E")
    if np.any(n <= 0):
        raise ValueError("N must be positive")
    if np.any(e < 1):
        raise ValueError("expert count must be >= 1")
    return n, e


def _expanded(n, k, arch: ArchitectureConvention):
    """Parameters of a size-n model with k experts' worth of feed-forward blocks."""
    return n * (1.0 + (k - 1.0) * arch.ffn_fraction)


def total_params(N, E, arch: ArchitectureConvention = ArchitectureConvention()):
    """Total parameter count of an E-expert model with dense-equivalent size N.

    Each expert beyond the first duplicates the feed-forward share:
    ``N * (1 + (E - 1) * ffn_fraction)``.
    """
    n, e = _sizes(N, E)
    return _scalar_like(_expanded(n, e, arch), N, E)


def activated_params(N, E, arch: ArchitectureConvention = ArchitectureConvention()):
    """Parameters activated per token under top-k routing.

    Routing touches min(top_k, E) experts, so the count is independent of E
    once E >= top_k and collapses to ``total_params`` below that.
    """
    n, e = _sizes(N, E)
    return _scalar_like(_expanded(n, np.minimum(float(arch.top_k), e), arch), N, E)


def training_flops(N, D, E, arch: ArchitectureConvention = ArchitectureConvention()):
    """Training compute: flops_per_param_token * activated_params * tokens."""
    d = _as_float_array(D, "D")
    if np.any(d <= 0):
        raise ValueError("D must be positive")
    act = np.asarray(activated_params(N, E, arch))
    out = arch.flops_per_param_token * act * d
    return _scalar_like(out, N, D, E)


# Empirical peak-LR heuristic; coefficients calibrated on small-model sweeps.
_LR_INTERCEPT = 0.003239
_LR_SLOPE = -0.0001395


def suggested_learning_rate(N):
    """Heuristic peak learning rate for a dense-equivalent size N.

    Linear in ln N: ``0.003239 - 0.0001395 * ln N``. Only meaningful over
    the model sizes the calibration covered (roughly 1e7 to 1e10 params);
    the line crosses zero near N = 1.2e10, so callers straying past that
    should clamp.
    """
    n = _as_float_array(N, "N")
    if np.any(n <= 0):
        raise ValueError("N must be positive")
    out = _LR_INTERCEPT + _LR_SLOPE * np.log(n)
    return _scalar_like(out, N)
