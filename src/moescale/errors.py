"""Exception types shared across the package.

Library code raises plain ValueError for malformed arguments (bad shapes,
nonpositive sizes, unknown config keys).  The classes below mark domain
conditions a caller may want to catch and handle separately, e.g. to relax
a bound or add hardware.
"""

from __future__ import annotations


class MoescaleError(Exception):
    """Base class for domain errors raised by this package."""


class InsufficientMemoryError(MoescaleError):
    """Model weights do not leave any KV-cache headroom at this GPU count.

    Attributes:
        required_bytes: weight memory the model needs.
        min_gpus: smallest GPU count with positive headroom.
    """

    def __init__(self, required_bytes: float, min_gpus: int):
        self.required_bytes = required_bytes
        self.min_gpus = min_gpus
        super().__init__(
            f"weights need {required_bytes:.3e} bytes; "
            f"smallest GPU count with headroom is {min_gpus}"
        )


class NoFeasibleGpuError(MoescaleError):
    """No GPU count up to the hardware limit can serve the model. ``notes``
    says why the counts that fit the weights cannot; it is empty when none do."""

    def __init__(self, required_bytes: float, max_gpus: int, notes=()):
        self.required_bytes = required_bytes
        self.max_gpus = max_gpus
        self.notes = tuple(notes)
        super().__init__(
            f"no servable GPU count up to {max_gpus}: every count that fits the {required_bytes:.3e} "
            f"bytes of weights is unservable ({'; '.join(self.notes)})"
            if self.notes
            else f"model too large for hardware: needs {required_bytes:.3e} bytes "
            f"of weight memory, no feasible GPU count up to {max_gpus}"
        )


class MissingProfileSliceError(MoescaleError):
    """The latency profile has no samples for a requested (stage, gpus) pair."""

    def __init__(self, stage: str, gpus: int):
        self.stage = stage
        self.gpus = gpus
        super().__init__(f"profile has no ({stage!r}, gpus={gpus}) slice")


class UnservableError(MoescaleError):
    """This GPU count cannot serve the model: its throughput is zero or its
    interpolated latency is nonpositive, so cost per token is undefined."""


class QualityBoundUnreachableError(MoescaleError):
    """Even the loss-optimal model at this expert count misses the loss target.

    Attributes:
        gap: best attainable loss minus the target (positive).
    """

    def __init__(self, target: float, best: float):
        self.target = target
        self.best = best
        self.gap = best - target
        super().__init__(
            f"quality bound unreachable: best attainable loss {best:.6g} "
            f"exceeds target {target:.6g} by {best - target:.3g}"
        )


class CostBoundUnreachableError(MoescaleError):
    """Even the smallest admissible model exceeds the inference cost bound.

    Attributes:
        gap: cheapest attainable cost minus the bound (positive).
    """

    def __init__(self, bound: float, cheapest: float):
        self.bound = bound
        self.cheapest = cheapest
        self.gap = cheapest - bound
        super().__init__(
            f"cost bound unreachable: cheapest configuration costs "
            f"{cheapest:.6g} per token, above the bound {bound:.6g}"
        )


class SearchBoundsError(MoescaleError):
    """A search converged onto an interval endpoint, so the optimum lies outside.

    Attributes:
        endpoint: "lower" or "upper".
    """

    def __init__(self, endpoint: str, value: float):
        self.endpoint = endpoint
        self.value = value
        super().__init__(
            f"search bounds too tight: minimizer pinned at the {endpoint} "
            f"bound ({value:.6g}); widen n_bounds"
        )


class NonMonotoneBranchError(MoescaleError):
    """Loss failed its expected strict decrease on the under-trained branch."""


class FitFailedError(MoescaleError):
    """Every optimizer start diverged or returned a non-finite objective."""


class IdentifiabilityWarning(UserWarning):
    """Training runs do not vary along some axis a fitted exponent needs."""
