"""Scaling laws, inference cost, and training-budget allocation for expert models."""

from .laws import (
    ArchitectureConvention,
    DenseLawParams,
    ScalingLawParams,
    activated_params,
    effective_experts,
    predict_loss,
    predict_loss_dense,
    suggested_learning_rate,
    total_params,
    training_flops,
)
from .fitting import (
    FitConfig,
    FitReport,
    StartDiagnostic,
    TrainingRun,
    default_grid_spec,
    fit_dense,
    fit_moe,
    huber,
    objective,
    rmsle,
    rmsle_dense,
    runs_from_csv,
    runs_to_csv,
)
from .inference import (
    CostGrid,
    GeometryFit,
    GpuCostChoice,
    HardwareConfig,
    LatencyProfile,
    LatencySample,
    cost_grid,
    cost_per_token,
    cost_table,
    fit_geometry,
    kv_cache_bytes_per_token,
    max_batch_size,
    min_cost_over_gpus,
    throughput,
    throughput_for_batch,
)
from .allocation import (
    AllocationResult,
    SearchConfig,
    dense_optimal,
    flops_ratio_to_match,
    frontier_sweep,
    loss_optimal_result,
    min_cost_for_bounded_loss,
    min_loss_for_bounded_cost,
    moe_loss_optimal,
)
from .synth import (
    AffineLatencyModel,
    SimulationResult,
    SynthSpec,
    dense_optimal_numeric,
    grid_argmin_loss,
    serve_simulate,
    synth_profile,
    synth_runs,
)
from .errors import (
    CostBoundUnreachableError,
    FitFailedError,
    IdentifiabilityWarning,
    InsufficientMemoryError,
    MissingProfileSliceError,
    MoescaleError,
    NoFeasibleGpuError,
    NonMonotoneBranchError,
    QualityBoundUnreachableError,
    SearchBoundsError,
    UnservableError,
)

__version__ = "0.1.0"
