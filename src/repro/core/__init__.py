"""HCC-MF core: the paper's primary contribution.

Orchestrates heterogeneous CPU/GPU collaborative SGD-based matrix
factorization in the "asynchronous + synchronous" parameter-server mode
of paper Figure 4: a server CPU manages data distribution and
synchronization while worker CPUs/GPUs compute asynchronously on their
row-grid assignments.

Public entry point: :class:`repro.core.framework.HCCMF`.
"""

from repro.core.config import (
    HCCConfig,
    CommConfig,
    PartitionStrategy,
    CommBackendKind,
    TransmitMode,
)
from repro.core.compression import (
    compress_fp16,
    decompress_fp16,
    roundtrip_error,
    FP16_RELATIVE_ERROR_BOUND,
)
from repro.core.comm import CommModel, CommPlan
from repro.core.cost_model import TimeCostModel, EpochCost, WorkerCost, Regime
from repro.core.partition import (
    PartitionPlan,
    dp0,
    dp1,
    dp2,
    even_partition,
    exposed_sync_time,
)
from repro.core.worker import WorkerRuntime
from repro.core.framework import HCCMF, TrainResult
from repro.core.autotune import autotune, tuned_config, TunedConfig, TuningReport
from repro.core.checkpoint import (
    Checkpoint,
    CheckpointVersionError,
    save_checkpoint,
    load_checkpoint,
    read_checkpoint_meta,
    resume_hogwild,
)
from repro.core.adaptive import AdaptiveRepartitioner, SlowdownEvent, simulate_adaptive_run, AdaptiveRunResult
from repro.core.convergence import epochs_to_target, time_to_target, speedup_at_target, fit_exponential, ExponentialFit
from repro.core.theorem import equalizing_partition, makespan, verify_theorem1, Theorem1Report
from repro.core.metrics import computing_power, ideal_computing_power, utilization, speedup

__all__ = [
    "HCCConfig",
    "CommConfig",
    "PartitionStrategy",
    "CommBackendKind",
    "TransmitMode",
    "compress_fp16",
    "decompress_fp16",
    "roundtrip_error",
    "FP16_RELATIVE_ERROR_BOUND",
    "CommModel",
    "CommPlan",
    "TimeCostModel",
    "EpochCost",
    "WorkerCost",
    "Regime",
    "PartitionPlan",
    "dp0",
    "dp1",
    "dp2",
    "even_partition",
    "exposed_sync_time",
    "WorkerRuntime",
    "HCCMF",
    "TrainResult",
    "autotune",
    "tuned_config",
    "TunedConfig",
    "TuningReport",
    "Checkpoint",
    "CheckpointVersionError",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
    "resume_hogwild",
    "AdaptiveRepartitioner",
    "SlowdownEvent",
    "simulate_adaptive_run",
    "AdaptiveRunResult",
    "epochs_to_target",
    "time_to_target",
    "speedup_at_target",
    "fit_exponential",
    "ExponentialFit",
    "equalizing_partition",
    "makespan",
    "verify_theorem1",
    "Theorem1Report",
    "computing_power",
    "ideal_computing_power",
    "utilization",
    "speedup",
]
