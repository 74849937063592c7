"""Process-parallel parameter-server executor (wall-clock plane).

Implements the paper's execution architecture for real: the main
process is the server, each worker is an OS process (paper 3.5:
"the server and the workers are designed as process instances"), and
all feature traffic flows through shared memory:

* a shared **P** matrix — row-grid exclusivity lets workers update
  their user rows in place, no merging needed (Strategy 1's premise);
* shared **pull buffers** (``channel.depth`` of them, rotated per
  epoch) holding the epoch-base Q in the channel's wire format;
* one shared **push buffer** per worker for its locally-updated Q.

:class:`SharedMemoryTrainer` is a thin facade: the epoch loop itself
lives in :class:`repro.engine.pipeline.EpochEngine` driving a
:class:`repro.engine.backends.ProcessBackend`, which makes the paper's
strategy axes real in this plane — ``channel=`` selects the wire stack
(Q-only payloads, FP16 wire, double-buffered pulls) and ``partition=``
accepts any :class:`~repro.core.partition.PartitionPlan` or provider
(DP0/DP1/DP2 shard fractions), not just equal splits.

Passing ``telemetry=`` (a :class:`repro.obs.Telemetry`) instruments the
run: workers log pull/compute/push/barrier spans into per-worker
shared-memory rings (:mod:`repro.obs.spans` — one-copy, no queues), the
server adds sync/eval spans, and the run assembles a real
:class:`~repro.hardware.timeline.Timeline` plus a metrics registry.
With ``telemetry=None`` (the default) every timing call is skipped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.data.ratings import RatingMatrix
from repro.mf.model import MFModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    import os

    from repro.core.config import HCCConfig, RecoveryPolicy
    from repro.engine.channels import Channel
    from repro.obs import Telemetry
    from repro.resilience import FaultPlan, ResilienceSummary


@dataclass
class ParallelTrainResult:
    """Outcome of a shared-memory parallel training run."""

    rmse_history: list[float]
    elapsed_seconds: float
    epochs: int
    n_workers: int
    nnz: int
    model: MFModel = field(repr=False)
    telemetry: "Telemetry | None" = field(default=None, repr=False)
    #: what the resilience plane did, when any of its features were on
    resilience: "ResilienceSummary | None" = None

    @property
    def updates_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            # a sub-resolution run has no meaningful rate; 0.0 keeps
            # downstream aggregation (means, tables) finite
            return 0.0
        return self.nnz * self.epochs / self.elapsed_seconds


class SharedMemoryTrainer:
    """Multi-process HCC-MF-style trainer on host CPUs."""

    def __init__(
        self,
        ratings: RatingMatrix,
        k: int = 32,
        n_workers: int = 2,
        lr: float = 0.005,
        reg: float = 0.01,
        batch_size: int = 4096,
        seed: int = 0,
        telemetry: "Telemetry | None" = None,
        partition=None,
        channel: "Channel | None" = None,
        config: "HCCConfig | None" = None,
        barrier_timeout_s: float | None = None,
        fault_plan: "FaultPlan | None" = None,
        recovery: "RecoveryPolicy | None" = None,
        checkpoint_every: int = 0,
        checkpoint_path: "str | os.PathLike | None" = None,
        resume_from: "str | os.PathLike | None" = None,
        profile=None,
    ):
        # imported lazily to avoid a module-level cycle with
        # repro.engine.backends (which maps repro.parallel.shm segments)
        from repro.engine import (
            DEFAULT_BARRIER_TIMEOUT_S,
            QOnlyChannel,
            as_provider,
            channel_for,
        )

        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if k <= 0:
            raise ValueError("k must be positive")
        self.ratings = ratings
        self.k = k
        self.n_workers = n_workers
        self.lr = lr
        self.reg = reg
        self.batch_size = batch_size
        self.seed = seed
        #: partition provider: ``partition=`` takes a PartitionPlan, raw
        #: fractions or a provider
        self.partitions = as_provider(partition)
        # resolve once now so a bad partition fails at construction,
        # not after the workers spawn
        self.partitions.plan(n_workers)
        if channel is not None:
            self.channel = channel
        elif config is not None:
            self.channel = channel_for(config.comm, ratings.m, ratings.n)
        else:
            # the process plane is Strategy-1 by construction: P lives
            # in shared memory, only Q crosses the wire
            self.channel = QOnlyChannel()
        if barrier_timeout_s is not None:
            self.barrier_timeout_s = float(barrier_timeout_s)
        elif config is not None:
            self.barrier_timeout_s = config.barrier_timeout_s
        else:
            self.barrier_timeout_s = DEFAULT_BARRIER_TIMEOUT_S
        #: opt-in runtime telemetry (None = zero-overhead path)
        self.telemetry = telemetry
        #: structured fault injection (docs/resilience.md)
        self.fault_plan = fault_plan
        #: recovery policy; falls back to the config's, when one is given
        if recovery is not None:
            self.recovery = recovery
        elif config is not None:
            self.recovery = config.recovery
        else:
            self.recovery = None
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.resume_from = resume_from
        #: opt-in stage-attributed profiling hook
        #: (a :class:`repro.obs.profile.StageProfiler`)
        self.profile = profile

    def train(self, epochs: int = 5) -> ParallelTrainResult:
        from repro.engine import EpochEngine, ProcessBackend

        if epochs <= 0:
            raise ValueError("epochs must be positive")
        backend = ProcessBackend(
            self.ratings,
            k=self.k,
            n_workers=self.n_workers,
            lr=self.lr,
            reg=self.reg,
            batch_size=self.batch_size,
            seed=self.seed,
            barrier_timeout_s=self.barrier_timeout_s,
            fault_plan=self.fault_plan,
        )
        engine = EpochEngine(
            backend,
            channel=self.channel,
            partitions=self.partitions,
            telemetry=self.telemetry,
            recovery=self.recovery,
            checkpoint_every=self.checkpoint_every,
            checkpoint_path=self.checkpoint_path,
            resume_from=self.resume_from,
            profile=self.profile,
        )
        t0 = time.perf_counter()
        result = engine.run(epochs)
        elapsed = time.perf_counter() - t0
        history = result.rmse_history
        if self.telemetry is not None:
            self.telemetry.registry.gauge(
                "run_elapsed_seconds", "wall-clock of the whole run"
            ).set(elapsed)
            self.telemetry.registry.event(
                "run_complete", epochs=epochs, n_workers=backend.n_workers,
                elapsed_seconds=elapsed, final_rmse=history[-1],
            )
        return ParallelTrainResult(
            rmse_history=history,
            elapsed_seconds=elapsed,
            epochs=epochs,
            n_workers=backend.n_workers,
            nnz=backend.data.nnz,
            model=backend.model,
            telemetry=self.telemetry,
            resilience=result.resilience,
        )
