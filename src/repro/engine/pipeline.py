"""The epoch engine: one composable training loop for every plane.

The paper's training step (Figure 4, steps 4-7) is the same pipeline no
matter which substrate executes it::

    PartitionProvider -> Channel.pull -> ComputeBackend -> Channel.push -> SyncPolicy

:class:`EpochEngine` drives that stage sequence.  Everything
substrate-specific lives behind the :class:`ComputeBackend` protocol
(:mod:`repro.engine.backends`): the sim plane advances the calibrated
cost model and runs the in-process numeric kernels; the process plane
coordinates real worker processes over shared memory.  Everything
strategy-specific lives in the channel stack
(:mod:`repro.engine.channels`) and the partition provider
(:mod:`repro.engine.partitions`), so a strategy knob is turned in
exactly one place and both planes feel it.

The engine is also the single emission point for run-level telemetry:
per-epoch RMSE gauges and events, and the stage trace — an auditable
``(epoch, stage, detail)`` record that the parity gate diffs across
backends to prove the planes execute the same sequence.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence, runtime_checkable

from repro.core.config import RecoveryPolicy
from repro.core.partition import PartitionPlan
from repro.engine.backends import WirePayloadError, WorkerSyncError
from repro.engine.channels import Channel
from repro.engine.partitions import PartitionProvider, as_provider
from repro.resilience.health import HealthReport
from repro.resilience.policy import (
    RecoveryAction,
    ResilienceSummary,
    TrainingAborted,
    decide,
    redistribute,
)

#: The fixed per-epoch stage sequence (paper Figure 4 steps 4-7).
STAGES = ("pull", "compute", "push", "sync")

#: Failures the recovery policy may handle; anything else propagates.
RECOVERABLE_ERRORS = (WorkerSyncError, WirePayloadError)


# ---------------------------------------------------------------------------
# sync policies (how worker results merge into the global model)
# ---------------------------------------------------------------------------
class SyncPolicy:
    """Weighting of the server's delta merge ``Q += w * (Q_i - Q_base)``."""

    name = "additive-delta"

    def weight(self, worker_id: int, fractions: Sequence[float]) -> float:
        """Merge weight for one worker's push."""
        return 1.0


class AdditiveDeltaSync(SyncPolicy):
    """HCC-MF's default: ``w_i = 1``.

    Row-grid workers train on disjoint samples, so their deltas are
    distinct SGD steps that all apply; averaging would under-apply the
    epoch's updates (see :func:`repro.engine.backends.merge_pushes`).
    """


class WeightedAverageSync(SyncPolicy):
    """``w_i = x_i``: for entry-level partitions whose shards overlap."""

    name = "weighted-average"

    def weight(self, worker_id: int, fractions: Sequence[float]) -> float:
        return float(fractions[worker_id])


# ---------------------------------------------------------------------------
# backend protocol
# ---------------------------------------------------------------------------
@runtime_checkable
class ComputeBackend(Protocol):
    """One epoch substrate: what each pipeline stage means for real.

    ``open`` receives the resolved plan, channel stack, sync policy,
    telemetry and epoch count before the first epoch (process backends
    need the count up front to size span rings and spawn workers); the
    four stage methods run once
    per epoch in :data:`STAGES` order and return an accounting detail
    mapping; ``evaluate`` closes the epoch (RMSE, or ``None`` on pure
    timing runs); ``finalize`` attaches span artifacts to telemetry on
    success; ``close`` releases resources unconditionally.
    """

    name: str
    n_workers: int

    def open(self, plan: PartitionPlan, channel: Channel,
             sync_policy: SyncPolicy, telemetry, epochs: int) -> None: ...
    def pull(self, epoch: int) -> Mapping: ...
    def compute(self, epoch: int) -> Mapping: ...
    def push(self, epoch: int) -> Mapping: ...
    def sync(self, epoch: int) -> Mapping: ...
    def evaluate(self, epoch: int) -> "float | None": ...
    def finalize(self, telemetry) -> None: ...
    def close(self) -> None: ...


# ---------------------------------------------------------------------------
# stage trace + result
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StageEvent:
    """One executed pipeline stage with its accounting detail."""

    epoch: int
    stage: str
    detail: Mapping = field(default_factory=dict)


@dataclass
class EngineResult:
    """Everything one engine run produced, backend-agnostic."""

    backend: str
    channel: str
    sync_policy: str
    plan: PartitionPlan
    epochs: int
    stage_trace: tuple[StageEvent, ...]
    rmse_history: list[float]
    model: object | None = field(default=None, repr=False)
    sim_seconds: float = 0.0
    #: what the resilience plane did (None on a plain fail-fast run)
    resilience: ResilienceSummary | None = None
    #: the plan the run *finished* on — differs from ``plan`` after a
    #: redistribution; the chaos-parity harness compares its fractions
    final_plan: PartitionPlan | None = None

    def stage_sequence(self) -> list[tuple[int, str]]:
        """The executed ``(epoch, stage)`` order — the parity signature."""
        return [(e.epoch, e.stage) for e in self.stage_trace]

    def epoch_updates(self) -> dict[int, tuple[int, ...]]:
        """Per-epoch per-worker SGD update counts, from compute stages."""
        out: dict[int, tuple[int, ...]] = {}
        for event in self.stage_trace:
            if event.stage == "compute" and "updates" in event.detail:
                out[event.epoch] = tuple(event.detail["updates"])
        return out

    def wire_bytes(self, stage: str) -> int:
        """Total bytes the trace accounts for one stage across epochs."""
        if stage not in ("pull", "push"):
            raise ValueError("wire bytes exist for the pull and push stages")
        return sum(
            int(e.detail.get("wire_bytes", 0))
            for e in self.stage_trace
            if e.stage == stage
        )

    @property
    def updates_applied(self) -> int:
        return sum(sum(u) for u in self.epoch_updates().values())


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------
class EpochEngine:
    """Drive the stage pipeline over a backend for a number of epochs.

    Beyond the plain loop, the engine owns the run's *resilience plane*
    (docs/resilience.md), all opt-in:

    * ``recovery=`` (a :class:`~repro.core.config.RecoveryPolicy`)
      turns worker failures from fatal into recoverable: transient
      failures retry the epoch with exponential backoff, a dead worker
      triggers a shard redistribution across the survivors, and
      exhausted recovery checkpoints (when a path is configured) and
      raises :class:`~repro.resilience.TrainingAborted`;
    * ``checkpoint_every=``/``checkpoint_path=`` write an atomic
      checkpoint at epoch boundaries;
    * ``resume_from=`` warm-starts from a saved checkpoint, replaying
      the completed epochs out of the workers' RNG streams so a
      resumed run continues the exact sample order of the
      straight-through run.

    ``profile=`` (a :class:`~repro.obs.profile.StageProfiler`) wraps
    every stage dispatch — the four pipeline stages plus ``evaluate`` —
    in a per-stage cProfile scope, and points backends that support
    worker-side profiling (``profile_dir``) at the profiler's drop
    directory, yielding a stage-attributed hotpath report
    (docs/observability.md).

    Backends run *local* epoch indices (each (re)open counts from 0)
    while the stage trace, telemetry, faults and checkpoints speak
    *global* epochs; with no resume and no failure the two coincide and
    the engine behaves exactly as the plain loop.
    """

    def __init__(
        self,
        backend: ComputeBackend,
        channel: Channel | None = None,
        partitions: "PartitionProvider | PartitionPlan | Sequence[float] | None" = None,
        sync_policy: SyncPolicy | None = None,
        telemetry=None,
        recovery: RecoveryPolicy | None = None,
        checkpoint_every: int = 0,
        checkpoint_path: "str | os.PathLike | None" = None,
        resume_from: "str | os.PathLike | None" = None,
        profile=None,
    ):
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if checkpoint_every > 0 and checkpoint_path is None:
            raise ValueError("checkpoint_every needs a checkpoint_path")
        self.backend = backend
        self.channel = channel if channel is not None else Channel()
        self.partitions = as_provider(partitions)
        self.sync_policy = sync_policy if sync_policy is not None else AdditiveDeltaSync()
        self.telemetry = telemetry
        self.recovery = recovery
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.resume_from = resume_from
        self.profile = profile

    @property
    def _resilience_active(self) -> bool:
        return (
            self.recovery is not None
            or self.checkpoint_every > 0
            or self.resume_from is not None
        )

    def run(self, epochs: int) -> EngineResult:
        """Execute ``epochs`` runs of the pull/compute/push/sync pipeline."""
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        plan = self.partitions.plan(self.backend.n_workers)
        registry = self.telemetry.registry if self.telemetry is not None else None
        trace: list[StageEvent] = []
        rmse_history: list[float] = []
        summary = ResilienceSummary() if self._resilience_active else None
        if self.profile is not None and hasattr(self.backend, "profile_dir"):
            self.backend.profile_dir = self.profile.worker_dir()

        current_plan = plan
        done = 0                       # global epochs completed so far
        warm = None                    # model to warm-start the next open from
        if self.resume_from is not None:
            from repro.core.checkpoint import load_checkpoint

            ckpt = load_checkpoint(self.resume_from)
            if ckpt.epoch >= epochs:
                raise ValueError(
                    f"checkpoint already at epoch {ckpt.epoch}; nothing to "
                    f"resume within {epochs} epochs"
                )
            done = ckpt.epoch
            warm = ckpt.model
            rmse_history = [float(r) for r in ckpt.rmse_history]
            summary.resumed_from_epoch = done
        retries = 0

        while True:
            offset = done
            remaining = epochs - done
            self._stage_warm_start(warm, offset)
            self.backend.open(
                current_plan, self.channel, self.sync_policy, self.telemetry,
                remaining,
            )
            failure: Exception | None = None
            report: HealthReport | None = None
            try:
                try:
                    for local in range(remaining):
                        epoch = offset + local
                        for stage in STAGES:
                            with self._profiled(stage):
                                detail = getattr(self.backend, stage)(local) or {}
                            trace.append(StageEvent(epoch, stage, detail))
                        with self._profiled("evaluate"):
                            rmse = self.backend.evaluate(local)
                        if rmse is not None:
                            rmse_history.append(rmse)
                            if registry is not None:
                                registry.gauge(
                                    "epoch_rmse", "training RMSE at epoch end"
                                ).set(rmse, epoch=epoch)
                                registry.event("epoch", epoch=epoch, rmse=rmse)
                        done = epoch + 1
                        retries = 0  # progress resets the transient budget
                        if summary is not None and current_plan is not plan:
                            summary.degraded_epochs += 1
                            if registry is not None:
                                registry.counter(
                                    "resilience_degraded_epochs_total",
                                    "epochs run on a redistributed plan",
                                ).inc()
                        if (
                            self.checkpoint_every
                            and done % self.checkpoint_every == 0
                        ):
                            self._write_checkpoint(
                                done, rmse_history, summary, registry
                            )
                    self.backend.finalize(self.telemetry)
                except RECOVERABLE_ERRORS as err:
                    if self.recovery is None:
                        raise
                    failure = err
                    # health must be read before close(): teardown
                    # terminates the stragglers the report classifies
                    reporter = getattr(self.backend, "health_report", None)
                    report = reporter(err) if reporter is not None else None
            finally:
                self.backend.close()
            if failure is None:
                break
            warm = getattr(self.backend, "model", None)
            current_plan, retries = self._recover(
                failure, report, current_plan, done, retries,
                rmse_history, summary, registry,
            )

        if summary is not None:
            summary.final_workers = self.backend.n_workers
        return EngineResult(
            backend=self.backend.name,
            channel=self.channel.describe(),
            sync_policy=self.sync_policy.name,
            plan=plan,
            epochs=epochs,
            stage_trace=tuple(trace),
            rmse_history=rmse_history,
            model=getattr(self.backend, "model", None),
            sim_seconds=float(getattr(self.backend, "sim_seconds", 0.0)),
            resilience=summary,
            final_plan=current_plan,
        )

    def _profiled(self, stage: str):
        """Per-stage cProfile scope, or a no-op when profiling is off."""
        if self.profile is None:
            return nullcontext()
        return self.profile.stage(stage)

    # -- resilience internals -------------------------------------------
    def _stage_warm_start(self, model, offset: int) -> None:
        """Hand the next attempt its starting factors and epoch offset."""
        if model is None and offset == 0:
            return
        if not (
            hasattr(self.backend, "initial_model")
            and hasattr(self.backend, "epoch_offset")
        ):
            raise ValueError(
                f"the {self.backend.name!r} backend does not support warm "
                "starts (resume_from=/recovery need initial_model and "
                "epoch_offset)"
            )
        self.backend.initial_model = model
        self.backend.epoch_offset = offset

    def _write_checkpoint(
        self, done: int, rmse_history: list[float], summary, registry
    ) -> None:
        from repro.core.checkpoint import Checkpoint, save_checkpoint

        model = getattr(self.backend, "model", None)
        if model is None:
            raise ValueError(
                f"the {self.backend.name!r} backend exposes no model to "
                "checkpoint"
            )
        save_checkpoint(
            Checkpoint(
                model=model, epoch=done, rmse_history=list(rmse_history)
            ),
            self.checkpoint_path,
        )
        if summary is not None:
            summary.checkpoints_written += 1
        if registry is not None:
            registry.counter(
                "resilience_checkpoints_total",
                "checkpoints written at epoch boundaries",
            ).inc()
            registry.event(
                "resilience_checkpoint", epoch=done,
                path=str(self.checkpoint_path),
            )

    def _recover(
        self,
        err: Exception,
        report: "HealthReport | None",
        current_plan: PartitionPlan,
        done: int,
        retries: int,
        rmse_history: list[float],
        summary: ResilienceSummary,
        registry,
    ) -> tuple[PartitionPlan, int]:
        """Decide and apply the recovery action for one failure.

        Returns the (possibly redistributed) plan and the new transient
        retry count for the next attempt; raises
        :class:`TrainingAborted` when the policy gives up.
        """
        policy = self.recovery
        if report is None:
            report = HealthReport((), cause=str(err))
        action = decide(policy, report, retries, self.backend.n_workers)
        summary.failures.append(
            f"epoch {done}: {type(err).__name__} ({report.describe()}) "
            f"-> {action.value}"
        )
        summary.decisions.append((done, type(err).__name__, action.value))
        if registry is not None:
            registry.event(
                "resilience_failure", epoch=done, action=action.value,
                error=type(err).__name__, dead=list(report.dead_ranks),
                stragglers=list(report.straggler_ranks),
            )
        # injected faults at or before the failed epoch have fired;
        # retire them so the re-run does not trip over them again
        dropper = getattr(self.backend, "drop_faults_through", None)
        if dropper is not None:
            dropper(done)

        if action is RecoveryAction.ABORT:
            path = None
            if policy.checkpoint_on_abort and self.checkpoint_path is not None:
                self._write_checkpoint(done, rmse_history, summary, registry)
                path = str(self.checkpoint_path)
            raise TrainingAborted(done, str(err), path, summary) from err
        if action is RecoveryAction.REDISTRIBUTE:
            new_plan = redistribute(current_plan, report.dead_ranks)
            # remap pending faults BEFORE the worker count shrinks:
            # the remap needs the old numbering to locate survivors
            remap = getattr(self.backend, "remap_fault_ranks", None)
            if remap is not None:
                remap(report.dead_ranks)
            self.backend.n_workers = new_plan.n_workers
            summary.redistributions += 1
            if registry is not None:
                registry.counter(
                    "resilience_redistributions_total",
                    "dead-worker shard redistributions",
                ).inc()
                registry.event(
                    "resilience_redistribution", epoch=done,
                    dead=list(report.dead_ranks),
                    survivors=new_plan.n_workers,
                )
            return new_plan, 0
        # RETRY: transient failure, back off exponentially
        summary.retries += 1
        if registry is not None:
            registry.counter(
                "resilience_retries_total", "transient-failure epoch retries"
            ).inc()
        backoff = policy.backoff_s(retries)
        if backoff > 0:
            time.sleep(backoff)
        return current_plan, retries + 1
