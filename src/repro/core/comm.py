"""The COMM module: pull/push transfer accounting (paper 3.5).

:class:`CommPlan` computes how many bytes each worker moves per epoch
under the active strategies (Q-only, FP16), and :class:`CommModel`
turns bytes into seconds for either backend:

- ``COMM``: HCC-MF's shared-pinned-memory module.  The pull buffer is
  mapped into every worker and the push buffers into the server, so a
  transfer is one copy at full channel bandwidth.
- ``COMM_P``: the ps-lite-based baseline of Table 5.  Parameter-server
  messaging serializes key/value pairs, crosses the kernel, and makes
  temporary copies; calibrated to Table 5's measured ~7x slowdown.

The wire codec itself belongs to the channel stacks of
:mod:`repro.engine.channels`, and the one-copy pull/push and the delta
merge that both training planes run are the epoch functions of
:mod:`repro.engine.backends`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import CommBackendKind, CommConfig, TransmitMode
from repro.data.datasets import DatasetSpec
from repro.hardware.specs import BusSpec

#: COMM-P calibration (Table 5): ps-lite-style messaging achieves about
#: 1/7 of the raw channel bandwidth (extra serialization copies + kernel
#: crossings) and pays a per-message software overhead.
COMM_P_BANDWIDTH_FACTOR = 1.0 / 6.8
COMM_P_MESSAGE_OVERHEAD_S = 250e-6


@dataclass(frozen=True)
class CommPlan:
    """Per-epoch wire traffic of one worker under a strategy set.

    All quantities in bytes.  ``epoch_pull``/``epoch_push`` recur every
    epoch; ``final_push_extra`` is paid once at the end of training
    (the P matrix under "transmit Q only").
    """

    epoch_pull: int
    epoch_push: int
    final_push_extra: int
    sync_values: int  # feature values the server merges per worker sync

    @classmethod
    def for_dataset(cls, spec: DatasetSpec, k: int, comm: CommConfig) -> "CommPlan":
        """Traffic plan from the dataset shape and strategy switches.

        With a row grid and Q-only transmission only the ``k x n`` item
        matrix travels each epoch and the server merges only Q; the
        ``m x k`` user matrix is pushed once after the last epoch.
        The AUTO transmit mode resolves against the *grid-major* side:
        HCC-MF transposes column-grid problems, so the recurring matrix
        is whichever side is smaller.

        The strategy byte math itself lives in one place — the channel
        middlewares of :mod:`repro.engine.channels` — and this method
        simply materializes the stack the config describes and asks it
        (imported lazily: core stays import-independent of the engine).
        """
        if k <= 0:
            raise ValueError("k must be positive")
        from repro.engine.channels import channel_for

        return channel_for(comm, spec.m, spec.n).comm_plan(spec, k)

    def total_bytes(self, epochs: int) -> int:
        """All bytes one worker moves over a full training run."""
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        return epochs * (self.epoch_pull + self.epoch_push) + self.final_push_extra


class CommModel:
    """Transfer-time model for a communication backend."""

    def __init__(self, backend: CommBackendKind = CommBackendKind.COMM):
        self.backend = backend

    def transfer_time(self, bus: BusSpec, nbytes: float) -> float:
        """Seconds to move ``nbytes`` between a worker and the server."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        if self.backend is CommBackendKind.COMM:
            # shared pinned memory: one copy at channel bandwidth
            return bus.transfer_time(nbytes)
        # ps-lite path: reduced effective bandwidth + per-message overhead
        return (
            COMM_P_MESSAGE_OVERHEAD_S
            + bus.latency_us * 1e-6
            + nbytes / (bus.bandwidth_gbs * 1e9 * COMM_P_BANDWIDTH_FACTOR)
        )

    def pull_time(self, bus: BusSpec, plan: CommPlan) -> float:
        return self.transfer_time(bus, plan.epoch_pull)

    def push_time(self, bus: BusSpec, plan: CommPlan) -> float:
        return self.transfer_time(bus, plan.epoch_push)
