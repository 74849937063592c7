"""Compute backends: what each pipeline stage means on a real substrate.

Two substrates implement the :class:`~repro.engine.pipeline.ComputeBackend`
protocol:

* :class:`SimBackend` — the in-process plane.  Workers take turns on
  the host, each running :func:`_train_shard` over its row-sorted
  shard; feature traffic crosses plain numpy wire arrays of the channel
  stack's wire dtype; an optional
  :class:`~repro.core.cost_model.TimeCostModel` advances the simulated
  clock one epoch cost per epoch (the "cost-model advance").
* :class:`ProcessBackend` — the wall-clock plane.  The calling process
  is the server, every worker is an OS process (paper 3.5), and all
  feature traffic crosses :class:`~repro.parallel.shm.SharedArray`
  segments whose dtype is the channel stack's wire format, so Q-only
  payloads, FP16 wire and double-buffered pulls run for real.

The server side of an epoch (paper 3.1/3.5) exists once, as three
module-level functions both backends call on their wire arrays:
:func:`encode_pull` (one copy of Q onto the pull wire, returning the
wire-accurate merge base), :func:`encode_push` (a worker's one copy
onto its push wire, with drop/corrupt fault injection) and
:func:`merge_pushes` (validate every push, then
``Q += w_i * (Q_i - Q_base)`` in rank order).

Both backends execute the identical stage sequence under
:class:`~repro.engine.pipeline.EpochEngine`; the ``engine-parity`` CI
stage diffs their stage traces and per-worker update counts.  The
paper's future-work ring rotation (a q-rotate channel, see
:func:`_rotates_q`) is a mode of :class:`SimBackend` under the same
engine loop: workers train the global Q in place on disjoint column
blocks, so pull and push only account bytes and sync merges nothing.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from contextlib import ExitStack, nullcontext
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.data.grid import GridKind, partition_rows
from repro.data.ratings import RatingMatrix
from repro.engine.channels import Channel
from repro.hardware.timeline import Phase, Span, Timeline
from repro.mf.kernels import ConflictPolicy, sgd_batch_update
from repro.mf.model import MFModel
from repro.parallel.shm import SharedArray, SharedArraySpec
from repro.resilience.faults import CORRUPT, DELAY, DROP, KILL, Fault, FaultPlan, fault_at
from repro.resilience.health import HealthReport, classify

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.pipeline import SyncPolicy
    from repro.obs import Telemetry

#: Default ceiling on any cross-process rendezvous (barriers, joins);
#: overridable per run via ``HCCConfig.barrier_timeout_s``.
DEFAULT_BARRIER_TIMEOUT_S = 120.0

#: ring slots per epoch when instrumented: pull + compute + push + two
#: barrier waits, plus one spare
_SPANS_PER_EPOCH = 6

#: grace period between terminate() and the kill() escalation when
#: reaping straggler worker processes
_TERMINATE_GRACE_S = 5.0

#: extra time workers wait on barriers beyond the server's timeout —
#: the server must always be the first to detect a broken rendezvous
#: (see _worker_main)
_WORKER_PATIENCE_S = 30.0


class WorkerSyncError(RuntimeError):
    """A barrier rendezvous failed: who never arrived, and how we know.

    ``observed`` states the detection itself — ``worker-r exited with
    code N after X s`` or ``no stamp after the T s timeout`` — so a dead
    rank caught by its exit code in milliseconds never reads as a
    timeout.
    """

    def __init__(self, point: str, epoch: int, missing_ranks: tuple[int, ...],
                 observed: str):
        self.point = point
        self.epoch = epoch
        self.missing_ranks = missing_ranks
        names = ", ".join(f"worker-{r}" for r in missing_ranks) or "unknown rank"
        super().__init__(
            f"a worker process failed mid-epoch: {names} did not reach the "
            f"{point} barrier of epoch {epoch} ({observed}); "
            f"shared state has been cleaned up"
        )


def _exit_note(exitcodes: Mapping[int, int], elapsed_s: float) -> str:
    """Detection by exit code: ``worker-r exited with code N after X s``."""
    return ", ".join(
        f"worker-{rank} exited with code {code} after {elapsed_s:.2f}s"
        for rank, code in sorted(exitcodes.items())
    )


def _timeout_note(timeout_s: float) -> str:
    """Detection by deadline: no progress stamp before the timeout."""
    return f"no stamp after the {timeout_s:.0f}s timeout"


class WirePayloadError(RuntimeError):
    """A pushed payload failed validation; names the offending rank.

    Raised *before* any merge of the epoch: the server validates every
    worker's push first, so a garbage payload (a torn write from a
    dying worker, an injected corruption) never leaves the global Q
    half-merged.  The model still holds the last cleanly-synced epoch,
    which is what makes a retry of the epoch sound.
    """

    def __init__(self, rank: int, epoch: int):
        self.rank = rank
        self.epoch = epoch
        self.missing_ranks = (rank,)
        super().__init__(
            f"a worker process failed mid-epoch: worker-{rank} pushed a "
            f"corrupt payload (non-finite values) for epoch {epoch}; the "
            f"epoch was not merged"
        )


# ---------------------------------------------------------------------------
# the server side of an epoch (one copy per pull and push, one merge)
# ---------------------------------------------------------------------------
def encode_pull(channel: Channel, q: np.ndarray, wire: np.ndarray) -> np.ndarray:
    """The server's pull: encode Q onto the wire once, return the base.

    The merge base is decoded *off the wire* — the exact (possibly
    quantized) matrix workers will decode — so pull-side wire error
    cancels out of the delta merge.
    """
    channel.encode(q, wire)
    return channel.decode(wire)


def encode_push(
    channel: Channel,
    q_trained: np.ndarray,
    pull_wire: np.ndarray,
    push_wire: np.ndarray,
    faults: tuple[Fault, ...],
    global_epoch: int,
) -> None:
    """A worker's single push encode, with drop/corrupt injection.

    ``faults`` is this rank's slice of a
    :class:`~repro.resilience.faults.FaultPlan`, keyed on global epochs.
    """
    if fault_at(faults, DROP, global_epoch) is not None:
        # dropped payload: the wire still carries the epoch base (the
        # pull wire's exact bits), so the server merges a zero delta
        np.copyto(push_wire, pull_wire)
    else:
        channel.encode(q_trained, push_wire)
    if fault_at(faults, CORRUPT, global_epoch) is not None:
        push_wire[...] = np.nan


def merge_pushes(
    channel: Channel,
    q: np.ndarray,
    base: np.ndarray,
    push_wires: Sequence[np.ndarray],
    weights: Sequence[float],
    epoch: int,
) -> None:
    """The server's sync: ``q += w_i * (Q_i - base)`` over every push.

    Every push is decoded and checked with ``channel.payload_ok`` before
    any is merged: the epoch's sync is all-or-nothing, so a garbage
    payload (a torn write from a dying worker, an injected corruption)
    raises :class:`WirePayloadError` for the first bad rank and leaves
    ``q`` at the last cleanly-synced epoch — the state a retry restarts
    from.  The deltas then apply in rank order.  HCC-MF uses ``w_i = 1``:
    row-grid workers train on disjoint samples, so their deltas are
    distinct SGD steps that all apply (averaging would under-apply the
    epoch's updates); fractional weights serve entry-level partitions
    whose shards overlap.
    """
    if not all(0.0 <= w <= 1.0 for w in weights):
        raise ValueError("merge weights must be in [0, 1]")
    decoded: list[np.ndarray] = []
    for rank, wire in enumerate(push_wires):
        # an FP32 wire is consumed in place: no further copy
        received = wire if wire.dtype == np.float32 else channel.decode(wire)
        if not channel.payload_ok(received):
            raise WirePayloadError(rank, epoch)
        decoded.append(received)
    for received, weight in zip(decoded, weights):
        # one read of q, one of the delta, one write: Eq. 3's three
        # memory operations per merged value
        if weight == 1.0:
            q += received - base
        else:
            q += np.float32(weight) * (received - base)


def _rotates_q(channel: Channel) -> bool:
    """Is this a ring-rotation (q-rotate) channel stack?

    Column-block ownership removes the server merge, and the stack's
    traffic accounting says so: it syncs no values.
    """
    return channel.traffic(2, 1, 1).sync_values == 0


# ---------------------------------------------------------------------------
# the shard loop (one per worker epoch, on either plane)
# ---------------------------------------------------------------------------
def _train_shard(
    model: MFModel,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    order: np.ndarray,
    batch_size: int,
    lr: float,
    reg: float,
    policy: ConflictPolicy,
) -> None:
    """Batched SGD over a worker's shard, visiting entries in ``order``.

    The shard is row-sorted (CuMF_SGD's block sorting); ``order`` is the
    epoch's permutation of it, or in rotation the part of that
    permutation inside one owned column block.
    """
    for lo in range(0, len(order), batch_size):
        sel = order[lo : lo + batch_size]
        sgd_batch_update(
            model, rows[sel], cols[sel], vals[sel], lr, reg, policy=policy
        )


# ---------------------------------------------------------------------------
# sim backend (in-process numerics + cost-model clock)
# ---------------------------------------------------------------------------
class SimBackend:
    """In-process workers over numpy wire arrays, with a simulated clock.

    ``ratings`` must already be in row-grid orientation and shuffled
    (what :meth:`repro.core.framework.HCCMF.prepare` produces); the
    backend partitions them by the engine-resolved plan.  Each worker
    trains its row-sorted shard with :func:`_train_shard` under its
    processor's conflict policy — last-write-wins on GPUs (CuMF-style),
    atomic accumulation on CPUs (FPSGD-style) — drawing one permutation
    per epoch from an RNG seeded ``seed + rank``.  ``cost_model`` is
    optional: when given, every epoch advances :attr:`sim_seconds`
    by that plan's analytic epoch cost — priced over the *surviving*
    workers after a redistribution, which is the cost model's
    degraded-epoch path.

    A q-rotate channel selects the ring-rotation mode (the paper's
    future work): Q's columns split into one block per worker, and in
    sub-step ``s`` of an epoch worker ``i`` trains its entries in block
    ``(i + s) mod p``.  Ownership is disjoint within a sub-step, so
    workers update the global P and Q in place; pull and push account
    the ring hops' bytes without copying and sync merges nothing.

    ``fault_plan`` executes the same
    :class:`~repro.resilience.faults.FaultPlan` kinds the process plane
    injects, surfacing each at the exact detection point the server
    would see it: kills and over-timeout stragglers raise a
    :class:`WorkerSyncError` at the epoch's barriers, and benign
    stragglers stretch the simulated clock.  Dropped and corrupt
    payloads go through the same :func:`encode_push` and
    :func:`merge_pushes` as on the process plane: a drop merges a zero
    delta, a corruption fails the payload check before any merge.
    Rotation pushes no payload, so it rejects drop and corrupt faults.
    """

    name = "sim"

    def __init__(
        self,
        platform,
        ratings: RatingMatrix,
        eval_data: RatingMatrix | None = None,
        k: int = 32,
        lr: float = 0.005,
        reg: float = 0.01,
        batch_size: int = 4096,
        seed: int = 0,
        cost_model=None,
        fault_plan: FaultPlan | None = None,
        barrier_timeout_s: float = DEFAULT_BARRIER_TIMEOUT_S,
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        if barrier_timeout_s <= 0:
            raise ValueError("barrier_timeout_s must be positive")
        self.platform = platform
        self.ratings = ratings
        self.eval_data = eval_data
        self.k = k
        self.lr = lr
        self.reg = reg
        self.batch_size = batch_size
        self.seed = seed
        self.cost_model = cost_model
        #: the injected-failure script (docs/resilience.md); pruned by
        #: the engine after each recovery so faults fire at most once
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.barrier_timeout_s = float(barrier_timeout_s)
        self.n_workers = platform.n_workers
        self.model: MFModel | None = None
        self.sim_seconds = 0.0
        #: warm-start state the engine sets for checkpoint resume and
        #: recovery restarts: factors to start from, and how many global
        #: epochs already completed (replayed out of each worker's RNG
        #: stream so a resumed run continues the exact sample order)
        self.initial_model: MFModel | None = None
        self.epoch_offset = 0
        #: the platform workers still alive — pruned by
        #: :meth:`remap_fault_ranks` when a redistribution removes ranks,
        #: so degraded epochs are priced over the survivors
        self._platform_workers = list(platform.workers)
        #: per synced epoch: (global epoch, modeled cost, degraded?) —
        #: the chaos-parity harness reads degraded-epoch costs off this
        self.cost_log: list[tuple[int, float, bool]] = []
        #: simulated process exit codes for killed ranks (13 hard, 1
        #: soft), feeding classify() exactly as real exit codes would
        self._sim_exitcodes: dict[int, int] = {}
        self._attempt = -1
        self._run_timeline: Timeline | None = None
        self._run_origin: float | None = None
        self._snapshot: tuple[np.ndarray, ...] = ()

    # -- lifecycle -------------------------------------------------------
    def open(self, plan, channel: Channel, sync_policy: "SyncPolicy",
             telemetry, epochs: int) -> None:
        self._rotating = _rotates_q(channel)
        if self._rotating:
            payload_faults = sorted(
                {f.kind for f in self.fault_plan.faults} & {DROP, CORRUPT}
            )
            if payload_faults:
                raise ValueError(
                    f"{'/'.join(payload_faults)} faults act on a push payload, "
                    "and q-rotate trains Q in place without pushing one"
                )
        data = self.ratings
        self._eval_set = self.eval_data if self.eval_data is not None else data
        self._fractions = plan.fractions
        self._channel = channel
        self._sync_policy = sync_policy
        registry = telemetry.registry if telemetry is not None else None
        self._registry = registry
        if self.initial_model is not None:
            # warm start (checkpoint resume): once-per-run private copies
            # so training never writes into the caller's checkpoint arrays
            warm = self.initial_model
            p0 = warm.P.copy()  # hcclint: disable=hot-copy
            q0 = warm.Q.copy()  # hcclint: disable=hot-copy
            self.model = MFModel(p0, q0)
        else:
            self.model = MFModel.init_for(data, self.k, seed=self.seed)
        assignments = partition_rows(data, plan.fractions, GridKind.ROW)
        # per worker: the row-sorted shard (block_sort on a row grid), the
        # processor's conflict policy and its own RNG stream
        self._shards = [a.extract(data).sort_by_row() for a in assignments]
        self._policies = [
            ConflictPolicy.LAST_WRITE if w.is_gpu else ConflictPolicy.ATOMIC
            for w in self._platform_workers
        ]
        self._rngs = [
            np.random.default_rng(self.seed + rank) for rank in range(self.n_workers)
        ]
        # replay already-completed epochs out of each worker's RNG
        # stream: one permutation draw per epoch (compute draws exactly
        # one), so a resumed run is bitwise-identical to the
        # straight-through run it continues
        for _ in range(self.epoch_offset):
            for rng, shard in zip(self._rngs, self._shards):
                rng.permutation(shard.nnz)
        shape, wire = self.model.Q.shape, channel.wire_dtype
        self._wire_nbytes = self.model.Q.size * channel.wire_itemsize
        if self._rotating:
            # each entry's column block, indexed once: blocks split Q's
            # columns evenly, one per worker
            edges = np.linspace(0, data.n, self.n_workers + 1, dtype=np.int64)
            self._col_blocks = [
                np.searchsorted(edges, shard.cols, side="right") - 1
                for shard in self._shards
            ]
        else:
            # the wire arrays the SharedArray segments are on the process
            # plane: one pull wire, one push wire per worker
            self._pull_wire = np.zeros(shape, dtype=wire)
            self._push_wires = [
                np.zeros(shape, dtype=wire) for _ in range(self.n_workers)
            ]
        self._q_base: np.ndarray | None = None
        # degraded-epoch costing: after a redistribution the plan's
        # fractions cover only the surviving workers, so the epoch is
        # priced over that subset (Eq. 1-5 with renormalized x_i)
        self._epoch_sim_cost = (
            self.cost_model.epoch_cost(
                plan.fractions, workers=self._platform_workers
            ).total
            if self.cost_model is not None
            else 0.0
        )
        self._attempt += 1
        self._sim_exitcodes = {}
        self._snapshot = ()
        if self._attempt == 0:
            self.sim_seconds = 0.0
        # wall-clock spans only when telemetry opts the run in — the
        # default path stays untimed; the timeline and its clock origin
        # persist across recovery re-opens so no attempt's spans are lost
        self._timed = telemetry is not None
        if self._timed:
            if self._run_timeline is None:
                self._run_timeline = Timeline()
                self._run_origin = time.perf_counter()
            self._timeline = self._run_timeline
            self._t_origin = self._run_origin
        else:
            self._timeline = None
            self._t_origin = 0.0
        self._q_locals: list[np.ndarray] = []
        self._q_news: list[np.ndarray] = []

    def _now(self) -> float:
        return time.perf_counter() - self._t_origin

    def _span(self, lane: str, phase: Phase, t0: float, epoch: int) -> float:
        """Record one timed span ending now; returns its end time."""
        t1 = self._now()
        self._timeline.add(
            lane, phase, t0, t1, epoch + self.epoch_offset, self._attempt
        )
        return t1

    def _count_bytes(self, name: str, help_text: str) -> dict:
        """Per-worker wire bytes of one pull or push, counted and returned."""
        nbytes = self._wire_nbytes
        if self._timed:
            counter = self._registry.counter(name, help_text)
            for rank in range(self.n_workers):
                counter.inc(nbytes, worker=f"worker-{rank}")
        return {"wire_bytes": nbytes * self.n_workers, "per_worker_bytes": nbytes}

    # -- fault injection -------------------------------------------------
    def _faults_at(self, kind: str, epoch: int) -> list[Fault]:
        """Pending faults of ``kind`` keyed to this *local* epoch.

        Fault plans speak global epochs; stale entries aimed at ranks
        outside the current (possibly degraded) plan are ignored.
        """
        g = epoch + self.epoch_offset
        return [
            f for f in self.fault_plan.faults
            if f.kind == kind and f.epoch == g and f.rank < self.n_workers
        ]

    def _inject_epoch_top(self, epoch: int) -> None:
        """Kill / start-straggler injection, at process-plane semantics.

        A killed rank never reaches the start barrier, so the failure
        surfaces exactly as the process server sees it: a start-point
        :class:`WorkerSyncError` before any compute ran, with the dead
        ranks' exit codes (13 hard, 1 soft) recorded for the health
        plane to classify.  A delay past the barrier timeout is a fatal
        straggler (no exit code: the rank is alive, just late); a
        shorter delay stretches the simulated clock by the longest
        stall, since real stragglers hold the rendezvous in parallel.
        """
        kills = self._faults_at(KILL, epoch)
        if kills:
            for f in kills:
                self._sim_exitcodes[f.rank] = 13 if f.hard else 1
            ranks = tuple(sorted({f.rank for f in kills}))
            # the sim detects a death at once, by its simulated exit code
            codes = {r: self._sim_exitcodes[r] for r in ranks}
            raise WorkerSyncError("start", epoch, ranks, _exit_note(codes, 0.0))
        delays = [f for f in self._faults_at(DELAY, epoch) if f.point == "start"]
        late = tuple(sorted(
            {f.rank for f in delays if f.seconds > self.barrier_timeout_s}
        ))
        if late:
            raise WorkerSyncError(
                "start", epoch, late, _timeout_note(self.barrier_timeout_s)
            )
        if delays:
            self.sim_seconds += max(f.seconds for f in delays)

    def _rollback(self) -> None:
        """Roll the factors back to their pre-compute state on a failed epoch.

        The process plane only copies P out of shared memory after all
        payloads validate, so a failed epoch's P updates are discarded
        there; the sim trains P in place (and in rotation Q too) and
        must undo the same way.
        """
        for live, saved in zip((self.model.P, self.model.Q), self._snapshot):
            np.copyto(live, saved)
        self._snapshot = ()

    # -- stages ----------------------------------------------------------
    def pull(self, epoch: int) -> Mapping:
        if self.fault_plan:
            self._inject_epoch_top(epoch)
        detail = self._count_bytes("bytes_pulled_total", "bytes pulled per worker")
        if self._rotating:
            # ring hops between peers: bytes are accounted, nothing copied
            return detail
        self._q_base = encode_pull(self._channel, self.model.Q, self._pull_wire)
        self._q_locals = []
        for rank in range(self.n_workers):
            if self._timed:
                t0 = self._now()
            # the worker's single per-epoch copy, decoded off the wire
            self._q_locals.append(self._channel.decode(self._pull_wire))
            if self._timed:
                self._span(f"worker-{rank}", Phase.PULL, t0, epoch)
        return detail

    def compute(self, epoch: int) -> Mapping:
        if self.fault_plan:
            fails_after_compute = self._faults_at(CORRUPT, epoch) or any(
                f.point == "end" and f.seconds > self.barrier_timeout_s
                for f in self._faults_at(DELAY, epoch)
            )
            if fails_after_compute:
                # P trains in place, and in rotation Q does too
                self._snapshot = (self.model.P.copy(),)  # hcclint: disable=hot-copy
                if self._rotating:
                    self._snapshot += (self.model.Q.copy(),)  # hcclint: disable=hot-copy
        p = self.n_workers
        orders = [rng.permutation(s.nnz) for rng, s in zip(self._rngs, self._shards)]
        models = (
            [self.model] * p if self._rotating
            else [MFModel(self.model.P, q) for q in self._q_locals]
        )
        for step in range(p if self._rotating else 1):
            for rank, (shard, order) in enumerate(zip(self._shards, orders)):
                if self._rotating:
                    owned = (rank + step) % p
                    order = order[self._col_blocks[rank][order] == owned]
                if self._timed:
                    t0 = self._now()
                _train_shard(
                    models[rank], shard.rows, shard.cols, shard.vals, order,
                    self.batch_size, self.lr, self.reg, self._policies[rank],
                )
                if self._timed:
                    self._span(f"worker-{rank}", Phase.COMPUTE, t0, epoch)
        self._q_news = [m.Q for m in models]
        updates = tuple(s.nnz for s in self._shards)
        if self._timed:
            counter = self._registry.counter("updates_total", "SGD updates applied")
            for rank, n in enumerate(updates):
                counter.inc(n, worker=f"worker-{rank}")
        return {"updates": updates}

    def push(self, epoch: int) -> Mapping:
        if not self._rotating:
            for rank, (q_new, wire) in enumerate(zip(self._q_news, self._push_wires)):
                if self._timed:
                    t0 = self._now()
                encode_push(
                    self._channel, q_new, self._pull_wire, wire,
                    self.fault_plan.for_rank(rank), epoch + self.epoch_offset,
                )
                if self._timed:
                    self._span(f"worker-{rank}", Phase.PUSH, t0, epoch)
        detail = self._count_bytes("bytes_pushed_total", "bytes pushed per worker")
        end_delays = [
            f for f in self._faults_at(DELAY, epoch) if f.point == "end"
        ]
        late = tuple(sorted(
            {f.rank for f in end_delays if f.seconds > self.barrier_timeout_s}
        ))
        if late:
            self._rollback()
            raise WorkerSyncError(
                "end", epoch, late, _timeout_note(self.barrier_timeout_s)
            )
        if end_delays:
            self.sim_seconds += max(f.seconds for f in end_delays)
        return detail

    def sync(self, epoch: int) -> Mapping:
        # rotation's disjoint ownership leaves nothing to merge
        merges = 0 if self._rotating else self.n_workers
        if merges:
            self._merge(epoch)
        self.sim_seconds += self._epoch_sim_cost
        self.cost_log.append((
            epoch + self.epoch_offset,
            self._epoch_sim_cost,
            len(self._platform_workers) < self.platform.n_workers,
        ))
        return {"merges": merges, "merged_values": int(self.model.Q.size) * merges}

    def _merge(self, epoch: int) -> None:
        weights = [
            self._sync_policy.weight(i, self._fractions)
            for i in range(self.n_workers)
        ]
        if self._timed:
            t0 = self._now()
        try:
            merge_pushes(
                self._channel, self.model.Q, self._q_base, self._push_wires,
                weights, epoch,
            )
        except WirePayloadError:
            # nothing merged; P was trained in place and must roll back
            # too, as the process plane discards its shared P
            self._rollback()
            raise
        if self._timed:
            t1 = self._span("server", Phase.SYNC, t0, epoch)
            self._registry.histogram(
                "merge_seconds", "server delta-merge time per epoch"
            ).observe(t1 - t0)

    def evaluate(self, epoch: int) -> float:
        if self._timed:
            t0 = self._now()
        rmse = self.model.rmse(self._eval_set)
        if self._timed:
            self._span("server", Phase.EVAL, t0, epoch)
        return rmse

    # -- resilience ------------------------------------------------------
    def health_report(self, err: Exception | None = None) -> HealthReport:
        """Classify the sim workers exactly as the process plane would.

        The same :func:`~repro.resilience.health.classify` call, fed
        simulated exit codes instead of reaped process ones: a killed
        rank carries 13 (hard) or 1 (soft), a straggler carries none —
        so both planes hand :func:`~repro.resilience.policy.decide`
        identical evidence.
        """
        missing = tuple(getattr(err, "missing_ranks", ()) or ())
        exitcodes = [self._sim_exitcodes.get(r) for r in range(self.n_workers)]
        return classify(
            self.n_workers, missing, exitcodes, cause=str(err) if err else ""
        )

    def drop_faults_through(self, epoch: int) -> None:
        """Retire injected faults at or before ``epoch`` (already fired)."""
        self.fault_plan = self.fault_plan.without_epochs_through(epoch)

    def remap_fault_ranks(self, dead_ranks) -> None:
        """Follow a redistribution: prune the dead, renumber the faults.

        The engine calls this with the *old* rank numbering, before it
        shrinks ``n_workers`` to the survivor count; subsequent opens
        build shards — and price epochs — over the survivors only.
        """
        dead = set(dead_ranks)
        self._platform_workers = [
            w for r, w in enumerate(self._platform_workers) if r not in dead
        ]
        self.fault_plan = self.fault_plan.remap_ranks(dead, self.n_workers)

    def finalize(self, telemetry) -> None:
        if telemetry is not None and self._timeline is not None:
            telemetry.timeline = self._timeline

    def close(self) -> None:
        self._q_locals = []
        self._q_news = []


# ---------------------------------------------------------------------------
# process backend (OS workers over shared memory)
# ---------------------------------------------------------------------------
def _pre_epoch_faults(
    faults: tuple[Fault, ...], global_epoch: int, worker_id: int, start_barrier
) -> None:
    """Worker-side kill / start-delay injection at the top of an epoch.

    Neither kill flavor touches the barrier: a real crashed process
    cannot abort a rendezvous, so peers find out the honest way — the
    server's barrier wait times out and the health plane reads the
    stamps and exit codes.
    """
    kill = fault_at(faults, KILL, global_epoch)
    if kill is not None:
        if kill.hard:
            # SIGKILL-like: no interpreter teardown at all
            os._exit(13)
        raise RuntimeError(f"injected failure in worker {worker_id}")
    _maybe_delay(faults, global_epoch, "start")


def _maybe_delay(faults: tuple[Fault, ...], global_epoch: int, point: str) -> None:
    delay = fault_at(faults, DELAY, global_epoch)
    if delay is not None and delay.point == point:
        # an injected straggler, by definition  # hcclint: disable=blocking-call
        time.sleep(delay.seconds)


class _Untraced:
    """Telemetry/profiling-off stand-in for the worker's instruments.

    Plays both :class:`~repro.obs.spans.SpanRecorder` (``span``) and
    :class:`~repro.obs.profile.WorkerStageProfiles` (``stage``), so the
    worker runs one epoch body whether or not it is instrumented.
    """

    _off = nullcontext()

    def span(self, phase: Phase, epoch: int):
        return self._off

    def stage(self, name: str):
        return self._off


def _worker_main(
    worker_id: int,
    p_spec: SharedArraySpec,
    pull_specs: tuple[SharedArraySpec, ...],
    push_spec: SharedArraySpec,
    progress_spec: SharedArraySpec,
    channel: Channel,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    epochs: int,
    lr: float,
    reg: float,
    batch_size: int,
    seed: int,
    start_barrier,
    end_barrier,
    barrier_timeout_s: float,
    span_spec=None,
    epoch_offset: int = 0,
    faults: tuple[Fault, ...] = (),
    profile_dir: "str | None" = None,
) -> None:
    """Worker process body: epochs of pull -> train -> push.

    The channel stack travels into the process by pickling (channels are
    stateless) and owns the wire codec: ``decode`` is the worker's
    single per-epoch copy out of the shared pull buffer, ``encode`` its
    single copy into the push buffer.  ``pull_specs`` carries
    ``channel.depth`` rotating buffers (Strategy 3).  Before each
    barrier the worker stamps ``progress[worker_id]`` so the server can
    name missing ranks on a broken rendezvous.  ``span_spec`` switches
    on span recording; without it the same body runs on no-op
    instruments.

    ``epoch_offset`` is how many *global* epochs already completed
    before this spawn (checkpoint resume, recovery restart): stamps and
    barriers count local epochs, while the RNG stream discards the
    completed epochs' permutation draws and fault injection
    (``faults``, this rank's slice of a
    :class:`~repro.resilience.faults.FaultPlan`) keys on global epochs.
    ``profile_dir`` switches on per-stage cProfile accumulation; the
    worker dumps one ``.pstats`` file per stage there before exiting.
    """
    rng = np.random.default_rng(seed + 1000 * (worker_id + 1))
    # replay: one permutation draw per completed epoch (as each epoch
    # below draws) so a warm-started run continues the exact sample
    # order of the straight-through run
    for _ in range(epoch_offset):
        rng.permutation(len(vals))
    # workers outwait the server on every rendezvous: the server is the
    # sole failure detector, and at its timeout the survivors must still
    # be alive (blocked here) for the health plane to tell a dead rank
    # from collateral damage; teardown reaps them right after
    barrier_timeout_s = barrier_timeout_s + _WORKER_PATIENCE_S
    # ExitStack closes every attached segment even if a later attach
    # fails partway through (a bare attach-then-try would leak the
    # earlier mappings on that path)
    with ExitStack() as stack:
        p_shared = stack.enter_context(SharedArray.attach(p_spec))
        pull_bufs = [
            stack.enter_context(SharedArray.attach(spec)) for spec in pull_specs
        ]
        push_buf = stack.enter_context(SharedArray.attach(push_spec))
        progress = stack.enter_context(SharedArray.attach(progress_spec))
        rec = prof = _Untraced()
        if span_spec is not None:
            # imported here so the uninstrumented path never touches
            # repro.obs (and to avoid an import cycle via repro.parallel)
            from repro.obs.spans import SpanRecorder, SpanRing

            rec = SpanRecorder(stack.enter_context(SpanRing.attach(span_spec)))
        if profile_dir is not None:
            from repro.obs.profile import WorkerStageProfiles

            prof = WorkerStageProfiles()
        # booted: from here on the server's barrier clock runs for this rank
        progress.array[worker_id] = 0
        for epoch in range(epochs):
            global_epoch = epoch_offset + epoch
            if faults:
                _pre_epoch_faults(faults, global_epoch, worker_id, start_barrier)
            pull_buf = pull_bufs[epoch % len(pull_bufs)]
            progress.array[worker_id] = 2 * epoch + 1
            with rec.span(Phase.BARRIER, epoch):
                start_barrier.wait(timeout=barrier_timeout_s)
            # pull: the worker's single per-epoch copy out of the shared
            # pull buffer, decoded off the wire (paper 3.5)
            with rec.span(Phase.PULL, epoch), prof.stage("pull"):
                q_local = channel.decode(pull_buf.array)
            model = MFModel(p_shared.array, q_local)
            with rec.span(Phase.COMPUTE, epoch), prof.stage("compute"):
                _train_shard(
                    model, rows, cols, vals, rng.permutation(len(vals)),
                    batch_size, lr, reg, ConflictPolicy.ATOMIC,
                )
            # push: one encode into this worker's shared push buffer
            with rec.span(Phase.PUSH, epoch), prof.stage("push"):
                encode_push(
                    channel, model.Q, pull_buf.array, push_buf.array, faults,
                    global_epoch,
                )
            if faults:
                _maybe_delay(faults, global_epoch, "end")
            with rec.span(Phase.BARRIER, epoch):
                progress.array[worker_id] = 2 * epoch + 2
                end_barrier.wait(timeout=barrier_timeout_s)
        if profile_dir is not None:
            prof.dump(profile_dir, worker_id)


class ProcessBackend:
    """OS worker processes over shared memory (wall-clock plane).

    The calling process acts as the server: per epoch it encodes Q onto
    the wire (pull stage, :func:`encode_pull`), releases the start
    barrier, awaits the end barrier (push stage), and merges every
    worker's push with :func:`merge_pushes` against the wire-accurate
    epoch base — the same functions the sim plane calls.
    """

    name = "process"

    def __init__(
        self,
        ratings: RatingMatrix,
        k: int = 32,
        n_workers: int = 2,
        lr: float = 0.005,
        reg: float = 0.01,
        batch_size: int = 4096,
        seed: int = 0,
        barrier_timeout_s: float = DEFAULT_BARRIER_TIMEOUT_S,
        fault_plan: FaultPlan | None = None,
    ):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if k <= 0:
            raise ValueError("k must be positive")
        if barrier_timeout_s <= 0:
            raise ValueError("barrier_timeout_s must be positive")
        self.ratings = ratings
        self.k = k
        self.n_workers = n_workers
        self.lr = lr
        self.reg = reg
        self.batch_size = batch_size
        self.seed = seed
        self.barrier_timeout_s = float(barrier_timeout_s)
        #: the injected-failure script (docs/resilience.md); pruned by
        #: the engine after each recovery so faults fire at most once
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.model: MFModel | None = None
        self.data: RatingMatrix | None = None
        self._stack: ExitStack | None = None
        #: warm-start state the engine sets for checkpoint resume and
        #: recovery restarts (see EpochEngine)
        self.initial_model: MFModel | None = None
        self.epoch_offset = 0
        #: worker-profile drop directory the engine sets when profiling
        #: (EpochEngine(profile=...)); one attempt-N subdir per open
        self.profile_dir: str | None = None
        self._procs: list = []
        self._rings: list = []
        self._attempt = -1
        #: one clock origin for the whole run, fixed at the first open,
        #: so spans preserved across recovery attempts share a time base
        self._run_origin: float | None = None
        #: spans rescued from earlier attempts' rings before their
        #: shared segments unlink (the rings die with each close)
        self._kept_spans: list[Span] = []
        self._kept_dropped = 0
        self._finalized = False

    @staticmethod
    def _terminate_stragglers(procs: list, grace_s: float = _TERMINATE_GRACE_S) -> None:
        """Reap every still-live worker, escalating terminate -> kill.

        A worker ignoring (or masking) SIGTERM must never leave a
        zombie child holding shared-memory mappings, so after a join
        grace period the survivors get SIGKILL, which cannot be caught.
        """
        live = [proc for proc in procs if proc.is_alive()]
        for proc in live:
            proc.terminate()
        deadline = time.perf_counter() + grace_s
        for proc in live:
            proc.join(timeout=max(0.0, deadline - time.perf_counter()))
        for proc in live:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=grace_s)

    # -- lifecycle -------------------------------------------------------
    def open(self, plan, channel: Channel, sync_policy: "SyncPolicy",
             telemetry, epochs: int) -> None:
        if channel.transmits_p:
            raise ValueError(
                "the process plane is Strategy-1 by construction (P lives in "
                "shared memory and is updated in place); use a Q-only channel "
                f"stack, not {channel.describe()!r}"
            )
        if _rotates_q(channel):
            raise ValueError(
                "q-rotate trains the global Q in place under ring-rotated "
                "column ownership, which the process plane's shared-memory "
                "push and merge cannot express; rotation runs on the sim "
                "plane through the engine (SimBackend)"
            )
        data = self.ratings.shuffle(self.seed)
        assignments = partition_rows(data, plan.fractions, GridKind.ROW)
        init = (
            self.initial_model
            if self.initial_model is not None
            else MFModel.init_for(data, self.k, seed=self.seed)
        )
        ctx = mp.get_context("spawn")

        self.data = data
        self._channel = channel
        self._sync_policy = sync_policy
        self._fractions = plan.fractions
        self._telemetry = telemetry
        self._registry = telemetry.registry if telemetry is not None else None
        self._start_barrier = ctx.Barrier(self.n_workers + 1)
        self._end_barrier = ctx.Barrier(self.n_workers + 1)
        # once-per-run server-side snapshot  # hcclint: disable=hot-copy
        self.model = MFModel(init.P.copy(), init.Q.copy())
        self._q_base: np.ndarray | None = None
        self._epochs = epochs
        self._procs: list = []
        self._rings: list = []
        self._shard_nnz: list[int] = []
        #: rank -> server time its boot stamp was first seen (see _await)
        self._booted_at: dict[int, float] = {}
        #: (phase, epoch, start, end, cpu seconds) of server-side stages
        self._server_spans: list[tuple[Phase, int, float, float, float]] = []
        self._attempt += 1
        if self._run_origin is None:
            self._run_origin = time.perf_counter()
        attempt_profile_dir = None
        if self.profile_dir is not None:
            # one subdir per engine attempt so recovered runs keep every
            # attempt's worker dumps (mirrors the attempt-tagged rings)
            attempt_profile_dir = os.path.join(
                self.profile_dir, f"attempt-{self._attempt}"
            )
            os.makedirs(attempt_profile_dir, exist_ok=True)

        # register each segment's unlink the moment it exists: if a later
        # create (or anything else) raises, the earlier segments are
        # still destroyed instead of leaking until reboot
        self._stack = ExitStack()
        try:
            wire = channel.wire_dtype
            self._p_shared = SharedArray.create(init.P.shape, "float32")
            self._stack.callback(self._p_shared.unlink)
            self._pull_bufs = []
            for _ in range(max(1, channel.depth)):
                buf = SharedArray.create(init.Q.shape, wire)
                self._stack.callback(buf.unlink)
                self._pull_bufs.append(buf)
            self._push_bufs = []
            for _ in range(self.n_workers):
                buf = SharedArray.create(init.Q.shape, wire)
                self._stack.callback(buf.unlink)
                self._push_bufs.append(buf)
            # per-rank barrier progress stamps, read only to diagnose a
            # broken rendezvous (no synchronization on the happy path)
            self._progress = SharedArray.create((self.n_workers,), "int64")
            self._stack.callback(self._progress.unlink)
            # -1: not booted yet; a worker stamps 0 once it can run epochs
            self._progress.array[...] = -1
            if telemetry is not None:
                from repro.obs.spans import SpanRing

                for wid in range(self.n_workers):
                    ring = SpanRing.create(
                        capacity=epochs * _SPANS_PER_EPOCH,
                        worker=f"worker-{wid}",
                        attempt=self._attempt,
                    )
                    self._stack.callback(ring.unlink)
                    self._rings.append(ring)
            np.copyto(self._p_shared.array, init.P)
            # LIFO: registered last so stragglers die before any unlink
            self._stack.callback(self._terminate_stragglers, self._procs)

            for wid, a in enumerate(assignments):
                shard = a.extract(data).sort_by_row()
                self._shard_nnz.append(shard.nnz)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        wid,
                        self._p_shared.spec,
                        tuple(buf.spec for buf in self._pull_bufs),
                        self._push_bufs[wid].spec,
                        self._progress.spec,
                        channel,
                        shard.rows,
                        shard.cols,
                        shard.vals,
                        epochs,
                        self.lr,
                        self.reg,
                        self.batch_size,
                        self.seed,
                        self._start_barrier,
                        self._end_barrier,
                        self.barrier_timeout_s,
                        self._rings[wid].spec if telemetry is not None else None,
                        self.epoch_offset,
                        self.fault_plan.for_rank(wid),
                        attempt_profile_dir,
                    ),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
        except BaseException:
            self._stack.close()
            self._stack = None
            raise

    def _await(self, barrier, point: str, epoch: int) -> None:
        """Rendezvous with every worker, detecting failures server-side.

        The server must never time out *inside* the barrier: a timed-out
        ``Barrier.wait`` breaks the barrier, which instantly kills every
        blocked survivor with ``BrokenBarrierError`` — destroying the
        exact evidence (who is still alive and waiting) the health plane
        needs.  So the server first watches the progress stamps and
        process states from outside, and only enters the barrier once
        every rank has stamped this rendezvous; workers wait with a
        longer timeout (``_WORKER_PATIENCE_S``), so at detection time
        the survivors are still blocked, classifiable, and are then
        reaped by ``close()``.

        A rank's ``barrier_timeout_s`` runs from the later of this call
        and the moment its boot stamp appeared, so a spawned worker's
        interpreter start-up and imports never count against it (on a
        loaded host they can take seconds, and a slow boot must not read
        as a straggler).  A rank that never boots is given up on after
        ``_WORKER_PATIENCE_S``.
        """
        expected = 2 * epoch + (1 if point == "start" else 2)
        stamps = self._progress.array
        started = time.perf_counter()
        # inside the workers' own barrier patience, so a late booter is
        # given up on before any booted peer's barrier wait expires
        boot_limit = started + _WORKER_PATIENCE_S

        def _deadline(rank: int) -> float:
            booted = self._booted_at.get(rank)
            if booted is None:
                return boot_limit
            return max(started, booted) + self.barrier_timeout_s

        def _missing() -> tuple[int, ...]:
            # a killed worker may have stamped *before* dying, so a rank
            # also counts as missing when its process already exited
            # abnormally — progress stamps alone would misname it
            return tuple(
                rank
                for rank in range(self.n_workers)
                if stamps[rank] < expected
                or self._procs[rank].exitcode not in (None, 0)
            )

        def _error(missing: tuple[int, ...], observed: str) -> WorkerSyncError:
            # name the detection that actually fired: a dead rank's exit
            # code when there is one, else the given observation
            dead = {
                rank: self._procs[rank].exitcode for rank in missing
                if self._procs[rank].exitcode not in (None, 0)
            }
            if dead:
                observed = _exit_note(dead, time.perf_counter() - started)
            return WorkerSyncError(point, epoch, missing, observed)

        while True:
            if len(self._booted_at) < self.n_workers:
                now = time.perf_counter()
                for rank in np.flatnonzero(stamps >= 0).tolist():
                    self._booted_at.setdefault(rank, now)
            missing = _missing()
            if not missing:
                break
            # a rank whose process already exited can never arrive, so a
            # dead worker is detected as soon as its exit code lands
            # (milliseconds) — the full timeout only applies to
            # stragglers, which might still make it
            dead = any(
                self._procs[rank].exitcode not in (None, 0)
                for rank in missing
            )
            now = time.perf_counter()
            overdue = [rank for rank in missing if now >= _deadline(rank)]
            if dead or overdue:
                unbooted = [r for r in overdue if r not in self._booted_at]
                raise _error(missing, (
                    f"no boot stamp after the {_WORKER_PATIENCE_S:.0f}s boot limit"
                    if unbooted else _timeout_note(self.barrier_timeout_s)
                ))
            # liveness poll, not a lock wait: bounded by the deadline
            time.sleep(0.002)  # hcclint: disable=blocking-call
        try:
            barrier.wait(timeout=self.barrier_timeout_s)
        except threading.BrokenBarrierError as exc:
            raise _error(
                _missing(),
                f"barrier broke after "
                f"{time.perf_counter() - started:.2f}s with every rank stamped",
            ) from exc

    # -- stages ----------------------------------------------------------
    def pull(self, epoch: int) -> Mapping:
        buf = self._pull_bufs[epoch % len(self._pull_bufs)]
        self._q_base = encode_pull(self._channel, self.model.Q, buf.array)
        self._await(self._start_barrier, "start", epoch)
        nbytes = buf.array.nbytes
        return {"wire_bytes": nbytes * self.n_workers, "per_worker_bytes": nbytes}

    def compute(self, epoch: int) -> Mapping:
        # the SGD itself runs in the worker processes between the two
        # barriers; the server-side stage records the shard workloads
        return {"updates": tuple(self._shard_nnz)}

    def push(self, epoch: int) -> Mapping:
        self._await(self._end_barrier, "end", epoch)
        nbytes = self._push_bufs[0].array.nbytes
        return {"wire_bytes": nbytes * self.n_workers, "per_worker_bytes": nbytes}

    def sync(self, epoch: int) -> Mapping:
        timed = self._telemetry is not None
        if timed:
            m0, c0 = time.perf_counter(), time.process_time()
        weights = [
            self._sync_policy.weight(wid, self._fractions)
            for wid in range(self.n_workers)
        ]
        merge_pushes(
            self._channel, self.model.Q, self._q_base,
            [buf.array for buf in self._push_bufs], weights, epoch,
        )
        # P leaves shared memory only once every push validated, so a
        # failed epoch's in-place P updates are discarded with it
        np.copyto(self.model.P, self._p_shared.array)
        if timed:
            m1 = time.perf_counter()
            self._server_spans.append(
                (Phase.SYNC, epoch, m0, m1, time.process_time() - c0)
            )
            self._registry.histogram(
                "merge_seconds", "server delta-merge time per epoch"
            ).observe(m1 - m0)
        return {"merges": self.n_workers,
                "merged_values": int(self.model.Q.size) * self.n_workers}

    def evaluate(self, epoch: int) -> float:
        timed = self._telemetry is not None
        if timed:
            e0, c0 = time.perf_counter(), time.process_time()
        rmse = self.model.rmse(self.data)
        if timed:
            self._server_spans.append((
                Phase.EVAL, epoch, e0, time.perf_counter(),
                time.process_time() - c0,
            ))
        return rmse

    # -- resilience ------------------------------------------------------
    def health_report(self, err: Exception | None = None) -> HealthReport:
        """Classify every worker at failure time (the health plane).

        Must run *before* :meth:`close` — teardown terminates the
        stragglers this report is meant to distinguish from the dead.
        Fuses the barrier progress evidence carried by ``err``
        (``missing_ranks``) with each process's live/exit state.

        A worker that crashed *moments* before the report would still
        show ``exitcode is None`` (the OS has not reaped it yet), so
        each missing rank gets a short grace join for its exit code to
        settle; a genuine straggler survives the grace and stays
        classified as straggling.
        """
        missing = tuple(getattr(err, "missing_ranks", ()) or ())
        deadline = time.perf_counter() + 1.0
        for rank in missing:
            if rank < len(self._procs) and self._procs[rank].exitcode is None:
                grace = max(0.0, deadline - time.perf_counter())
                self._procs[rank].join(timeout=grace)
        exitcodes = [proc.exitcode for proc in self._procs]
        return classify(
            self.n_workers, missing, exitcodes, cause=str(err) if err else ""
        )

    def drop_faults_through(self, epoch: int) -> None:
        """Retire injected faults at or before ``epoch`` (already fired).

        The engine calls this before a recovery restart so the fault
        that broke the epoch does not fire again on the re-run.
        """
        self.fault_plan = self.fault_plan.without_epochs_through(epoch)

    def remap_fault_ranks(self, dead_ranks) -> None:
        """Renumber pending faults after a redistribution compacts ranks.

        Called by the engine with the *old* numbering, before it
        shrinks ``n_workers``, so a fault aimed at a surviving worker
        follows that worker to its new rank instead of landing on
        whichever rank inherited the number.
        """
        self.fault_plan = self.fault_plan.remap_ranks(
            set(dead_ranks), self.n_workers
        )

    # -- teardown --------------------------------------------------------
    def finalize(self, telemetry) -> None:
        for proc in self._procs:
            proc.join(timeout=self.barrier_timeout_s)
        if telemetry is not None:
            self._finalize_telemetry(telemetry)

    def close(self) -> None:
        if self._stack is not None:
            # failure path (finalize never ran): the attempt's spans
            # would die with the rings' unlink, so reap the stragglers
            # (ordering their last ring writes before our reads) and
            # rescue the records first
            if self._rings and not self._finalized:
                self._terminate_stragglers(self._procs)
                spans, dropped = self._drain_attempt_spans()
                self._kept_spans.extend(spans)
                self._kept_dropped += dropped
                self._server_spans = []
            self._stack.close()
            self._stack = None

    def _drain_attempt_spans(self) -> tuple[list[Span], int]:
        """This attempt's ring + server spans on the *run's* axes.

        Ring records carry attempt-local epochs and absolute clock
        times; the run's Timeline speaks global epochs and run-origin
        time, so spans from different attempts interleave correctly.
        """
        origin = self._run_origin or 0.0
        spans: list[Span] = []
        dropped = 0
        for ring in self._rings:
            for rec in ring.drain():
                spans.append(Span(
                    ring.worker, rec.phase, rec.start - origin,
                    rec.end - origin, rec.epoch + self.epoch_offset,
                    rec.attempt, rec.cpu,
                ))
            dropped += ring.dropped
        for phase, ep, s0, s1, cpu in self._server_spans:
            spans.append(Span(
                "server", phase, s0 - origin, s1 - origin,
                ep + self.epoch_offset, self._attempt, cpu,
            ))
        return spans, dropped

    def _finalize_telemetry(self, telemetry: "Telemetry") -> None:
        """Drain the span rings into the run's Timeline and registry.

        Runs after the workers joined and *before* the rings unlink
        (close()'s ExitStack teardown), so every record is final and
        readable.  Spans rescued from earlier recovery attempts are
        stitched in ahead of the final attempt's.
        """
        from repro.obs.drift import HostRunInfo

        spans, dropped = self._drain_attempt_spans()
        timeline = Timeline()
        timeline.extend(self._kept_spans)
        timeline.extend(spans)
        dropped += self._kept_dropped
        self._finalized = True
        registry = telemetry.registry
        # wire-accurate per-epoch bytes: the actual shared-segment sizes,
        # so FP16 stacks report half the FP32 traffic
        pull_bytes = self._pull_bufs[0].array.nbytes
        push_bytes = self._push_bufs[0].array.nbytes
        epochs = self._epochs
        updates = registry.counter("updates_total", "SGD updates applied")
        pulled = registry.counter("bytes_pulled_total", "bytes pulled per worker")
        pushed = registry.counter("bytes_pushed_total", "bytes pushed per worker")
        barrier = registry.histogram(
            "barrier_wait_seconds", "time workers spent waiting at barriers"
        )
        rate = registry.gauge("updates_per_second", "achieved per-worker rate")
        for wid, ring in enumerate(self._rings):
            worker = ring.worker
            updates.inc(self._shard_nnz[wid] * epochs, worker=worker)
            pulled.inc(pull_bytes * epochs, worker=worker)
            pushed.inc(push_bytes * epochs, worker=worker)
            compute_s = timeline.phase_total(Phase.COMPUTE, worker)
            if compute_s > 0:
                rate.set(self._shard_nnz[wid] * epochs / compute_s, worker=worker)
        for span in timeline.spans:
            if span.phase is Phase.BARRIER:
                barrier.observe(span.duration, worker=span.worker)
        telemetry.attach_run(
            timeline,
            dropped,
            HostRunInfo(
                worker_names=tuple(r.worker for r in self._rings),
                shard_nnz=tuple(self._shard_nnz),
                k=self.k,
                m=self.data.m,
                n=self.data.n,
                epochs=epochs,
            ),
            ratings=self.data,
        )
