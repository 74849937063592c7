"""Training workloads: ``EpochEngine`` over ``ProcessBackend``.

End-to-end runs time only ``open`` (for ``setup_s``) and the whole
``EpochEngine.run``; traced runs wrap every backend call in a span.
Probes replay single layers in process: ``open``'s data prep, the SGD
kernel over the largest shard, and the wire codec.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from repro.data.datasets import get_dataset
from repro.data.grid import GridKind, partition_rows
from repro.engine.backends import ProcessBackend
from repro.engine.channels import Fp16Channel, QOnlyChannel
from repro.engine.partitions import as_provider
from repro.engine.pipeline import STAGES, EpochEngine
from repro.mf.kernels import ConflictPolicy, sgd_batch_update
from repro.mf.model import MFModel

from perfbench.tracing import RUN_CALLS, STAGE_CALLS, TimingProxy, Tracer
from perfbench.workloads import TrainWorkload

def make_inputs(w: TrainWorkload, seed: int):
    return get_dataset(w.dataset).scaled(w.nnz).generate(seed=seed)


def make_channel(w: TrainWorkload):
    channel = QOnlyChannel()
    return Fp16Channel(channel) if w.fp16 else channel


def make_backend(w: TrainWorkload, ratings, seed: int) -> ProcessBackend:
    spec = get_dataset(w.dataset)
    return ProcessBackend(
        ratings, k=w.k, n_workers=w.workers, lr=spec.learning_rate,
        reg=spec.reg, batch_size=w.batch_size, seed=seed,
    )


def _fractions(w: TrainWorkload):
    return as_provider(None).plan(w.workers).fractions


def _shards(w: TrainWorkload, ratings, seed: int):
    """``open``'s data prep: shuffle, row partition, per-shard sort."""
    data = ratings.shuffle(seed)
    parts = partition_rows(data, _fractions(w), GridKind.ROW)
    return data, [a.extract(data).sort_by_row() for a in parts]


def _shard_epoch(model, shard, rng, w: TrainWorkload, lr, reg) -> None:
    order = rng.permutation(shard.nnz)
    for lo in range(0, shard.nnz, w.batch_size):
        sel = order[lo:lo + w.batch_size]
        sgd_batch_update(model, shard.rows[sel], shard.cols[sel],
                         shard.vals[sel], lr, reg,
                         policy=ConflictPolicy.ATOMIC)


def reference_rmse(w: TrainWorkload, ratings, seed: int) -> float:
    """Final RMSE of a serial replay of the process plane's algorithm.

    Per epoch: Q goes through the wire codec, each worker trains its
    own decoded copy of Q and its own rows of P on its shard, and the
    server adds every worker's delta against the decoded base.
    """
    spec = get_dataset(w.dataset)
    channel = make_channel(w)
    data, shards = _shards(w, ratings, seed)
    model = MFModel.init_for(data, w.k, seed=seed)
    rngs = [np.random.default_rng(seed + 1000 * (i + 1)) for i in range(w.workers)]
    wire = np.empty(model.Q.shape, dtype=channel.wire_dtype)
    for _ in range(w.epochs):
        channel.encode(model.Q, wire)
        base = channel.decode(wire)
        pushed = []
        for shard, rng in zip(shards, rngs):
            local = MFModel(model.P, channel.decode(wire))
            _shard_epoch(local, shard, rng, w, spec.learning_rate, spec.reg)
            out = np.empty_like(wire)
            channel.encode(local.Q, out)
            pushed.append(out if out.dtype == np.float32 else channel.decode(out))
        for received in pushed:
            model.Q += received - base
    return model.rmse(data)


def check_run(w: TrainWorkload, result, reference: float) -> list[str]:
    """Output checks for one engine run; an empty list means it passed."""
    problems = []
    want = [(e, s) for e in range(w.epochs) for s in STAGES]
    if result.stage_sequence() != want:
        problems.append("stage trace is not pull/compute/push/sync per epoch")
    if len(result.rmse_history) != w.epochs:
        problems.append(f"{len(result.rmse_history)} RMSE values for {w.epochs} epochs")
    elif abs(result.rmse_history[-1] / reference - 1.0) > w.rmse_rel_tol:
        problems.append(
            f"final RMSE {result.rmse_history[-1]:.6f} is off the reference "
            f"{reference:.6f} by more than {w.rmse_rel_tol:.1%}"
        )
    return problems


def run_once(w: TrainWorkload, ratings, seed: int, reference: float,
             traced: bool) -> tuple[dict, Tracer]:
    """One ``EpochEngine.run``; returns its record and its spans."""
    tracer = Tracer()
    run_span = tracer.begin("run")
    calls = STAGE_CALLS + RUN_CALLS if traced else ("open",)
    backend = TimingProxy(make_backend(w, ratings, seed), tracer, run_span, calls)
    engine = EpochEngine(backend, make_channel(w))
    t0 = time.perf_counter()
    try:
        result = engine.run(w.epochs)
    except Exception as exc:  # a failed run is counted, never fatal
        tracer.end(run_span)
        return {"kind": "train_run", "traced": traced, "ok": False,
                "problems": [f"{type(exc).__name__}: {exc}"]}, tracer
    run_s = time.perf_counter() - t0
    tracer.end(run_span)
    problems = check_run(w, result, reference)
    setup_s = sum(s.duration for s in tracer.named("open"))
    return {
        "kind": "train_run",
        "traced": traced,
        "ok": not problems,
        "problems": problems,
        "run_s": run_s,
        "setup_s": setup_s,
        "updates": result.updates_applied,
        "final_rmse": result.rmse_history[-1] if result.rmse_history else None,
        "wire_bytes": result.wire_bytes("pull") + result.wire_bytes("push"),
    }, tracer


# ---------------------------------------------------------------------------
# single-layer probes (traced runs only)
# ---------------------------------------------------------------------------
def _timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def probe_layers(w: TrainWorkload, ratings, seed: int, tracer: Tracer) -> dict:
    """Probe spans are roots of their own; returns per-call seconds."""
    spec = get_dataset(w.dataset)
    out = {}
    with tracer.span("probe:prep"):
        out["prep_s"] = _timed(lambda: _shards(w, ratings, seed), 3)

    data, shards = _shards(w, ratings, seed)
    shard = max(shards, key=lambda s: s.nnz)
    init = MFModel.init_for(data, w.k, seed=seed)
    times = []
    with tracer.span("probe:kernel"):
        for rep in range(3):
            model = init.copy()
            rng = np.random.default_rng(seed + rep)
            t0 = time.perf_counter()
            _shard_epoch(model, shard, rng, w, spec.learning_rate, spec.reg)
            times.append(time.perf_counter() - t0)
    out["shard_epoch_s"] = median(times)
    out["shard_nnz"] = shard.nnz

    channel = make_channel(w)
    q = init.Q
    wire = np.empty(q.shape, dtype=channel.wire_dtype)
    calls = 50

    def encode():
        for _ in range(calls):
            channel.encode(q, wire)

    def decode():
        for _ in range(calls):
            channel.decode(wire)

    with tracer.span("probe:encode"):
        out["encode_s"] = _timed(encode, 7) / calls
    with tracer.span("probe:decode"):
        out["decode_s"] = _timed(decode, 7) / calls
    # codec calls on an epoch's critical path: the server's pull encode
    # and base decode, one worker's decode and encode, and the server's
    # per-worker decode in sync when the wire is not FP32
    out["encode_calls"] = 2
    out["decode_calls"] = 2 + (w.workers if channel.wire_dtype != "float32" else 0)
    return out
