"""One workload run, in its own process: ``python3 -m perfbench.session``.

``perfbench/run.py`` starts this module under a deadline.  It streams
one ``@perfbench`` JSON record per finished operation on standard
output, so a hang loses only the operation in flight; every other line
is a human-readable note that ``run.py`` passes through.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from statistics import median

import numpy as np

from perfbench import servebench, trainbench
from perfbench.catalog import RECORD
from perfbench.stats import Rung, max_rate
from perfbench.tracing import Tracer, self_times
from perfbench.workloads import WORKLOADS


def emit(record: dict) -> None:
    print(RECORD + json.dumps(record, default=float), flush=True)


def note(text: str) -> None:
    print(text, flush=True)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------
def run_train(w, seed: int, seconds: float, trace: bool, workdir: str) -> None:
    ratings = trainbench.make_inputs(w, seed)
    t0 = time.perf_counter()
    reference = trainbench.reference_rmse(w, ratings, seed)
    note(f"reference final RMSE {reference:.6f} (serial replay, "
         f"{time.perf_counter() - t0:.1f} s, not measured)")
    if not trace:
        deadline = time.perf_counter() + seconds
        last = 0.0
        while True:
            rec, _ = trainbench.run_once(w, ratings, seed, reference, traced=False)
            emit(rec)
            last = rec.get("run_s", last)
            if time.perf_counter() + last > deadline:
                return

    probe_tracer = Tracer()
    probes = trainbench.probe_layers(w, ratings, seed, probe_tracer)
    deadline = time.perf_counter() + seconds
    plain, traced, tracers = [], [], []
    while True:
        rec, _ = trainbench.run_once(w, ratings, seed, reference, traced=False)
        emit(rec)
        plain.append(rec)
        rec, tracer = trainbench.run_once(w, ratings, seed, reference, traced=True)
        emit(rec)
        traced.append(rec)
        tracers.append(tracer)
        if time.perf_counter() + 2 * rec.get("run_s", 0.0) > deadline:
            break
    metrics, lines = train_layers(w, probes, plain, traced, tracers)
    path = os.path.join(workdir, f"trace-{w.name}-{seed}.json")
    _write_traces(path, [probe_tracer, *tracers], w.name, seed)
    emit({"kind": "layers", "metrics": metrics, "reconciliation": lines,
          "trace_file": os.path.relpath(path)})


def _write_traces(path: str, tracers, workload: str, seed: int) -> None:
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "traces": [t.dump() for t in tracers]}, fh)


def _ok(records, key):
    return [r[key] for r in records if r.get("ok") and key in r]


def _table(title: str, total: float, parts, unit: str, scale: float) -> list[str]:
    """Rows of parts against their total, closed by the unattributed rest."""
    rest = total - sum(v for _, v in parts)
    rows = [f"{title}: {total * scale:.3f} {unit}"]
    for name, v in [*parts, ("unattributed", rest)]:
        share = v / total if total else 0.0
        rows.append(f"  {name:<34} {v * scale:10.3f} {unit} {share:7.1%}")
    return rows


def _reconcile(tracer: Tracer) -> list[str]:
    """One traced run, second by second: its spans against its wall time."""
    run = tracer.named("run")[0]
    top = tracer.children(run.id)
    epochs = [s for s in top if s.name.startswith("epoch[")]
    if not epochs:
        return []
    lines = _table("run wall time (last traced run)", run.duration, [
        ("open (prep + spawn)", sum(s.duration for s in top if s.name == "open")),
        ("first epoch", epochs[0].duration),
        (f"{len(epochs) - 1} steady epochs", sum(e.duration for e in epochs[1:])),
        ("teardown (finalize + close)",
         sum(s.duration for s in top if s.name in ("finalize", "close"))),
    ], "s", 1.0)
    steady = epochs[1:]
    calls: dict[str, float] = {}
    for ep in steady:
        for child in tracer.children(ep.id):
            calls[child.name] = calls.get(child.name, 0.0) + child.duration
    n = max(len(steady), 1)
    lines += _table(
        f"steady epoch, mean of {len(steady)}",
        sum(e.duration for e in steady) / n,
        [(name, total / n) for name, total in calls.items()], "ms", 1e3,
    )
    return lines


def train_layers(w, probes, plain, traced, tracers):
    """Per-layer metrics and the reconciliation lines of a training run."""
    opens, firsts, teardowns, run_selfs = [], [], [], []
    steady: dict[str, list[float]] = {}
    for tracer in tracers:
        selfs = self_times(list(tracer.spans.values()))
        run = tracer.named("run")[0]
        top = tracer.children(run.id)
        opens.append(sum(s.duration for s in top if s.name == "open"))
        teardowns.append(sum(s.duration for s in top if s.name in ("finalize", "close")))
        run_selfs.append(selfs[run.id])
        epochs = [s for s in top if s.name.startswith("epoch[")]
        if not epochs:
            continue
        firsts.append(epochs[0].duration)
        for ep in epochs[1:]:
            steady.setdefault("epoch", []).append(ep.duration)
            steady.setdefault("self", []).append(selfs[ep.id])
            for child in tracer.children(ep.id):
                steady.setdefault(child.name, []).append(child.duration)

    def med(key):
        return median(steady[key]) if steady.get(key) else 0.0

    rate = [r["updates"] / (r["run_s"] - r["setup_s"]) for r in plain if r.get("ok")]
    plain_run = _ok(plain, "run_s")
    traced_run = _ok(traced, "run_s")
    kernel_rate = probes["shard_nnz"] / probes["shard_epoch_s"]
    open_s = median(opens) if opens else 0.0
    push_wait = med("push")
    m = {
        "engine.backends.open.prep_s": probes["prep_s"],
        "engine.backends.open.spawn_s": open_s - probes["prep_s"],
        "engine.backends.first_epoch_s": median(firsts) if firsts else 0.0,
        "engine.backends.pull_s": med("pull"),
        "engine.backends.push_wait_s": push_wait,
        "engine.backends.sync_s": med("sync"),
        "engine.backends.evaluate_s": med("evaluate"),
        "engine.backends.teardown_s": median(teardowns) if teardowns else 0.0,
        "engine.pipeline.unattributed_s": med("self"),
        "engine.run.unattributed_s": median(run_selfs) if run_selfs else 0.0,
        "engine.wire_bytes_per_epoch": (
            median(_ok(traced, "wire_bytes")) / w.epochs if traced_run else 0.0
        ),
        "mf.kernels.shard_epoch_s": probes["shard_epoch_s"],
        "mf.kernels.updates_per_s": kernel_rate,
        "engine.channels.encode_s": probes["encode_s"],
        "engine.channels.decode_s": probes["decode_s"],
        "engine.channels.codec_s_per_epoch": (
            probes["encode_calls"] * probes["encode_s"]
            + probes["decode_calls"] * probes["decode_s"]
        ),
        "ladder.worker_kernel_share": (
            probes["shard_epoch_s"] / push_wait if push_wait else 0.0
        ),
        "ladder.parallel_efficiency": (
            median(rate) / (w.workers * kernel_rate) if rate else 0.0
        ),
        "ladder.epoch_attributed": 1.0 - med("self") / med("epoch") if med("epoch") else 0.0,
    }
    if plain_run and traced_run:
        m["bench.tracing_overhead_ms"] = (median(traced_run) - median(plain_run)) * 1e3
        m["bench.tracing_overhead_ratio"] = median(traced_run) / median(plain_run) - 1.0

    lines = _reconcile(tracers[-1]) if tracers else []
    if plain_run and traced_run:
        lines.append(
            f"tracing overhead: traced run {median(traced_run):.4f} s vs untraced "
            f"{median(plain_run):.4f} s ({m['bench.tracing_overhead_ratio']:+.2%})"
        )
    return m, lines


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------
def run_serve(w, seed: int, seconds: float, trace: bool, workdir: str) -> None:
    fx = servebench.make_inputs(w, seed, workdir)
    warm = np.random.default_rng(seed).integers(0, fx.ratings.m, size=w.batch)
    setups = [servebench.setup_once(w, fx, warm)[0] for _ in range(9)]
    emit({"kind": "serve_setup", "setup_s": setups})
    if not trace:
        _, parts = servebench.setup_once(w, fx, warm)
        records, swaps, _ = servebench.run_ladder(w, fx, parts, seed, seconds, None)
        for rec in records:
            emit(rec)
        emit(servebench.swap_record(swaps))
        return

    tracer = Tracer()
    idle = servebench.idle_probes(fx, tracer)
    _, parts = servebench.setup_once(w, fx, warm)
    plain, plain_swaps, _ = servebench.run_ladder(
        w, fx, parts, seed, seconds, None, rates=(w.reference_rate,)
    )
    for rec in plain:
        emit(rec)
    emit(servebench.swap_record(plain_swaps))
    _, parts = servebench.setup_once(w, fx, warm)
    records, swaps, raw = servebench.run_ladder(w, fx, parts, seed, seconds, tracer)
    for rec in records:
        emit(rec)
    emit(servebench.swap_record(swaps))
    metrics, lines = serve_layers(w, idle, plain, records, swaps, raw)
    path = os.path.join(workdir, f"trace-{w.name}-{seed}.json")
    _write_traces(path, [tracer], w.name, seed)
    emit({"kind": "layers", "metrics": metrics, "reconciliation": lines,
          "trace_file": os.path.relpath(path)})


def serve_layers(w, idle, plain, records, swaps, raw):
    """Per-layer metrics and the reconciliation lines of a serving run."""
    ref = raw[w.reference_rate]
    ok = [r for r in ref if r.ok]
    service = [r.service * 1e3 for r in ok]
    queue = [r.queue * 1e3 for r in ok]
    late_all = [r.late * 1e3 for reqs in raw.values() for r in reqs]
    windows = [(s, e) for s, e, good, _, _ in swaps if good]
    swap_ms = [(e - s) * 1e3 for s, e in windows]

    def overlaps(r):
        return any(r.intended < e and r.end > s for s, e in windows)

    during = [r.latency * 1e3 for r in ok if overlaps(r)]
    outside = [r.latency * 1e3 for r in ok if not overlaps(r)]
    all_reqs = [r for reqs in raw.values() for r in reqs]
    ref_rec = next(r for r in records if r["reference"])
    plain_p50 = plain[0]["p50_ms"]
    m = {
        "serving.scorer.top_k_ms.p50": float(np.percentile(service, 50)),
        "serving.scorer.top_k_ms.p99": float(np.percentile(service, 99)),
        "serving.queue_ms.p50": float(np.percentile(queue, 50)),
        "serving.queue_ms.p99": float(np.percentile(queue, 99)),
        "serving.latency_ms.p99": ref_rec["p99_ms"],
        "serving.max_rate_qps": max_rate(
            [Rung(r["rate"], r["p99_ms"], r["backlog"], r["failed"]) for r in records],
            w.limit_ms,
        ),
        "serving.generator.late_ms.p99": float(np.percentile(late_all, 99)),
        "serving.store.swap_ms.p50": median(swap_ms) if swap_ms else 0.0,
        "serving.store.swap_ms.max": max(swap_ms) if swap_ms else 0.0,
        "serving.store.swap_ms.idle": idle["swap_idle_ms"],
        "core.checkpoint.load_ms": idle["load_ms"],
        "ladder.swap_contention": (
            median(swap_ms) / idle["swap_idle_ms"] if swap_ms else 0.0
        ),
        "serving.p99_ms.during_swap": float(np.percentile(during, 99)) if during else 0.0,
        "serving.p99_ms.outside_swap": float(np.percentile(outside, 99)) if outside else 0.0,
        "serving.requests.sent": len(all_reqs),
        "serving.requests.ok": sum(r["ok"] for r in records),
        "serving.requests.failed": sum(r["failed"] for r in records),
        "serving.swaps.ok": len(windows),
        "serving.swaps.failed": len(swaps) - len(windows),
        "bench.tracing_overhead_ms": ref_rec["p50_ms"] - plain_p50,
        "bench.tracing_overhead_ratio": ref_rec["p50_ms"] / plain_p50 - 1.0,
    }
    n = len(ok)
    lines = _table(
        f"mean latency at the {w.reference_rate:g} req/s reference rung, {n} requests",
        sum(r.latency for r in ok) / n,
        [("top_k service", sum(r.service for r in ok) / n),
         ("wait behind earlier requests", sum(r.queue - r.late for r in ok) / n),
         ("generator lateness", sum(r.late for r in ok) / n)],
        "ms", 1e3,
    )
    lines.append(
        f"  p99 {ref_rec['p99_ms']:.2f} ms: {len(during)} requests overlapping a "
        f"swap (p99 {m['serving.p99_ms.during_swap']:.2f} ms), {len(outside)} "
        f"outside (p99 {m['serving.p99_ms.outside_swap']:.2f} ms)"
    )
    lines.append(
        f"tracing overhead: traced reference p50 {ref_rec['p50_ms']:.3f} ms vs "
        f"untraced {plain_p50:.3f} ms ({m['bench.tracing_overhead_ratio']:+.2%})"
    )
    return m, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    from repro.obs.bench import _git_sha, host_fingerprint

    w = WORKLOADS[args.workload]
    emit({"kind": "provenance", "workload": w.name, "seed": args.seed,
          "git_sha": _git_sha(), "host": host_fingerprint()})
    run = run_train if w.kind == "train" else run_serve
    run(w, args.seed, args.seconds, bool(args.trace), args.workdir)
    emit({"kind": "done"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
