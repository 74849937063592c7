"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` declares the same names; a test keeps the two equal.
Per-layer metrics of a layer a workload does not exercise read 0 on
that workload (the serving layers on training workloads and the other
way round).
"""

#: prefix of a record line on the session's standard output
RECORD = "@perfbench "

#: end-to-end metrics, untraced runs (name, unit, what it is per kind)
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
)

#: per-layer metrics, traced runs
PER_LAYER = (
    # training: ProcessBackend calls, timed by the proxy (per steady epoch
    # unless the name says otherwise)
    ("engine.backends.open.prep_s", "s"),
    ("engine.backends.open.spawn_s", "s"),
    ("engine.backends.first_epoch_s", "s"),
    ("engine.backends.pull_s", "s"),
    ("engine.backends.push_wait_s", "s"),
    ("engine.backends.sync_s", "s"),
    ("engine.backends.evaluate_s", "s"),
    ("engine.backends.teardown_s", "s"),
    ("engine.pipeline.unattributed_s", "s"),
    ("engine.run.unattributed_s", "s"),
    ("engine.wire_bytes_per_epoch", "bytes"),
    # training: single-layer probes
    ("mf.kernels.shard_epoch_s", "s"),
    ("mf.kernels.updates_per_s", "1/s"),
    ("engine.channels.encode_s", "s"),
    ("engine.channels.decode_s", "s"),
    ("engine.channels.codec_s_per_epoch", "s"),
    # training: ratios between adjacent layers
    ("ladder.worker_kernel_share", "ratio"),
    ("ladder.parallel_efficiency", "ratio"),
    ("ladder.epoch_attributed", "ratio"),
    # serving: the reference rung unless the name says otherwise
    ("serving.scorer.top_k_ms.p50", "ms"),
    ("serving.scorer.top_k_ms.p99", "ms"),
    ("serving.queue_ms.p50", "ms"),
    ("serving.queue_ms.p99", "ms"),
    ("serving.latency_ms.p99", "ms"),
    ("serving.max_rate_qps", "1/s"),
    ("serving.generator.late_ms.p99", "ms"),
    ("serving.store.swap_ms.p50", "ms"),
    ("serving.store.swap_ms.max", "ms"),
    ("serving.store.swap_ms.idle", "ms"),
    ("core.checkpoint.load_ms", "ms"),
    ("ladder.swap_contention", "ratio"),
    ("serving.p99_ms.during_swap", "ms"),
    ("serving.p99_ms.outside_swap", "ms"),
    ("serving.requests.sent", "count"),
    ("serving.requests.ok", "count"),
    ("serving.requests.failed", "count"),
    ("serving.swaps.ok", "count"),
    ("serving.swaps.failed", "count"),
    # both: traced minus untraced, on the workload's latency_ms
    ("bench.tracing_overhead_ms", "ms"),
    ("bench.tracing_overhead_ratio", "ratio"),
)

UNITS = dict(END_TO_END + PER_LAYER)
