"""Microbenchmarks of the numeric substrate's hot kernels.

These complement the paper-table benches: they measure the real NumPy
SGD throughput (this host's "computing power" in the paper's Eq. 8
sense), one pull through the channel wire codec, and the FP16 codec.

The workload is :func:`repro.obs.bench.kernel_workload` — the same
pinned synthetic matrix the ``repro bench`` suite measures, so
pytest-benchmark numbers and ``BENCH_train.json`` entries describe the
same work.
"""

import numpy as np

from repro.core.compression import compress_fp16, decompress_fp16
from repro.engine.channels import QOnlyChannel
from repro.mf.kernels import ConflictPolicy, sgd_epoch
from repro.mf.model import MFModel
from repro.obs.bench import kernel_workload as _data


def bench_sgd_epoch_atomic(benchmark):
    ratings = _data()
    model = MFModel.init_for(ratings, 32, seed=0)
    benchmark(
        sgd_epoch, model, ratings, 0.005, 0.01, 4096, ConflictPolicy.ATOMIC
    )
    benchmark.extra_info["updates_per_round"] = ratings.nnz
    benchmark.extra_info["host_updates_per_s"] = (
        ratings.nnz / benchmark.stats.stats.mean
    )


def bench_sgd_epoch_last_write(benchmark):
    ratings = _data()
    model = MFModel.init_for(ratings, 32, seed=0)
    benchmark(
        sgd_epoch, model, ratings, 0.005, 0.01, 4096, ConflictPolicy.LAST_WRITE
    )
    benchmark.extra_info["updates_per_round"] = ratings.nnz


def bench_fp16_roundtrip(benchmark):
    arr = np.random.default_rng(0).uniform(0.01, 2.0, (128, 20_000)).astype(np.float32)

    def roundtrip():
        return decompress_fp16(compress_fp16(arr))

    out = benchmark(roundtrip)
    assert out.dtype == np.float32
    benchmark.extra_info["mbytes"] = arr.nbytes / 1e6


def bench_pull_buffer_cycle(benchmark):
    q = np.random.default_rng(0).uniform(0.0, 1.0, (64, 30_000)).astype(np.float32)
    channel = QOnlyChannel()
    wire = np.zeros(q.shape, dtype=channel.wire_dtype)

    def cycle():
        # the server's one encode onto the pull wire, a worker's decode
        channel.encode(q, wire)
        return channel.decode(wire)

    benchmark(cycle)
    benchmark.extra_info["mbytes"] = q.nbytes / 1e6


def bench_partition_rows(benchmark):
    from repro.data.grid import partition_rows

    ratings = _data(nnz=120_000, seed=3)
    parts = benchmark(partition_rows, ratings, [0.1, 0.2, 0.3, 0.4])
    assert sum(p.nnz for p in parts) == ratings.nnz
