"""Serving workload: open-loop top-k requests beside scheduled hot swaps.

One thread sends requests on a Poisson schedule (rate ladder) and times
each from its intended send; a second thread calls ``ModelStore.swap``
between two pre-written checkpoints on a fixed period.  Once per rung a
fixed probe batch is checked against a brute-force oracle on the
snapshot version that answered it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from repro.core.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from repro.data.datasets import get_dataset
from repro.mf.model import MFModel
from repro.serving.scorer import Scorer, SeenIndex
from repro.serving.store import ModelStore

from perfbench.stats import Request, backlog_grows, run_open_loop
from perfbench.tracing import Tracer
from perfbench.workloads import ServeWorkload


@dataclass
class Fixture:
    ratings: object
    models: dict          # checkpoint path -> the MFModel written there
    paths: list[str]      # [initial, alternate]


def make_inputs(w: ServeWorkload, seed: int, workdir: str) -> Fixture:
    """Ratings plus two checkpoints of models drawn from the seed."""
    ratings = get_dataset(w.dataset).scaled(w.nnz).generate(seed=seed)
    models, paths = {}, []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(2)):
        model = MFModel.init_for(ratings, w.k, seed=int(child.generate_state(1)[0]))
        path = os.path.join(workdir, f"serve-{seed}-{i}")
        save_checkpoint(Checkpoint(model=model, epoch=i + 1), path)
        models[path] = model
        paths.append(path)
    return Fixture(ratings, models, paths)


def setup_once(w: ServeWorkload, fx: Fixture, warm_users) -> tuple[float, tuple]:
    """First load, seen index and one warm top_k; returns (seconds, parts)."""
    t0 = time.perf_counter()
    store = ModelStore(fx.paths[0])
    seen = SeenIndex.from_ratings(fx.ratings)
    scorer = Scorer(store)
    scorer.top_k(warm_users, w.topk, exclude=seen)
    return time.perf_counter() - t0, (store, seen, scorer)


def oracle_items(model: MFModel, users, k: int, seen: SeenIndex) -> list[np.ndarray]:
    """Brute force: every allowed item, ordered by (-score, item)."""
    scores = model.P[users] @ model.Q
    out = []
    for i, user in enumerate(users):
        allowed = np.ones(model.n, dtype=bool)
        allowed[seen.items_for(int(user))] = False
        idx = np.flatnonzero(allowed)
        out.append(idx[np.lexsort((idx, -scores[i, idx]))][:k])
    return out


@dataclass
class Swapper:
    """Calls ``store.swap`` on a fixed period, alternating checkpoints."""

    store: ModelStore
    paths: list[str]
    period_s: float
    tracer: Tracer | None = None
    swaps: list = field(default_factory=list)  # (start, end, ok, version, path)
    published: dict = field(default_factory=dict)  # version -> path

    def __post_init__(self):
        self._stop = threading.Event()
        self.published[self.store.version] = self.paths[0]

    def run(self, t0: float) -> None:
        j = 0
        while True:
            due = t0 + (j + 0.5) * self.period_s
            if self._stop.wait(max(0.0, due - time.perf_counter())):
                return
            path = self.paths[(j + 1) % 2]
            # this thread is the store's only writer, so the next version
            # is known; naming it first means no reader sees it unnamed
            version = self.store.version + 1
            self.published[version] = path
            start = time.perf_counter()
            result = self.store.swap(path)
            end = time.perf_counter()
            if not result.ok:
                del self.published[version]
            self.swaps.append((start, end, result.ok, result.version, path))
            if self.tracer is not None:
                self.tracer.record(f"swap[{j}]", start, end)
            j += 1

    def stop(self) -> None:
        self._stop.set()


def _rung_schedule(rate: float, duration: float, batch: int, m: int, rng):
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 2) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < duration]
    users = rng.integers(0, m, size=(len(offsets), batch))
    return offsets, users


def rung_durations(w: ServeWorkload, seconds: float) -> list[float]:
    """The ladder takes 80% of the run, the reference rung several shares."""
    shares = [w.reference_shares if r == w.reference_rate else 1 for r in w.rates]
    unit = 0.8 * seconds / sum(shares)
    return [s * unit for s in shares]


def run_ladder(w: ServeWorkload, fx: Fixture, parts, seed: int, seconds: float,
               tracer: Tracer | None, rates=None) -> tuple[list[dict], list, dict]:
    """Drive the rate ladder with the swapper running beside it.

    Returns per-rung records, the swap log, and the raw requests of
    every rung keyed by rate (for the traced layer metrics).
    """
    store, seen, scorer = parts
    rates = w.rates if rates is None else rates
    durations = dict(zip(w.rates, rung_durations(w, seconds)))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    probe_users = np.random.default_rng(seed).integers(0, fx.ratings.m, size=w.probe_users)
    schedules = [_rung_schedule(r, durations[r], w.batch, fx.ratings.m, rng) for r in rates]

    swapper = Swapper(store, fx.paths, w.swap_period_s, tracer)
    t0 = time.perf_counter()
    thread = threading.Thread(target=swapper.run, args=(t0,), daemon=True)
    thread.start()
    records, raw = [], {}
    try:
        for idx, (rate, (offsets, users)) in enumerate(zip(rates, schedules)):
            rung_span = tracer.begin(f"rung[{idx}]") if tracer is not None else None
            service_spans: dict[int, int] = {}

            def call(i, users=users, service_spans=service_spans):
                start = time.perf_counter()
                result = scorer.top_k(users[i], w.topk, exclude=seen)
                if tracer is not None:
                    service_spans[i] = tracer.record(
                        "top_k", start, time.perf_counter()
                    )
                return result.version

            base = time.perf_counter() + 0.01
            reqs = run_open_loop(base + offsets, call, time.perf_counter, time.sleep)
            if tracer is not None:
                for r in reqs:
                    rid = tracer.record(f"request[{r.index}]", r.intended, r.end, rung_span)
                    if r.index in service_spans:
                        tracer.spans[service_spans[r.index]].parent = rid
                tracer.end(rung_span)
            probe_ok = _probe(w, fx, scorer, seen, swapper, probe_users)
            raw[rate] = reqs
            records.append(_rung_record(w, rate, reqs, swapper, probe_ok))
    finally:
        swapper.stop()
        thread.join(timeout=60.0)
    if thread.is_alive():
        raise RuntimeError("swapper thread did not stop within 60 s")
    return records, swapper.swaps, raw


def _probe(w, fx, scorer, seen, swapper, users) -> bool:
    result = scorer.top_k(users, w.topk, exclude=seen)
    path = swapper.published.get(result.version)
    if path is None:
        return False
    want = oracle_items(fx.models[path], users, w.topk, seen)
    return all(np.array_equal(a, b) for a, b in zip(result.items, want))


def _rung_record(w, rate, reqs: list[Request], swapper: Swapper, probe_ok: bool) -> dict:
    ok = [r for r in reqs if r.ok]
    published = set(swapper.published)
    stray = sum(1 for r in ok if r.version not in published)
    lat = [r.latency * 1e3 for r in ok] or [float("inf")]
    span = reqs[-1].end - reqs[0].intended
    return {
        "kind": "rung",
        "rate": rate,
        "reference": rate == w.reference_rate,
        "sent": len(reqs),
        "ok": len(ok) - stray,
        "failed": len(reqs) - len(ok) + stray,
        "stray_versions": stray,
        "probe_ok": probe_ok,
        "p50_ms": float(np.percentile(lat, 50)),
        "p99_ms": float(np.percentile(lat, 99)),
        "backlog": backlog_grows(reqs, w.limit_ms / 1e3),
        # responses per second from the first intended send to the last
        # response: the capacity when the rate is beyond it
        "goodput": (len(ok) - stray) / span,
        "busy_s": sum(r.service for r in ok),
    }


def swap_record(swaps) -> dict:
    ms = [(end - start) * 1e3 for start, end, ok, _, _ in swaps if ok]
    return {
        "kind": "swaps",
        "ok": len(ms),
        "failed": sum(1 for s in swaps if not s[2]),
        "p50_ms": median(ms) if ms else None,
        "max_ms": max(ms) if ms else None,
    }


def idle_probes(fx: Fixture, tracer: Tracer) -> dict:
    """Checkpoint load and swap with nothing else running."""
    store = ModelStore(fx.paths[0])
    with tracer.span("probe:load_checkpoint"):
        load = []
        for _ in range(5):
            t0 = time.perf_counter()
            load_checkpoint(fx.paths[1], readonly=True)
            load.append(time.perf_counter() - t0)
    with tracer.span("probe:swap_idle"):
        swap = []
        for j in range(6):
            t0 = time.perf_counter()
            store.swap(fx.paths[j % 2])
            swap.append(time.perf_counter() - t0)
    return {"load_ms": median(load) * 1e3, "swap_idle_ms": median(swap) * 1e3}
