"""Span self time and the transparency of the timing proxy."""

import pytest

from perfbench.tracing import Span, TimingProxy, Tracer, self_times


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "parent", 0.0, 10.0, None),
        Span(2, "a", 1.0, 3.0, 1),
        Span(3, "b", 2.0, 5.0, 1),      # overlaps a: counted once
        Span(4, "c", 8.0, 12.0, 1),     # runs past the parent: clipped
        Span(5, "grandchild", 1.5, 2.5, 2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([Span(1, "x", 2.0, 2.5, None)]) == {1: pytest.approx(0.5)}


class FakeBackend:
    """Records what the proxy forwards."""

    name = "fake"

    def __init__(self):
        self.n_workers = 2
        self.calls = []

    def open(self, *args):
        self.calls.append(("open", args))

    def pull(self, epoch):
        self.calls.append(("pull", epoch))
        return {"epoch": epoch}

    def push(self, epoch):
        self.calls.append(("push", epoch))

    def finalize(self, telemetry):
        self.calls.append(("finalize", telemetry))

    def health_report(self, err=None):
        return "health"


def test_proxy_forwards_attribute_writes_and_untimed_calls():
    backend = FakeBackend()
    tracer = Tracer()
    proxy = TimingProxy(backend, tracer, tracer.begin("run"))
    for name, value in (("initial_model", object()), ("epoch_offset", 3),
                        ("n_workers", 1), ("profile_dir", "x")):
        setattr(proxy, name, value)
        assert getattr(backend, name) is value
        assert getattr(proxy, name) is value
    assert proxy.name == "fake"
    assert proxy.health_report() == "health"
    assert not any(s.name == "health_report" for s in tracer.spans.values())


def test_proxy_nests_stage_calls_under_epochs():
    backend = FakeBackend()
    tracer = Tracer()
    run = tracer.begin("run")
    proxy = TimingProxy(backend, tracer, run)
    proxy.open("plan")
    for epoch in range(2):
        assert proxy.pull(epoch) == {"epoch": epoch}
        proxy.push(epoch)
    proxy.finalize(None)
    tracer.end(run)

    top = [s.name for s in tracer.children(run)]
    assert top == ["open", "epoch[0]", "epoch[1]", "finalize"]
    epoch0 = tracer.children(run)[1]
    assert [s.name for s in tracer.children(epoch0.id)] == ["pull", "push"]
    assert backend.calls[0] == ("open", ("plan",))
    # an epoch ends where the next begins: no gap is lost between them
    e0, e1 = tracer.children(run)[1:3]
    assert e0.end <= e1.start


def test_proxy_times_only_the_calls_it_is_given():
    backend = FakeBackend()
    tracer = Tracer()
    proxy = TimingProxy(backend, tracer, tracer.begin("run"), calls=("open",))
    proxy.open()
    proxy.pull(0)
    assert sorted(s.name for s in tracer.spans.values()) == ["open", "run"]


def test_wrapped_process_run_matches_unwrapped():
    """Same RMSE history and stage sequence through the proxy."""
    from repro.data.datasets import NETFLIX
    from repro.engine.backends import ProcessBackend
    from repro.engine.channels import Fp16Channel, QOnlyChannel
    from repro.engine.pipeline import EpochEngine

    ratings = NETFLIX.scaled(3000).generate(seed=5)

    def run(wrap):
        backend = ProcessBackend(ratings, k=8, n_workers=2, seed=5,
                                 barrier_timeout_s=60.0)
        tracer = Tracer()
        if wrap:
            backend = TimingProxy(backend, tracer, tracer.begin("run"))
        result = EpochEngine(backend, Fp16Channel(QOnlyChannel())).run(3)
        return result, tracer

    plain, _ = run(False)
    wrapped, tracer = run(True)
    assert wrapped.rmse_history == plain.rmse_history
    assert wrapped.stage_sequence() == plain.stage_sequence()
    assert len(tracer.named("epoch[")) == 3
    assert len(tracer.named("sync")) == 3


def test_reconciliation_accounts_for_every_second_of_a_run():
    from perfbench.session import _reconcile

    spans = [
        Span(1, "run", 0.0, 10.0, None),
        Span(2, "open", 0.0, 2.0, 1),
        Span(3, "epoch[0]", 2.0, 5.0, 1),
        Span(4, "epoch[1]", 5.0, 8.0, 1),
        Span(5, "pull", 5.0, 5.5, 4),
        Span(6, "push", 5.5, 7.5, 4),
        Span(7, "finalize", 8.0, 9.5, 1),
    ]
    tracer = Tracer()
    tracer.spans = {s.id: s for s in spans}
    lines = _reconcile(tracer)
    text = "\n".join(lines)
    # 10 s of wall time: 2 open + 3 first + 3 steady + 1.5 teardown
    assert "unattributed" in lines[5] and lines[5].split()[1] == "0.500"
    # the steady epoch: 0.5 pull + 2 push of 3 s leaves 500 ms
    assert lines[-1].split()[1] == "500.000"
    assert "1 steady epochs" in text
