"""The catalogue, BENCHMARK.json and the result object agree."""

import json
import os

import pytest

from perfbench import run
from perfbench.catalog import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_benchmark_json_declares_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for w in doc["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def test_benchmark_json_is_well_formed():
    import re

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60 and 2 <= len(doc["workloads"]) <= 8
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [w["name"] for w in doc["workloads"]]
    for m in doc["end_to_end"] + doc["per_layer"]:
        names.append(m["name"])
        assert unit.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(name.fullmatch(n) for n in names) and len(set(names)) == len(names)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def train_run(run_s, setup_s, ok=True):
    return {"kind": "train_run", "traced": False, "ok": ok,
            "problems": [] if ok else ["final RMSE off"], "run_s": run_s,
            "setup_s": setup_s, "updates": 1000, "final_rmse": 0.7,
            "wire_bytes": 10}


def test_train_result_takes_medians():
    w = WORKLOADS["train-netflix"]
    records = [{"kind": "provenance"}, train_run(3.0, 1.0), train_run(5.0, 1.0),
               train_run(4.0, 2.0), {"kind": "done"}]
    result, problems = run.build_result(w, False, records, None)
    assert problems == []
    assert result["correct"] and result["attempted"] == 3 and result["failed"] == 0
    m = result["metrics"]
    assert m["setup_s"] == {"value": 1.0, "unit": "s"}
    assert m["latency_ms"]["value"] == pytest.approx(4000.0)
    # 1000 updates over (run - setup) of 2, 4 and 2 seconds
    assert m["throughput_per_s"]["value"] == pytest.approx(500.0)


def test_a_failed_check_or_a_hang_is_a_counted_failure():
    w = WORKLOADS["train-netflix"]
    records = [{"kind": "provenance"}, train_run(3.0, 1.0),
               train_run(3.0, 1.0, ok=False)]
    result, problems = run.build_result(w, False, records, "no progress for 75 s")
    assert not result["correct"]
    assert result["attempted"] == 3 and result["failed"] == 2
    assert any("no progress" in p for p in problems)
    # metrics still come from the runs that finished
    assert result["metrics"]["setup_s"]["value"] == 1.0


def rung(rate, p50, p99, reference=False, failed=0, probe_ok=True):
    return {"kind": "rung", "rate": rate, "reference": reference, "sent": 100,
            "ok": 100 - failed, "failed": failed, "stray_versions": 0,
            "probe_ok": probe_ok, "p50_ms": p50, "p99_ms": p99, "backlog": False,
            "goodput": rate, "busy_s": 0.25}


def test_serve_result():
    w = WORKLOADS["serve-ml-swap"]
    lo, hi = sorted(w.rates)[:2]
    records = [
        {"kind": "provenance"},
        {"kind": "serve_setup", "setup_s": [0.3, 0.1, 0.2]},
        rung(lo, 2.0, 10.0, reference=lo == w.reference_rate),
        rung(hi, 3.0, w.limit_ms * 3, reference=hi == w.reference_rate,
             probe_ok=False),
        {"kind": "swaps", "ok": 4, "failed": 0, "p50_ms": 40.0, "max_ms": 50.0},
        {"kind": "done"},
    ]
    result, problems = run.build_result(w, False, records, None)
    assert result["attempted"] == 3 + 101 + 101 + 4
    assert result["failed"] == 1 and not result["correct"]
    m = result["metrics"]
    assert m["setup_s"]["value"] == pytest.approx(0.2)
    # 100 responses per rung over 0.25 s of top_k busy time each
    assert m["throughput_per_s"]["value"] == pytest.approx(400.0)


def test_traced_result_reports_every_layer_metric():
    w = WORKLOADS["train-r1-fp16"]
    layers = {"engine.backends.pull_s": 0.004}
    records = [{"kind": "provenance"}, train_run(3.0, 1.0),
               {"kind": "layers", "metrics": layers, "reconciliation": [],
                "trace_file": "t.json"}, {"kind": "done"}]
    result, _ = run.build_result(w, True, records, None)
    assert list(result["metrics"]) == [name for name, _ in PER_LAYER]
    assert result["metrics"]["engine.backends.pull_s"]["value"] == 0.004
    assert result["metrics"]["serving.requests.sent"]["value"] == 0.0


def test_a_hung_session_is_cut_and_its_processes_stopped(tmp_path):
    """No progress within the idle limit: the whole group is killed."""
    import sys

    pidfile = tmp_path / "grandchild.pid"
    script = (
        "import subprocess, sys, time\n"
        f"child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(pidfile)!r}, 'w').write(str(child.pid))\n"
        "print('@perfbench {\"kind\": \"provenance\"}', flush=True)\n"
        "print('a note', flush=True)\n"
        "time.sleep(60)\n"
    )
    records, cut = run.watch([sys.executable, "-c", script], dict(os.environ),
                             idle_s=1.0, deadline_s=30.0)
    assert records == [{"kind": "provenance"}]
    assert cut == "no progress for 1 s"
    grandchild = int(pidfile.read_text())
    with pytest.raises(ProcessLookupError):
        os.kill(grandchild, 0)


def test_a_crashed_session_is_reported():
    import sys

    records, cut = run.watch([sys.executable, "-c", "raise SystemExit(3)"],
                             dict(os.environ), idle_s=5.0, deadline_s=10.0)
    assert records == [] and cut == "session exited with code 3"


def test_training_output_checks():
    from types import SimpleNamespace

    from repro.engine.pipeline import STAGES

    from perfbench.trainbench import check_run

    w = WORKLOADS["train-r1-fp16"]
    trace = [(e, s) for e in range(w.epochs) for s in STAGES]

    def result(final, seq=trace):
        return SimpleNamespace(stage_sequence=lambda: seq,
                               rmse_history=[9.0] * (w.epochs - 1) + [final])

    assert check_run(w, result(5.0), 5.0) == []
    assert check_run(w, result(5.0 * (1 + w.rmse_rel_tol / 2)), 5.0) == []
    assert "off the reference" in check_run(w, result(5.0 * 1.3), 5.0)[0]
    assert "stage trace" in check_run(w, result(5.0, trace[:-1]), 5.0)[0]
