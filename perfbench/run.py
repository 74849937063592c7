"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-netflix --seed 1 \\
        --seconds 30 --trace 0

The workload runs in a child process (``perfbench/session.py``) under a
deadline: a run that stops making progress is killed with every
process it started, and the operation in flight counts as failed.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.catalog import END_TO_END, PER_LAYER, RECORD, UNITS  # noqa: E402
from perfbench.stats import Rung, max_rate  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: a run with no finished operation for this long is declared hung
IDLE_TIMEOUT_S = 75.0
#: the whole run, set-up included, is killed after this long
RUN_DEADLINE_S = 160.0
WORKDIR = ".perfbench-work"


# ---------------------------------------------------------------------------
# the child process
# ---------------------------------------------------------------------------
def _reader(stream, out: queue.Queue) -> None:
    for line in stream:
        out.put(line)
    out.put(None)


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _stop_group(proc: subprocess.Popen, kill: bool, grace_s: float = 5.0) -> None:
    """End the session's process group and wait until it is empty.

    A cut run is killed at once; a finished one gets ``grace_s`` for its
    stragglers to exit on their own before they are killed too.
    """
    if kill and _group_alive(proc.pid):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    for sig in (None, signal.SIGKILL):
        if sig is not None and _group_alive(proc.pid):
            os.killpg(proc.pid, sig)
        deadline = time.monotonic() + grace_s
        while _group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)


def session_command(args) -> tuple[list[str], dict]:
    """The child's command line and environment."""
    workdir = os.path.join(ROOT, WORKDIR)
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, "-m", "perfbench.session",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    return cmd, env


def watch(cmd: list[str], env: dict, idle_s: float = IDLE_TIMEOUT_S,
          deadline_s: float = RUN_DEADLINE_S) -> tuple[list[dict], str | None]:
    """Run ``cmd`` under a deadline; returns its records and why it was
    cut, if it was.  Lines that are not records pass through."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    lines: queue.Queue = queue.Queue()
    reader = threading.Thread(target=_reader, args=(proc.stdout, lines), daemon=True)
    reader.start()
    records: list[dict] = []
    cut = None
    end = time.monotonic() + deadline_s
    try:
        while True:
            wait = min(idle_s, end - time.monotonic())
            try:
                line = lines.get(timeout=max(wait, 0.0))
            except queue.Empty:
                cut = (f"no progress for {idle_s:g} s" if wait == idle_s
                       else f"run deadline of {deadline_s:g} s reached")
                break
            if line is None:  # output closed: the session is exiting
                try:
                    proc.wait(timeout=idle_s)
                except subprocess.TimeoutExpired:
                    cut = f"session still running {idle_s:g} s after closing its output"
                break
            if line.startswith(RECORD):
                records.append(json.loads(line[len(RECORD):]))
            else:
                print(line, end="", flush=True)
    finally:
        # the group holds the session and every worker it spawned
        _stop_group(proc, kill=proc.poll() is None)
        reader.join(timeout=10.0)
        proc.stdout.close()
    if cut is None and proc.returncode != 0:
        cut = f"session exited with code {proc.returncode}"
    return records, cut


# ---------------------------------------------------------------------------
# records -> result
# ---------------------------------------------------------------------------
def count_ops(records: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and what failed."""
    attempted = failed = 0
    problems: list[str] = []
    for rec in records:
        kind = rec["kind"]
        if kind == "train_run":
            attempted += 1
            if not rec["ok"]:
                failed += 1
                problems += rec["problems"]
        elif kind == "serve_setup":
            attempted += len(rec["setup_s"])
        elif kind == "rung":
            attempted += rec["sent"] + 1
            failed += rec["failed"] + (0 if rec["probe_ok"] else 1)
            if rec["failed"]:
                problems.append(f"{rec['failed']} requests failed at {rec['rate']:g} req/s")
            if rec["stray_versions"]:
                problems.append(f"{rec['stray_versions']} responses from unpublished versions")
            if not rec["probe_ok"]:
                problems.append(f"probe batch disagreed with the oracle at {rec['rate']:g} req/s")
        elif kind == "swaps":
            attempted += rec["ok"] + rec["failed"]
            failed += rec["failed"]
            if rec["failed"]:
                problems.append(f"{rec['failed']} swaps failed")
    return attempted, failed, problems


def end_to_end(w, records: list[dict]) -> dict:
    """The workload's end-to-end metrics from its untraced records."""
    if w.kind == "train":
        runs = [r for r in records if r["kind"] == "train_run" and r["ok"]]
        if not runs:
            return {}
        return {
            "setup_s": median([r["setup_s"] for r in runs]),
            "throughput_per_s": median(
                [r["updates"] / (r["run_s"] - r["setup_s"]) for r in runs]
            ),
            "latency_ms": median([r["run_s"] for r in runs]) * 1e3,
        }
    setups = [s for r in records if r["kind"] == "serve_setup" for s in r["setup_s"]]
    rungs = [r for r in records if r["kind"] == "rung"]
    ref = [r for r in rungs if r["reference"]]
    if not setups or not ref:
        return {}
    return {
        "setup_s": median(setups),
        "throughput_per_s": sum(r["ok"] for r in rungs) / sum(r["busy_s"] for r in rungs),
        "latency_ms": ref[0]["p50_ms"],
    }


def describe(w, records: list[dict]) -> list[str]:
    """Human-readable detail behind the end-to-end metrics."""
    lines = []
    if w.kind == "train":
        for i, r in enumerate(r for r in records if r["kind"] == "train_run"):
            if not r["ok"]:
                lines.append(f"run {i}{' (traced)' if r['traced'] else ''}: FAILED "
                             + "; ".join(r["problems"]))
                continue
            rate = r["updates"] / (r["run_s"] - r["setup_s"])
            lines.append(
                f"run {i}{' (traced)' if r['traced'] else ''}: run_s {r['run_s']:.4f} s, "
                f"setup_s {r['setup_s']:.4f} s, updates_per_s {rate:,.0f} 1/s, "
                f"final_rmse {r['final_rmse']:.6f}"
            )
    else:
        for r in records:
            if r["kind"] == "rung":
                lines.append(
                    f"rung {r['rate']:g} req/s{' (reference)' if r['reference'] else ''}: "
                    f"p50_ms {r['p50_ms']:.3f} ms, p99_ms {r['p99_ms']:.3f} ms, "
                    f"{r['sent']} sent, {r['failed']} failed, "
                    f"backlog {'growing' if r['backlog'] else 'drained'}, "
                    f"probe {'ok' if r['probe_ok'] else 'WRONG'}"
                )
            elif r["kind"] == "swaps" and r["p50_ms"] is not None:
                lines.append(f"swap_ms {r['p50_ms']:.3f} ms median under load "
                             f"(max {r['max_ms']:.3f} ms, {r['ok']} ok, {r['failed']} failed)")
        rungs = [r for r in records if r["kind"] == "rung"]
        if rungs:
            ladder = [Rung(r["rate"], r["p99_ms"], r["backlog"], r["failed"]) for r in rungs]
            top = max(rungs, key=lambda r: r["rate"])
            lines.append(
                f"max_rate_qps {max_rate(ladder, w.limit_ms):.1f} 1/s "
                f"(p99 <= {w.limit_ms:g} ms with the backlog drained); "
                f"goodput {top['goodput']:.1f} 1/s at {top['rate']:g} req/s offered"
            )
    return lines


def build_result(w, trace: bool, records: list[dict], cut: str | None):
    """The final result object and the problems that make it incorrect."""
    attempted, failed, problems = count_ops(records)
    if cut is not None:
        attempted += 1
        failed += 1
        problems.append(f"run cut: {cut}")
    if not any(r["kind"] == "done" for r in records) and cut is None:
        problems.append("session ended without finishing")
        failed += 1
    if trace:
        layer = next((r for r in records if r["kind"] == "layers"), None)
        metrics = {name: 0.0 for name, _ in PER_LAYER}
        if layer is not None:
            metrics.update(layer["metrics"])
        else:
            metrics = {}
    else:
        metrics = end_to_end(w, records)
    expected = [name for name, _ in (PER_LAYER if trace else END_TO_END)]
    if set(metrics) != set(expected):
        problems.append("could not compute every metric")
        metrics = {}
    result = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": UNITS[name]}
            for name in expected if name in metrics
        },
    }
    return result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    print(f"== {w.name} (seed {args.seed}, {args.seconds} s, trace {args.trace}) ==")
    print(f"why: {w.why}", flush=True)

    records, cut = watch(*session_command(args))
    if not any(r["kind"] == "provenance" for r in records):
        print(f"perfbench: {args.workload} did not start ({cut})", file=sys.stderr)
        return 2
    result, problems = build_result(w, bool(args.trace), records, cut)

    prov = next(r for r in records if r["kind"] == "provenance")
    print(f"provenance: git {prov['git_sha']}, host {json.dumps(prov['host'])}")
    for line in describe(w, records):
        print(line)
    layer = next((r for r in records if r["kind"] == "layers"), None)
    if layer is not None:
        print("reconciliation:")
        for line in layer["reconciliation"]:
            print("  " + line)
        print(f"spans written to {layer['trace_file']}")
    print("metrics:")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
