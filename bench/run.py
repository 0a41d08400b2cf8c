"""Benchmark of the semistar command line, cold and warm, per workload.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn.  Each worker is a fresh
interpreter (``worker.py``), started one at a time: it imports ``semistar``
from ``src/``, writes the workload's trees, makes one cold pass with every
cache empty and then warm passes in the same process.  Workers are started
until the next one would run past ``--seconds``; a run reports medians.
Every output is checked against ``reference.py`` after the worker ends.

With ``--trace 1`` the run reports the per-layer metrics instead: rounds of
an untraced worker, a traced one (``tracer.py``) and one under
``tracemalloc``.  The spans of the first traced worker are written to
``.bench_out/spans-<workload>-<seed>.jsonl``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is not 0 when the program or a
worker cannot run; nothing is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path[:0] = [SRC, HERE]

from check import FAILED, WRONG, check, expectation  # noqa: E402
from workloads import FAULT_TREE, WORKLOADS, make_workload  # noqa: E402

END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("cli.calls", "count"), ("cli.self_s", "s"),
    ("spectrum.validate.self_s", "s"),
    ("spectrum.surgery.calls", "count"), ("spectrum.surgery.self_s", "s"),
    ("spectrum.supports.calls", "count"), ("spectrum.supports.self_s", "s"),
    ("spectrum.supports.visited", "count"),
    ("spectrum.component_poset.calls", "count"), ("spectrum.component_poset.self_s", "s"),
    ("engine.count_semistar.calls", "count"), ("engine.count_semistar.self_s", "s"),
    ("engine.count_smstar.calls", "count"), ("engine.count_smstar.self_s", "s"),
    ("engine.tildhom.calls", "count"), ("engine.tildhom.self_s", "s"),
    ("engine.fstar_poset.calls", "count"), ("engine.fstar_poset.self_s", "s"),
    ("engine.fstar_poset.elements", "count"),
    ("engine.semistar_poset.calls", "count"), ("engine.semistar_poset.self_s", "s"),
    ("engine.semistar_poset.elements", "count"),
    ("posets.count_hom.calls", "count"), ("posets.count_hom.self_s", "s"),
    ("posets.enum_hom.calls", "count"), ("posets.enum_hom.self_s", "s"),
    ("posets.enum_hom.maps", "count"),
    ("posets.chain.calls", "count"), ("posets.chain.elements", "count"),
    ("posets.subposet.self_s", "s"), ("posets.subposet.elements", "count"),
    ("posets.from_relation.self_s", "s"), ("posets.from_relation.pairs", "count"),
    ("posets.covers.self_s", "s"),
    ("posets.hash.calls", "count"), ("posets.hash.self_s", "s"),
    ("polynomials.interpolate.calls", "count"), ("polynomials.interpolate.self_s", "s"),
    ("polynomials.interpolate.evaluations", "count"),
    ("polynomials.add.calls", "count"), ("polynomials.add.self_s", "s"),
    ("polynomials.mul.calls", "count"), ("polynomials.mul.self_s", "s"),
    ("polynomials.evaluate.calls", "count"), ("polynomials.evaluate.self_s", "s"),
    ("mem.peak_mb", "MB"), ("mem.retained_mb", "MB"),
    ("trace.overhead_s", "s"),
)

#: Warm passes per worker, so that a worker's warm passes take about as
#: long as its cold pass; a ``labels`` warm pass is a few cache lookups.
WARM_PASSES = {"counts": 2, "labels": 20, "poly": 1, "hasse": 2}

#: Cold passes (workers) a run makes at least, however short ``--seconds``.
MIN_WORKERS = 3

#: A workload gives up on its worker this long after the workload started.
RUN_LIMIT_S = 160


class WorkerError(RuntimeError):
    pass


class Tally:
    """Attempted, failed and wrong invocations over every checked pass."""

    def __init__(self, workload, expects):
        self.workload = workload
        self.expects = expects
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.unexpected = []

    def add_pass(self, outputs):
        if len(outputs) != len(self.workload.invocations):
            raise WorkerError("a pass did not run every invocation")
        for invocation, (code, stdout, stderr) in zip(self.workload.invocations, outputs):
            status = check(self.expects[invocation.key], code, stdout)
            self.attempted += 1
            if status == WRONG:
                self.wrong.append(invocation.key)
            if status in (FAILED, WRONG):
                self.failed += 1
            if status == FAILED and not (invocation.tree == FAULT_TREE and code == 2):
                self.unexpected.append(f"{invocation.key}: exit {code}: {stderr.strip()}")

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.unexpected


def run_worker(workload, seed, workdir, warm, mode, deadline, spans_path=None):
    """Start one worker, time its set-up and collect its records."""
    sub = tempfile.mkdtemp(dir=workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), sub,
           str(warm), mode]
    if spans_path:
        cmd.append(spans_path)
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_wall = perf_counter() - start
        records = [json.loads(line) for line in proc.stdout]
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready.strip():
        raise WorkerError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    last = records[-1]
    scale = last["scale"]
    setup_cpu = json.loads(ready)["setup_cpu"]
    result = {"setup": setup_cpu * scale if scale else None, "setup_cpu": setup_cpu,
              "setup_wall": setup_wall, "scale": scale, "rss_kb": last["maxrss_kb"],
              "wall": perf_counter() - start, "cold": None, "warm": [], "passes": [],
              "outputs": [], "layers": None, "mem": None}
    for record in records:
        if "pass" in record:
            if record["pass"] == "cold":
                result["cold"] = record["seconds"]
            else:
                result["warm"].append(record["cpu"] * scale)
            result["passes"].append({k: record[k] for k in ("pass", "seconds", "cpu", "wall")})
            if record["outputs"] is not None:
                result["outputs"].append(record["outputs"])
            if "mem_peak" in record:
                result["mem"] = (record["mem_peak"], record["mem_retained"])
        elif "layers" in record:
            result["layers"] = record["layers"]
    shutil.rmtree(sub, ignore_errors=True)
    return result


def _enough(walls, started, seconds, minimum) -> bool:
    """Whether another worker (or round) of median length would overrun."""
    return len(walls) >= minimum and perf_counter() - started + statistics.median(walls) > seconds


def measure(name, seed, seconds, workdir, tally, deadline, details):
    """End-to-end metrics: medians over fresh workers."""
    workers, walls = [], []
    started = perf_counter()
    while not _enough(walls, started, seconds, MIN_WORKERS):
        w = run_worker(name, seed, workdir, WARM_PASSES[name], "plain", deadline)
        for outputs in w.pop("outputs"):
            tally.add_pass(outputs)
        workers.append(w)
        walls.append(w["wall"])
    details["workers"] = workers
    return {
        "setup_s": statistics.median(w["setup"] for w in workers),
        "cold_s": statistics.median(w["cold"] for w in workers),
        "warm_s": statistics.median(t for w in workers for t in w["warm"]),
        "peak_rss_mb": statistics.median(w["rss_kb"] for w in workers) / 1024,
    }


def measure_layers(name, seed, seconds, workdir, tally, deadline, details):
    """Per-layer metrics: rounds of an untraced, a traced and a tracemalloc worker."""
    spans_path = os.path.join(OUT, f"spans-{name}-{seed}.jsonl")
    plain, traced, mem, walls = [], [], [], []
    started = perf_counter()
    while not _enough(walls, started, seconds, 1):
        round_start = perf_counter()
        plain.append(run_worker(name, seed, workdir, 0, "plain", deadline))
        traced.append(run_worker(name, seed, workdir, 1, "trace", deadline,
                                 None if traced else spans_path))
        mem.append(run_worker(name, seed, workdir, 0, "mem", deadline))
        for w in plain[-1:] + traced[-1:]:
            for outputs in w.pop("outputs"):
                tally.add_pass(outputs)
        walls.append(perf_counter() - round_start)
    layers = [w["layers"] for w in traced]
    details["traced_counts_repeat"] = all(
        {k: v for k, v in layer.items() if not k.endswith("_s")}
        == {k: v for k, v in layers[0].items() if not k.endswith("_s")}
        for layer in layers
    )
    metrics = {}
    for metric, _ in PER_LAYER:
        if metric.endswith("_s") and metric in layers[0]:
            metrics[metric] = statistics.median(layer[metric] for layer in layers)
        elif metric in layers[0]:
            metrics[metric] = layers[0][metric]
    metrics["mem.peak_mb"] = statistics.median(w["mem"][0] for w in mem) / 2**20
    metrics["mem.retained_mb"] = statistics.median(w["mem"][1] for w in mem) / 2**20
    metrics["trace.overhead_s"] = (
        statistics.median(w["cold"] for w in traced) - statistics.median(w["cold"] for w in plain)
    )
    details["rounds"] = len(traced)
    details["cold_untraced"] = [w["cold"] for w in plain]
    details["cold_traced"] = [w["cold"] for w in traced]
    return metrics


def run_workload(name, seed, seconds, trace):
    deadline = perf_counter() + RUN_LIMIT_S
    workload = make_workload(name, seed)
    expects = {}
    for invocation in workload.invocations:
        if invocation.key not in expects:
            expects[invocation.key] = expectation(invocation, workload.trees[invocation.tree])
    tally = Tally(workload, expects)
    details = {"workload": name, "seed": seed, "invocations": len(workload.invocations)}
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    try:
        step = measure_layers if trace else measure
        values = step(name, seed, seconds, workdir, tally, deadline, details)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = dict(PER_LAYER if trace else END_TO_END)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    details["wrong"] = tally.wrong
    details["unexpected_failures"] = tally.unexpected
    suffix = "-trace" if trace else ""
    with open(os.path.join(OUT, f"result-{name}-{seed}{suffix}.json"), "w") as handle:
        json.dump({"result": result, "details": details}, handle, indent=1)
    return result, details


def _print_table(name, result, details):
    print(f"== {name}: {result['attempted']} invocations attempted, {result['failed']} failed"
          f" ({details['invocations']} per pass), correct={result['correct']}")
    for line in details["wrong"][:5] + details["unexpected_failures"][:5]:
        print(f"   check: {line}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:<40} {entry['value']:>14.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "semistar", "__init__.py")):
        print(f"bench: no semistar sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            result, details = run_workload(name, args.seed, args.seconds, args.trace)
            _print_table(name, result, details)
            results[name] = result
    except (WorkerError, ValueError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
