"""One fresh interpreter: set up a workload, make its passes, report them.

Started by ``run.py`` as ``python3 bench/worker.py <workload> <seed> <dir>
<warm passes> <mode> [<spans file>]``.  It writes one JSON line to stdout
when set-up is done, one line per pass, and a last line with
``ru_maxrss``.  A pass runs every invocation of the workload through
``semistar.cli.main`` in this process, with stdout and stderr captured.

Times are CPU seconds of this process (``time.process_time``, user plus
system), scaled to a reference CPU speed.  The host lends its cores to
other guests, and the speed of this one changes by up to 1.7x within a
run.  So a fixed loop (``calibrate``) runs before the first invocation of
each pass and after every invocation, outside the timed part.  A cold pass
is scaled invocation by invocation: each invocation's CPU time times
``REFERENCE_S`` over the mean of the two loop times around it, which
follows a change of speed within a long pass.  Warm invocations are
mostly as short as one loop run, and a loop time next to them is as noisy
as they are, so ``run.py`` scales warm passes and set-up (CPU time from
the start of the process, interpreter start-up included) by the worker's
``scale``: ``REFERENCE_S`` over the median of all its loop times.

``mode`` is ``plain``, ``trace`` (layer functions wrapped, see
``tracer.py``) or ``mem`` (one cold pass under ``tracemalloc``, unscaled).
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

#: Seconds the calibration loop takes at the reference speed.  On the
#: machine the README's figures come from it took 2.1 to 3.7 ms, mostly
#: about 3, so scaled times read close to CPU seconds there.
REFERENCE_S = 0.003


_MASKS = [((1 << (k % 300)) | k) * 0x9E3779B97F4A7C15 for k in range(512)]
_TABLE = {(k, k & 7): k for k in range(512)}


def calibrate() -> float:
    """CPU seconds of a fixed loop of the kinds of work the program does.

    Big-integer masks, shifts and tuple-keyed dict lookups, as in the poset
    layer, on objects made once so the loop does not grow the heap.
    """
    start = process_time()
    acc = 0
    for i in range(6000):
        mask = _MASKS[i & 511]
        acc ^= (mask >> (i & 63)) & mask
        acc += _TABLE[(i & 511, i & 7)]
        acc &= (1 << 96) - 1
    return process_time() - start


def setup(workload_name: str, seed: int, workdir: str):
    """Import the program, then generate, write and validate the tree files."""
    from semistar import cli
    from semistar.spectrum import validate_tree

    from workloads import make_workload

    workload = make_workload(workload_name, seed)
    paths = {}
    for name, nodes in workload.trees.items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"nodes": nodes}, handle)
        with open(path, encoding="utf-8") as handle:
            validate_tree(json.load(handle))
        paths[name] = path
    argvs = [inv.resolve(paths[inv.tree]) for inv in workload.invocations]
    return cli, argvs


def run_pass(cli, argvs, calibrations, tracer=None) -> dict:
    """One pass: CPU and wall seconds, every output, and ``seconds``.

    When ``calibrations`` is a list, the loop runs before the first
    invocation and after each one, its times are appended, and ``seconds``
    is the sum of each invocation's CPU time scaled by ``REFERENCE_S`` over
    the mean of the two loop times around it.
    """
    outputs = []
    seconds = cpu = wall = 0.0
    if calibrations is not None:
        calibrations.append(calibrate())
    for k, argv in enumerate(argvs):
        out, err = StringIO(), StringIO()
        if tracer is not None:
            tracer.invocation = k
        wall_start, cpu_start = perf_counter(), process_time()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        spent = process_time() - cpu_start
        wall += perf_counter() - wall_start
        cpu += spent
        outputs.append((code, out.getvalue(), err.getvalue()))
        if calibrations is not None:
            calibrations.append(calibrate())
            seconds += spent * REFERENCE_S * 2 / (calibrations[-2] + calibrations[-1])
    return {"seconds": seconds, "cpu": cpu, "wall": wall, "outputs": outputs}


def _emit(channel, record):
    channel.write(json.dumps(record) + "\n")
    channel.flush()


def main(argv):
    workload_name, seed, workdir, warm, mode = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    channel = sys.stdout
    cli, argvs = setup(workload_name, int(seed), workdir)
    _emit(channel, {"setup_cpu": process_time()})
    calibrate()  # the first run of the loop pays for its own first use
    calibrations = []

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if mode == "mem":
        import gc
        import tracemalloc

        tracemalloc.start()
        record = run_pass(cli, argvs, None)
        _, peak = tracemalloc.get_traced_memory()
        del record["outputs"]
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        _emit(channel, {"pass": "cold", **record, "outputs": None,
                        "mem_peak": peak, "mem_retained": retained})
    else:
        for k in range(1 + int(warm)):
            if tracer is not None:
                tracer.phase = "cold" if k == 0 else "warm"
            _emit(channel, {"pass": "cold" if k == 0 else "warm",
                            **run_pass(cli, argvs, calibrations, tracer)})
    if tracer is not None:
        tracer.uninstall()
        if spans_path:
            tracer.write_spans(spans_path)
        _emit(channel, {"layers": tracer.summary()})

    import resource

    calibrations.sort()
    scale = REFERENCE_S / calibrations[len(calibrations) // 2] if calibrations else None
    _emit(channel, {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    "scale": scale})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
