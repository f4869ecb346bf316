"""One pass of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED INDEX SCALE MODE [SPANS_FILE]``
with MODE one of ``probe``, ``plain`` or ``traced``.

The worker imports the program from ``src/`` next to this directory,
generates the workload's inputs from the seed and the pass index, and loads
the expected result, then prints ``ready``; the parent times set-up up to
that line.  A probe stops there.  Otherwise the worker runs the workload, checks every
output, and prints one JSON line with the pass's wall time, peak RSS, the
check's counts and, in traced mode, the per-layer summary.
"""

import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402  (needs the program on sys.path)


def main(argv):
    workload, seed, index, scale, mode = argv[0], int(argv[1]), int(argv[2]), argv[3], argv[4]
    inputs = workloads.make_inputs(workload, seed, index, scale)
    expected = workloads.load_expected(workload, inputs, scale)
    print("ready", flush=True)
    if mode == "probe":
        return 0
    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer(pathlib.Path(argv[5]).stem)
        tracer.install()
    t0 = time.perf_counter()
    outcomes = workloads.run(workload, inputs)
    attempted, failed = workloads.check(outcomes, expected)
    run_s = time.perf_counter() - t0
    result = {
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "digest": workloads.outputs_digest(outcomes),
        "stored": expected is not None,
        "inputs": workloads.describe(workload, inputs),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        tracer.write(argv[5])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
