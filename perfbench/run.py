#!/usr/bin/env python3
"""Benchmark of autfilt: three workloads, end-to-end and per-layer metrics.

Usage::

    python3 perfbench/run.py --workload tau-products --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Every pass of a workload runs in a fresh interpreter (``worker.py``), one
at a time, because users run one suite per ``autfilt verify`` process and
pay for the module-level caches each time.  Passes repeat for
``--seconds``; the timings reported are medians over passes.

With ``--trace 0`` the last line of output is a JSON object whose metrics
are the end-to-end ones: ``run_s`` (wall time of a pass from the first call
into the program to the last checked result), ``setup_s`` (interpreter
start until the program is imported and the inputs are generated) and
``peak_rss_mb`` (``ru_maxrss`` of the pass's process).  With ``--trace 1``
traced and untraced passes alternate and the metrics are the per-layer
ones from ``tracing.py``, plus ``trace.run_s`` and ``trace.overhead_s``.

All timings use ``time.perf_counter`` in the measuring process and memory
uses ``ru_maxrss`` of the pass's own process; nothing is read from
machine-wide counters except ``/proc/loadavg``, which is recorded to make
noise from other load visible.  The run, with every sample and its
environment, is also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("tau-products", "kernel-orbit", "desk-mix")
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# set-up samples taken by probes before the passes, besides one per pass
PROBES = 5
# a run must end within this many seconds; a pass that would cross it is killed
RUN_LIMIT_S = 170
TIMER_NOTE = ("timings use time.perf_counter of the measuring process; memory "
              "is ru_maxrss of each pass's own process")


class BenchError(RuntimeError):
    pass


def _per_layer_units():
    sys.path.insert(0, str(HERE))
    import tracing

    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in tracing.EXTRA_COUNTS:
        units[name] = "count"
    units["exactlin.insert.accept_ratio"] = "ratio"
    units["trace.run_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        if target.exists():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.exists():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown (" + ref + ")"
    return ref


def _loadavg():
    try:
        return pathlib.Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _environment():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_revision": _git_revision(),
        "loadavg_start": _loadavg(),
        "timers": TIMER_NOTE,
    }


class Runner:
    """Starts workers one at a time and collects their samples."""

    def __init__(self, workload, seed, scale, deadline):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.setup_s = []

    def pass_(self, mode, index, spans=None):
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload,
               str(self.seed), str(index), self.scale, mode]
        if spans is not None:
            cmd.append(str(spans))
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter()
            rest, _ = proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"a {mode} pass ran past the run's time limit")
        if proc.returncode != 0 or first.strip() != "ready":
            raise BenchError(f"worker ({mode}) exited with status {proc.returncode}")
        self.setup_s.append(ready - t0)
        if mode == "probe":
            return None
        return json.loads(rest.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, scale="full"):
    """Run passes for ``seconds`` and return the summary of the run."""
    start = time.perf_counter()
    runner = Runner(workload, seed, scale, start + RUN_LIMIT_S)
    env = _environment()
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    for old in spans_dir.glob(f"{workload}-{scale}-*"):
        old.unlink()
    runner.pass_("probe", 0)  # compiles the program's bytecode; not a sample
    runner.setup_s.clear()
    for index in range(PROBES):
        runner.pass_("probe", index)
    # A traced pass runs the inputs of the plain pass before it.  No pass
    # starts that would end after ``seconds``, judged by the median pass so
    # far, except to take the first plain and traced pass.
    plain, traced, took = [], [], []
    while (not plain or (trace and not traced)
           or time.perf_counter() - start + statistics.median(took) <= seconds):
        t0 = time.perf_counter()
        if trace and len(traced) < len(plain):
            spans = spans_dir / f"{workload}-{scale}-seed{seed}-pass{len(traced)}.txt"
            traced.append(runner.pass_("traced", len(traced), spans))
        else:
            plain.append(runner.pass_("plain", len(plain)))
        took.append(time.perf_counter() - t0)
    env["loadavg_end"] = _loadavg()
    passes = plain + traced
    # pass i of either kind ran the inputs of index i
    digests = {}
    for i, p in list(enumerate(plain)) + list(enumerate(traced)):
        digests.setdefault(i, set()).add(p["digest"])
    summary = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "inputs": passes[0]["inputs"],
        "environment": env,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "digests": {i: sorted(d) for i, d in digests.items()},
        "stored": sum(p["stored"] for p in passes),
        "passes": len(passes),
        "samples": {
            "run_s": [p["run_s"] for p in plain],
            "setup_s": runner.setup_s,
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        },
    }
    summary["correct"] = summary["failed"] == 0 and all(len(d) == 1 for d in digests.values())
    metrics = {name: statistics.median(summary["samples"][name]) for name, _ in END_TO_END}
    if trace:
        units = _per_layer_units()
        layer = {k: statistics.median(p["layers"][k] for p in traced)
                 for k in traced[0]["layers"]}
        layer["trace.run_s"] = statistics.median(p["run_s"] for p in traced)
        layer["trace.overhead_s"] = layer["trace.run_s"] - metrics["run_s"]
        summary["samples"]["trace.run_s"] = [p["run_s"] for p in traced]
        summary["metrics"] = {k: {"value": layer[k], "unit": units[k]} for k in units}
    else:
        summary["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-{scale}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(summary, indent=1))
    return summary


def report(summary):
    """Human-readable lines for one workload's run."""
    s = summary["samples"]
    lines = [
        f"workload {summary['workload']} seed {summary['seed']} "
        f"scale {summary['scale']}; inputs of pass 0: {summary['inputs']}",
        "environment " + json.dumps(summary["environment"], sort_keys=True),
    ]
    for name, unit in END_TO_END:
        vals = s[name]
        lines.append(f"{name} {statistics.median(vals):.6g} {unit} (median of "
                     f"{len(vals)}; min {min(vals):.6g}, max {max(vals):.6g})")
    ratio = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    lines.append(f"fail_ratio {ratio:.6g} ratio ({summary['failed']} failed of "
                 f"{summary['attempted']} operations)")
    digests = " ".join(f"{i}:{'/'.join(d)}" for i, d in summary["digests"].items())
    lines.append(f"outputs_digest {digests} (by pass index; {summary['stored']} of "
                 f"{summary['passes']} passes compared with stored results, the others "
                 "had to PASS)")
    if "trace.run_s" in s:
        metrics = summary["metrics"]
        traced_s = metrics["trace.run_s"]["value"]
        for k, v in metrics.items():
            share = ""
            if k.endswith(".self_s") and traced_s > 0:
                share = f" ({100 * v['value'] / traced_s:.1f} % of trace.run_s)"
            lines.append(f"{k} {v['value']:.6g} {v['unit']}{share}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke runs tiny inputs, for the benchmark's own test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "autfilt" / "__init__.py").is_file():
        print(f"error: the program's source is not at {ROOT / 'src' / 'autfilt'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            summary = measure(name, args.seed, args.seconds, bool(args.trace), args.scale)
            print("\n".join(report(summary)), flush=True)
            results.append(summary)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
