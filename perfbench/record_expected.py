#!/usr/bin/env python3
"""Write the expected results that the benchmark checks its outputs against.

Usage: ``python3 perfbench/record_expected.py [WORKLOAD ...]``

Runs every part of the named workloads (all by default) for the stored
seeds and pass indices (see ``SEEDS`` and ``INDICES``) and writes ``perfbench/expected/<workload>.
<scale>.json``.  Every operation must PASS, or nothing is written.  The
stored files were produced from the commit that introduced the benchmark;
regenerate them only when a change to the program is meant to change its
outputs, and say so in the change.
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402

SEEDS = {"smoke": range(4), "full": range(16)}
# pass indices stored per seed; only tau-products draws new inputs per pass
INDICES = {"smoke": range(2), "full": range(10)}


def record(workload, scale):
    store = {}
    for seed in SEEDS[scale]:
        for index in INDICES[scale]:
            inputs = workloads.make_inputs(workload, seed, index, scale)
            for key, part in workloads.parts(workload, inputs):
                if key not in store:
                    store[key] = _outputs(workload, key, part)
    return store


def _outputs(workload, key, part):
    outcomes = workloads.run(workload, part)
    bad = [out for ok, out in outcomes if not ok]
    if bad:
        raise SystemExit(f"{workload} {key}: {len(bad)} operations fail: {bad[:3]}")
    return json.loads(json.dumps([out for _, out in outcomes]))


def main(names):
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workloads {sorted(unknown)}; choose from {workloads.WORKLOADS}")
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for scale in SEEDS:
        for workload in names or workloads.WORKLOADS:
            store = record(workload, scale)
            path = workloads.expected_path(workload, scale)
            path.write_text(json.dumps(store, sort_keys=True, separators=(",", ":")) + "\n")
            print(f"{path.name}: {len(store)} entries", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
