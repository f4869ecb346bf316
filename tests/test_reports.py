"""The committed reports reproduce through suites.run.

Each report must match its file in reports/ byte for byte once the
wall_time_s fields are blanked; each test's budget is the stated limit for
its runs together.  Between them the two tests reach every space family:
iaab and kernel-claim use V, Mk and T (the contraction's target),
sl-reduction the Mk lifts of transvections, sp-orbit the wedge powers W of
the symplectic space VSpace(2g).
The other four reports (tau-identities, paths, certificates, depth-table)
are compared by the acceptance tests that already run those suites at the
committed parameters, through assert_matches_committed.
"""

import importlib.util
import json
import pathlib
import re
import time

from autfilt import suites

REPORTS = pathlib.Path(__file__).resolve().parent.parent / "reports"

RUNS = [
    ("00-iaab.json", "iaab", {"n_values": (3, 4, 5)}),
    ("02-kernel-claim-k2-n4.json", "kernel-claim", {"n": 4, "k": 2}),
    ("03-kernel-claim-k2-n5.json", "kernel-claim", {"n": 5, "k": 2}),
    ("04-kernel-claim-k3-n5.json", "kernel-claim", {"n": 5, "k": 3}),
]
BUDGET_S = 1.0


SP_ORBIT_AND_SL_REDUCTION_RUNS = [
    ("05-sp-orbit.json", "sp-orbit", {"g_values": (3, 4)}),
    (
        "06-sl-reduction-n5.json",
        "sl-reduction",
        {"n": 5, "k_values": (2, 3), "trials": 20, "seed": 7},
    ),
]
SP_ORBIT_AND_SL_REDUCTION_BUDGET_S = 1.0


def _without_wall_times(text):
    return re.sub(r'"wall_time_s": [^,\n]*', '"wall_time_s": null', text)


def assert_matches_committed(name, text):
    """A report's JSON text (with its final newline) equals reports/<name>
    apart from wall_time_s."""
    committed = (REPORTS / name).read_text()
    assert _without_wall_times(text) == _without_wall_times(committed), name


def _check_reports(runs, budget_s):
    t0 = time.perf_counter()
    texts = {name: suites.run(suite, params).to_json() + "\n" for name, suite, params in runs}
    elapsed = time.perf_counter() - t0
    for name, text in texts.items():
        assert_matches_committed(name, text)
    assert elapsed < budget_s, f"reports took {elapsed:.2f}s (budget {budget_s}s)"


def test_iaab_and_kernel_claim_reports_match_committed():
    _check_reports(RUNS, BUDGET_S)


def test_sp_orbit_and_sl_reduction_reports_match_committed():
    _check_reports(SP_ORBIT_AND_SL_REDUCTION_RUNS, SP_ORBIT_AND_SL_REDUCTION_BUDGET_S)


# every suite's default parameters, as the reports name them
DEFAULT_PARAMS = {
    "iaab": {"n_values": [3, 4, 5]},
    "tau-identities": {
        "n": 5, "k_values": [2, 3], "trials": 50, "seed": 7, "subalphabet": [1, 2, 3]
    },
    "kernel-claim": {"n": 4, "k": 2},
    "sp-orbit": {"g_values": [3, 4], "extended_sp_generators": False},
    "sl-reduction": {"n": 5, "k_values": [2, 3], "trials": 20, "seed": 7},
    "paths": {"n": 5, "m": 2, "trials": 100, "seed": 7, "max_len": 8},
    "certificates": {"n": 5, "m": 2},
    "depth-table": {"n": 5, "k_values": [2, 3], "subalphabet": [1, 2, 3]},
}


def test_suite_defaults_are_pinned():
    assert set(suites.SUITE_NAMES) == set(DEFAULT_PARAMS)
    t0 = time.perf_counter()
    for name, expected in DEFAULT_PARAMS.items():
        assert json.loads(json.dumps(suites.parameters(name))) == expected, name
        # tau-identities at its defaults takes about a second, all in
        # tau-image-in-shift-difference-space(k=3): its defaults are pinned
        # through the resolver alone
        if name != "tau-identities":
            assert json.loads(suites.run(name).to_json())["params"] == expected, name
    assert time.perf_counter() - t0 < 1.0


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_and_report_parameters_pass_the_resolver():
    # a bound set too tight fails here, not in the benchmark's runs
    root = REPORTS.parent
    runs = list(_load(root / "scripts" / "run_suites.py").RUNS)
    workloads = _load(root / "perfbench" / "workloads.py")
    for scale in workloads.SCALES:
        runs += workloads.desk_inputs(0, 0, scale)["runs"]
    for name, params in runs:
        resolved = suites.parameters(name, params)
        assert resolved == {**suites.parameters(name), **params}
