"""The committed reports reproduce through suites.run.

Each report must match its file in reports/ byte for byte once the
wall_time_s fields are blanked; the budget is the stated limit for the
iaab and kernel-claim runs together.
"""

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


def _without_wall_times(text):
    return re.sub(r'"wall_time_s": [^,\n]*', '"wall_time_s": null', text)


def test_iaab_and_kernel_claim_reports_match_committed():
    t0 = time.perf_counter()
    texts = {name: suites.run(suite, params).to_json() + "\n" for name, suite, params in RUNS}
    elapsed = time.perf_counter() - t0
    for name, text in texts.items():
        committed = (REPORTS / name).read_text()
        assert _without_wall_times(text) == _without_wall_times(committed), name
    assert elapsed < BUDGET_S, f"reports took {elapsed:.2f}s (budget {BUDGET_S}s)"
