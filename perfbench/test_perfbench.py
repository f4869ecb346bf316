"""Smoke test of the benchmark itself, on tiny inputs (``--scale smoke``).

Run with ``python -m pytest perfbench``.  Each benchmark run here takes a
second or two; the expected results for the smoke scale are stored next to
the full-scale ones.
"""

import copy
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=150,
    )


@pytest.fixture(scope="module")
def runs():
    """Output lines and result of an untraced and a traced smoke run per workload."""
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace), "--scale", "smoke")
            assert proc.returncode == 0, proc.stdout + proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (lines, json.loads(lines[-1]))
    return out


def test_spec_names_the_workloads():
    names = tuple(w["name"] for w in SPEC["workloads"])
    assert names == workloads.WORKLOADS == run.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = runs[workload, trace]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert set(result["metrics"]) == set(units)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))
        # fail_ratio is printed for a reader, with its unit
        assert any(line.startswith("fail_ratio 0 ratio") for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_give_identical_outputs(runs, workload):
    def digests(lines):
        (line,) = [x for x in lines if x.startswith("outputs_digest ")]
        return line.split()[1]

    plain = digests(runs[workload, 0][0])
    # the traced run has a plain and a traced pass on the inputs of index 0;
    # one digest for the index means that they agree
    assert plain.startswith("0:") and "/" not in plain
    assert digests(runs[workload, 1][0]) == plain


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_sum_to_no_more_than_the_traced_run(runs, workload):
    metrics = runs[workload, 1][1]["metrics"]
    total = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
    assert 0 < total <= metrics["trace.run_s"]["value"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_expected_result_is_a_failure(workload):
    inputs = workloads.make_inputs(workload, SEED, 0, "smoke")
    outcomes = workloads.run(workload, inputs)
    expected = workloads.load_expected(workload, inputs, "smoke")
    assert expected is not None
    assert workloads.check(outcomes, expected) == (len(outcomes), 0)

    corrupted = copy.deepcopy(expected)
    key = sorted(corrupted[-1])[0]
    corrupted[-1][key] = "corrupted"
    assert workloads.check(outcomes, corrupted) == (len(outcomes), 1)
    # a stored output with no counterpart, or an output with none stored
    assert workloads.check(outcomes[:-1], expected) == (len(outcomes), 1)
    assert workloads.check(outcomes, expected[:-1]) == (len(outcomes), 1)


def test_missing_wrap_target_fails_loudly_and_restores_the_program():
    from autfilt import autf

    compose = vars(autf.FreeAutomorphism)["compose"]
    tracer = tracing.Tracer("test")
    with pytest.raises(RuntimeError, match="no_such_function is missing"):
        tracer.install(tracing.WRAPS[:1] + (("autf", None, "no_such_function",
                                              "autf.compose", None),))
    assert vars(autf.FreeAutomorphism)["compose"] is compose


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "desk-mix", "--seconds", "1", "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
