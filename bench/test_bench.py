"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from corpus import WORKLOADS, make_calls  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_spec_lists_workloads_of_the_harness():
    assert list(run.WORKLOADS) == list(WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    lines = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", trace, "--size", "tiny")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    printed = "\n".join(lines[:-1])
    for m in spec:
        assert f"{m['name']} " in printed
    assert "failed_ratio" in printed
    if trace == "1":
        # self times cover the traced wall time, up to the harness's own time
        assert 0.5 < result["metrics"]["trace.covered_ratio"]["value"] <= 1


def _tiny_pass(workload):
    import kronseq.cli as cli

    calls = make_calls(workload, run.DEFAULT_SEED, "tiny")
    loop = run.Loop(cli, calls, lambda n, t: n == len(calls))
    return calls, loop


def test_untouched_outputs_pass_the_gate_and_match_the_digests():
    for workload in run.WORKLOADS:
        calls, loop = _tiny_pass(workload)
        failed, reasons, _, _ = run.check_outputs(calls, [loop], workload,
                                                  run.DEFAULT_SEED, "tiny")
        assert (failed, reasons) == (0, {})


def test_a_flipped_verdict_counts_as_a_failed_call():
    calls, loop = _tiny_pass("analyze-long")
    rc, out = loop.first[0]
    kind = json.loads(out)["classification"]["kind"]
    flipped = "periodic-L" if kind == "aperiodic" else "aperiodic"
    loop.first[0] = (rc, out.replace(f'"kind":"{kind}"', f'"kind":"{flipped}"'))
    failed, reasons, _, _ = run.check_outputs(calls, [loop], "analyze-long",
                                              run.DEFAULT_SEED, "tiny")
    assert failed == 1 and list(reasons) == [0]
    # Without the recorded digest (any other seed) the gate still catches it.
    failed, _, _, _ = run.check_outputs(calls, [loop], "analyze-long", 1, "tiny")
    assert failed == 1


def test_a_changed_byte_fails_only_the_digest():
    calls, loop = _tiny_pass("cascade-deep")
    rc, out = loop.first[1]
    loop.first[1] = (rc, out.replace(",", ", ", 1))
    failed, reasons, _, _ = run.check_outputs(calls, [loop], "cascade-deep",
                                              run.DEFAULT_SEED, "tiny")
    assert failed == 1 and reasons == {1: "output differs from the recorded digest"}


def test_calibrated_loop_scales_each_call_by_the_calibrations_around_it():
    import kronseq.cli as cli
    from calib import REFERENCE_S

    calls = make_calls("batch-short", run.DEFAULT_SEED, "tiny")
    loop = run.Loop(cli, calls, lambda n, t: n == len(calls), calibrated=True)
    c = loop.calibrations
    assert len(c) == len(loop.latencies) + 1 and min(c) > 0
    for i, (raw, scaled) in enumerate(zip(loop.latencies, loop.scaled)):
        assert scaled == pytest.approx(raw * REFERENCE_S / ((c[i] + c[i + 1]) / 2))


def test_without_sources_it_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "batch-short",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""
