"""Unit tests for the service benchmark's pure parts (no service is started).

Run with ``python3 -m pytest svcbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import driver  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import summary  # noqa: E402
import svcproc  # noqa: E402
import workloads  # noqa: E402

CATALOGUE = workloads.load_catalogue()


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_pure_functions_of_the_seed(name):
    generate = workloads.GENERATORS[name]
    assert generate(7, 20, CATALOGUE) == generate(7, 20, CATALOGUE)
    assert generate(7, 20, CATALOGUE) != generate(8, 20, CATALOGUE)


def test_generators_do_not_depend_on_the_hash_seed():
    script = (
        f"import json, sys; sys.path.insert(0, {str(HERE)!r}); import workloads; "
        "catalogue = workloads.load_catalogue(); "
        "print(json.dumps([workloads.GENERATORS[name](7, 40, catalogue) for name in sorted(workloads.GENERATORS)]))"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
            capture_output=True, text=True, check=True,
        ).stdout
        for hash_seed in range(8)
    }
    assert len(outputs) == 1


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_work_mix_on_every_seed(name):
    def mix(seed):
        warmup, measured = workloads.GENERATORS[name](seed, 20, CATALOGUE)
        resubmitted = {job["label"] for job in warmup}
        return [
            "resubmit" if job["label"] in resubmitted else job["problem"]["kind"]
            for job in measured
        ]

    assert mix(1) == mix(2) == mix(3)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_measured_specs_are_unique_except_resubmissions(name):
    warmup, measured = workloads.GENERATORS[name](3, 20, CATALOGUE)
    warm_labels = {job["label"] for job in warmup}
    fresh = [job for job in measured if job["label"] not in warm_labels]
    assert len({job["label"] for job in warmup + fresh}) == len(warmup + fresh)
    # Switching-logic jobs repeat one spec under distinct labels (the
    # cert store keys on both); every other spec is itself unique.
    specs = [
        json.dumps(job["problem"], sort_keys=True)
        for job in warmup + fresh
        if job["problem"]["kind"] != "switching-logic"
    ]
    assert len(set(specs)) == len(specs)
    resubmitted = [job for job in measured if job["label"] in warm_labels]
    assert (len(resubmitted) > 0) == (name != "ogis-closed")


def test_timing_jobs_carry_both_verdicts():
    _, measured = workloads.timing_sdk(5, 20, CATALOGUE)
    timing = [job for job in measured if job["problem"]["kind"] == "timing-analysis"]
    assert {job["verdict"] for job in timing} == {True, False}
    assert {job["problem"]["program"] for job in timing} == {
        program for program, _ in workloads.TIMING_PROGRAMS
    }


def test_ogis_jobs_are_near_equal_cost():
    propagations = {
        (entry["task"], entry["seed"]): entry["propagations"] for entry in CATALOGUE["deobfuscation"]
    }
    for seed in range(1, 6):
        _, measured = workloads.ogis_closed(seed, 40, CATALOGUE)
        tasks = [job["problem"]["task"] for job in measured]
        assert set(tasks) == {"interchange", "multiply45_insufficient"}
        assert tasks.count("interchange") > 2 * tasks.count("multiply45_insufficient")
        costs = [propagations["interchange", job["problem"]["seed"]]
                 for job in measured if job["problem"]["task"] == "interchange"]
        assert max(costs) < 1.4 * min(costs)


def test_catalogue_verdict_lookup():
    entry = CATALOGUE["timing"][0]
    problem = {"kind": "timing-analysis", "program": entry["program"],
               "program_args": entry["program_args"], "seed": 0, "bound": entry["wcet"]}
    assert workloads.expected_verdict(CATALOGUE, problem) is True
    assert workloads.expected_verdict(CATALOGUE, dict(problem, bound=entry["wcet"] - 1)) is False
    figure7 = {"kind": "deobfuscation", "task": "multiply45_insufficient", "width": 8, "seed": 0}
    assert workloads.expected_verdict(CATALOGUE, figure7) is False
    with pytest.raises(KeyError):
        workloads.expected_verdict(CATALOGUE, dict(figure7, seed=10_000))


def test_tail_rule_gives_the_median_below_21_samples():
    samples = [float(value) for value in range(20)]
    assert summary.tail_percentile(samples) == (9.5, 50.0, 10)
    value, percentile, beyond = summary.tail_percentile([float(value) for value in range(21)])
    assert (value, percentile, beyond) == (10.0, 50.0, 10)


def test_tail_rule_climbs_the_ladder_with_more_samples():
    samples = [float(value) for value in range(1, 101)]
    assert summary.tail_percentile(samples) == (90.0, 90.0, 10)
    samples = [float(value) for value in range(1, 1001)]
    assert summary.tail_percentile(samples) == (990.0, 99.0, 10)


def test_speed_scale_follows_the_mean_speed():
    reference = summary.REFERENCE_PROBE_S
    assert summary.speed_scale([reference] * 5, 1.0) == pytest.approx(1.0)
    # Half the time at the reference speed, half at half of it: work
    # went at three quarters of the reference speed...
    assert summary.speed_scale([reference, 2 * reference], 1.0) == pytest.approx(0.75)
    # ...or at five eighths of it, for work that goes as the speed squared.
    assert summary.speed_scale([reference, 2 * reference], 2.0) == pytest.approx(0.625)
    with pytest.raises(ValueError):
        summary.speed_scale([], 1.0)


def test_engine_correction_scales_only_the_engine_time():
    phase = run.Phase.__new__(run.Phase)
    # Probes that read half the reference speed for the service's work.
    slow = summary.REFERENCE_PROBE_S * 2 ** (1 / summary.SPEED_SENSITIVITY)
    phase.probes = [(10.0, slow), (10.5, slow)]
    phase.scale = 0.5
    job = driver.Outcome({}, started=10.0, latency=1.0, engine_s=0.8)
    assert phase.engine_correction(job) == pytest.approx(-0.4)
    # A job between probes takes the phase's scale.
    assert phase.engine_correction(driver.Outcome({}, started=20.0, latency=0.01, engine_s=0.008)) == pytest.approx(-0.004)
    # A job the certificate store answered has no engine time.
    assert phase.engine_correction(driver.Outcome({}, started=10.0, latency=0.1)) == 0.0


def test_speed_probe_samples_at_once_and_pins_only_its_own_thread():
    allowed = os.sched_getaffinity(0)
    with svcproc.SpeedProbe(svcproc.last_cpu(), interval=60.0) as probe:
        pass
    assert len(probe.samples) == 1 and probe.samples[0][1] > 0.0
    assert os.sched_getaffinity(0) == allowed


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("engine", 0.0, 10.0, 1, 0, "a"),
        ("check", 1.0, 4.0, 2, 1, "a"),
        ("sat", 2.0, 3.5, 3, 2, "a"),
        ("check", 6.0, 8.0, 4, 1, "a"),
        ("sat", 6.5, 9.0, 5, 4, "a"),  # overruns its parent: clipped
    ]
    layers = ledger.layer_times(spans)
    assert layers["engine"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert layers["check"]["calls"] == 2
    assert layers["check"]["self_s"] == pytest.approx((3.0 - 1.5) + (2.0 - 1.5))
    assert layers["sat"]["self_s"] == pytest.approx(4.0)


def test_folded_calls_are_self_time_taken_off_their_parent():
    spans = [("reach", 0.0, 10.0, 1, 0, "a")]
    layers = ledger.layer_times(spans, [("ode", 1000, 6.0, 1)])
    assert layers["reach"]["self_s"] == pytest.approx(4.0)
    assert layers["ode"] == {"calls": 1000, "total_s": 6.0, "self_s": 6.0}


def test_covered_merges_overlapping_children():
    assert ledger.covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert ledger.covered([(1.0, 3.0)], 2.0, 10.0) == pytest.approx(1.0)


def test_queue_wait_runs_from_submit_end_to_engine_start():
    spans = [
        ("service.queue.submit", 0.0, 0.5, 1, 0, "job1"),
        ("api.engine.run", 2.0, 3.0, 2, 0, "job1"),
        ("api.engine.run", 4.0, 5.0, 3, 0, "unsubmitted"),
    ]
    assert ledger.queue_waits(spans, "service.queue.submit", "api.engine.run") == [1.5]


def test_benchmark_file_names_every_printed_metric():
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {metric["name"]: metric["unit"] for metric in benchmark["end_to_end"]} == run.END_TO_END
    assert {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]} == run.PER_LAYER
    assert {workload["name"] for workload in benchmark["workloads"]} <= set(workloads.GENERATORS)
