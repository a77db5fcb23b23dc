"""Service benchmark: drive ``python -m repro.service`` over HTTP and check every verdict.

Run from the repository root::

    python3 svcbench/run.py --workload timing-sdk --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
job list untraced and then traced, and prints the per-layer ledger.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit codes: 0 all
verdicts right, 1 a wrong or missing verdict, 2 the service could not be
run.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import driver
import ledger
import summary
import workloads
from svcproc import Service, ServiceError, SpeedProbe, last_cpu

#: Spawns timed for ``setup_s``; the last one serves the run.
SETUP_SPAWNS = 9

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "slo_met_share": "share",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics: name -> unit.  Span totals (``*_s`` without
#: ``self``) and self times are summed over the measured job list;
#: ``service.http.rtt*`` are per-request medians.
PER_LAYER = {
    "service.http.rtt_s": "s",
    "service.http.rtt.submit_s": "s",
    "service.http.rtt.result_s": "s",
    "service.http.requests": "count",
    "service.queue.submit_s": "s",
    "service.queue.wait_s": "s",
    "service.journal.append_s": "s",
    "service.journal.appends": "count",
    "service.certstore.get_s": "s",
    "service.certstore.put_s": "s",
    "service.certstore.hit_share": "share",
    "api.engine.run_s": "s",
    "api.engine.runs": "count",
    "api.pool.acquire_s": "s",
    "api.pool.release_s": "s",
    "api.pool.reuse_share": "share",
    "api.memo.hit_share": "share",
    "smt.check.calls": "count",
    "smt.check.self_s": "s",
    "smt.check.memo_hit_share": "share",
    "smt.simplify.self_s": "s",
    "smt.bitblast.self_s": "s",
    "smt.bitblast.clauses": "count",
    "smt.sat.calls": "count",
    "smt.sat.self_s": "s",
    "smt.sat.conflicts": "count",
    "smt.sat.propagations": "count",
    "smt.sat.decisions": "count",
    "smt.sat.learned_clauses": "count",
    "smt.sat.props_per_s": "1/s",
    "ogis.synthesize.self_s": "s",
    "ogis.distinguish.self_s": "s",
    "ogis.verify.self_s": "s",
    "ogis.iterations": "count",
    "ogis.oracle.queries": "count",
    "gametime.prepare.self_s": "s",
    "cfg.feasibility.self_s": "s",
    "platform.measure.self_s": "s",
    "hybrid.reach.calls": "count",
    "hybrid.reach.self_s": "s",
    "hybrid.ode.self_s": "s",
    "trace.overhead_share": "share",
    "trace.coverage_share": "share",
}

#: Span totals reported under the name the span has in ``launcher.TRACED``.
_SPAN_TOTALS = {
    "service.queue.submit_s": "service.queue.submit",
    "service.journal.append_s": "service.journal.append",
    "service.certstore.get_s": "service.certstore.get",
    "service.certstore.put_s": "service.certstore.put",
    "api.engine.run_s": "api.engine.run",
    "api.pool.acquire_s": "api.pool.acquire",
    "api.pool.release_s": "api.pool.release",
}

FINGERPRINT_KEYS = (
    ("sat_job_statistics", "conflicts"),
    ("sat_job_statistics", "propagations"),
    ("sat_job_statistics", "decisions"),
    ("sat_job_statistics", "learned_clauses"),
    ("smt_job_statistics", "clauses_generated"),
    ("smt_job_statistics", "checks"),
    ("smt_job_statistics", "check_memo_hits"),
)


def _engine_details(outcome: driver.Outcome) -> dict:
    return (outcome.result or {}).get("details", {}).get("engine", {})


def fingerprint(outcomes: list[driver.Outcome]) -> dict[str, int]:
    """Summed search counters over the jobs the engine ran (not cert-served)."""
    totals = {f"{group.split('_')[0]}.{name}": 0 for group, name in FINGERPRINT_KEYS}
    for outcome in outcomes:
        if outcome.from_certificate:
            continue
        engine = _engine_details(outcome)
        for group, name in FINGERPRINT_KEYS:
            totals[f"{group.split('_')[0]}.{name}"] += engine.get(group, {}).get(name, 0)
    return totals


class Phase:
    """One service lifetime: warm-up, then the measured job list."""

    def __init__(self, service: Service, workload: str, warmup: list[dict], measured: list[dict]) -> None:
        self.warmup = driver.closed_loop(service.port, warmup, keep_alive=False)
        self.stats_before = service.get_json("/stats")
        cpu_before = service.cpu_seconds()
        self.started = time.perf_counter()
        with SpeedProbe(service.cpu) as probe:
            self.record = driver.closed_loop(service.port, measured, keep_alive=workload == "timing-sdk")
        self.probes = probe.samples
        self.cpu_s = service.cpu_seconds() - cpu_before
        #: CPU seconds from this phase times ``scale`` read at the reference machine speed.
        self.scale = summary.speed_scale([seconds for _, seconds in self.probes])
        #: The wall time of the measured phase with each job's engine time at the reference speed.
        self.scaled_wall_s = self.record.wall_s + sum(map(self.engine_correction, self.record.outcomes))
        self.stats_after = service.get_json("/stats")
        self.peak_rss_mb = service.peak_rss_mb()

    def engine_correction(self, outcome: driver.Outcome) -> float:
        """Seconds to add to ``outcome``'s latency to put its engine time at the reference speed.

        Only the engine's share of a latency is CPU work that follows the
        machine's speed; replies, stalls and queue hand-offs are left as
        measured.  The engine time is scaled by the probes taken while the
        job ran (by the phase's scale if the job was shorter than one
        probe interval).
        """
        if outcome.latency is None or not outcome.engine_s:
            return 0.0
        end = outcome.started + outcome.latency
        probes = [seconds for taken, seconds in self.probes if outcome.started <= taken <= end]
        scale = summary.speed_scale(probes) if probes else self.scale
        return outcome.engine_s * (scale - 1.0)

    def stat_delta(self, *path: str) -> float:
        before, after = self.stats_before, self.stats_after
        for key in path:
            before, after = before.get(key, {}), after.get(key, {})
        return float(after or 0) - float(before or 0)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(phase: Phase, workload: str, setup: list[float]) -> dict[str, float]:
    outcomes = phase.record.outcomes
    correct = [outcome for outcome in outcomes if outcome.correct]
    completed = [outcome for outcome in outcomes if outcome.state == "completed"]
    latencies = [outcome.latency + phase.engine_correction(outcome) for outcome in correct]
    tail, percentile, beyond = summary.tail_percentile(latencies) if latencies else (0.0, 50.0, 0)
    limit = workloads.SLO_SECONDS[workload]
    print(f"latency_tail_s is p{percentile:g} of {len(latencies)} samples ({beyond} beyond it)")
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(correct) / phase.scaled_wall_s,
        "latency_p50_s": statistics.median(latencies) if latencies else 0.0,
        "latency_tail_s": tail,
        "slo_met_share": sum(1 for latency in latencies if latency <= limit) / len(outcomes),
        "cpu_s_per_job": phase.cpu_s * phase.scale / max(1, len(completed)),
        "peak_rss_mb": phase.peak_rss_mb,
    }


def _rtt(requests: list[tuple[str, float]], *kinds: str) -> float:
    times = [seconds for kind, seconds in requests if kind in kinds]
    return statistics.median(times) if times else 0.0


def per_layer(phase: Phase, spans: list[tuple], folded: list[tuple], untraced: Phase) -> dict[str, float]:
    layers = ledger.layer_times(spans, folded)

    def layer(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0.0)

    engine_runs = [outcome for outcome in phase.record.outcomes if not outcome.from_certificate]
    wires = [_engine_details(outcome) for outcome in engine_runs]

    def wire_sum(group: str, name: str) -> int:
        return sum(wire.get(group, {}).get(name, 0) for wire in wires)

    deobfuscation = [
        outcome.result for outcome in engine_runs
        if outcome.result is not None and outcome.job["problem"]["kind"] == "deobfuscation"
    ]
    requests = phase.record.requests
    checks = wire_sum("smt_job_statistics", "checks")
    cert_hits = phase.stat_delta("certstore", "hits")
    metrics = {
        "service.http.rtt_s": _rtt(requests, "submit", "result"),
        "service.http.rtt.submit_s": _rtt(requests, "submit"),
        "service.http.rtt.result_s": _rtt(requests, "result"),
        "service.http.requests": len(requests),
        "service.queue.wait_s": sum(ledger.queue_waits(spans, "service.queue.submit", "api.engine.run")),
        "service.journal.appends": layer("service.journal.append", "calls"),
        "service.certstore.hit_share": _share(cert_hits, cert_hits + phase.stat_delta("certstore", "misses")),
        "api.engine.runs": layer("api.engine.run", "calls"),
        "api.pool.reuse_share": _share(
            phase.stat_delta("engine", "pool", "reused_sessions"), phase.stat_delta("engine", "pool", "leases")
        ),
        "api.memo.hit_share": _share(
            phase.stat_delta("engine", "shared_memo", "hits"), phase.stat_delta("engine", "shared_memo", "lookups")
        ),
        "smt.check.calls": checks,
        "smt.check.self_s": layer("smt.check", "self_s"),
        "smt.check.memo_hit_share": _share(wire_sum("smt_job_statistics", "check_memo_hits"), checks),
        "smt.simplify.self_s": layer("smt.simplify", "self_s"),
        "smt.bitblast.self_s": layer("smt.bitblast", "self_s"),
        "smt.bitblast.clauses": wire_sum("smt_job_statistics", "clauses_generated"),
        "smt.sat.calls": layer("smt.sat", "calls"),
        "smt.sat.self_s": layer("smt.sat", "self_s"),
        "smt.sat.conflicts": wire_sum("sat_job_statistics", "conflicts"),
        "smt.sat.propagations": wire_sum("sat_job_statistics", "propagations"),
        "smt.sat.decisions": wire_sum("sat_job_statistics", "decisions"),
        "smt.sat.learned_clauses": wire_sum("sat_job_statistics", "learned_clauses"),
        "smt.sat.props_per_s": _share(wire_sum("sat_job_statistics", "propagations"), layer("smt.sat", "self_s")),
        "ogis.synthesize.self_s": layer("ogis.synthesize", "self_s"),
        "ogis.distinguish.self_s": layer("ogis.distinguish", "self_s"),
        "ogis.verify.self_s": layer("ogis.verify", "self_s"),
        "ogis.iterations": sum(result.get("iterations", 0) for result in deobfuscation),
        "ogis.oracle.queries": sum(result.get("oracle_queries", 0) for result in deobfuscation),
        "gametime.prepare.self_s": layer("gametime.prepare", "self_s"),
        "cfg.feasibility.self_s": layer("cfg.feasibility", "self_s"),
        "platform.measure.self_s": layer("platform.measure", "self_s"),
        "hybrid.reach.calls": layer("hybrid.reach", "calls"),
        "hybrid.reach.self_s": layer("hybrid.reach", "self_s"),
        "hybrid.ode.self_s": layer("hybrid.ode", "self_s"),
        "trace.overhead_share": phase.scaled_wall_s / untraced.scaled_wall_s - 1.0,
        "trace.coverage_share": 1.0 - _share(layer("api.engine.run", "self_s"), layer("api.engine.run", "total_s")),
    }
    for metric, span in _SPAN_TOTALS.items():
        metrics[metric] = layer(span, "total_s")
    return {name: metrics[name] for name in PER_LAYER}


def _print_fingerprint(label: str, prints: dict[str, int]) -> None:
    digest = hashlib.sha256(json.dumps(prints, sort_keys=True).encode()).hexdigest()[:16]
    print(f"search fingerprint{label}: {digest} {json.dumps(prints, sort_keys=True)}")


def _failures(outcomes: list[driver.Outcome], phase: str) -> list[str]:
    lines = []
    for outcome in outcomes:
        if not outcome.correct:
            got = (outcome.result or {}).get("verdict")
            lines.append(
                f"{phase} job {outcome.job['label']}: state {outcome.state}, verdict {got}, "
                f"expected {outcome.job['verdict']}, error {outcome.error}"
            )
    return lines


def _run_phase(service: Service, workload: str, warmup: list[dict], measured: list[dict]) -> Phase:
    try:
        phase = Phase(service, workload, warmup, measured)
    except BaseException:
        service.kill()
        raise
    service.stop()
    return phase


def execute(arguments: argparse.Namespace, root: Path, state: Path, probe_before: float) -> int:
    catalogue = workloads.load_catalogue()
    warmup, measured = workloads.GENERATORS[arguments.workload](arguments.seed, arguments.seconds, catalogue)

    cpu = last_cpu()

    def serve(name: str, spans_file: Path | None = None) -> Service:
        return Service(state / name, root, cpu, spans_file)

    setup: list[float] = []
    if arguments.trace:
        service = serve("untraced")
    else:
        for spawn in range(SETUP_SPAWNS):
            # Start-up is CPU work too: scaled like the engine's (see README.md).
            with SpeedProbe(cpu) as probe:
                service = serve(f"setup{spawn}")
            setup.append(service.setup_s * summary.speed_scale([seconds for _, seconds in probe.samples]))
            if spawn < SETUP_SPAWNS - 1:
                service.stop()
    phase = _run_phase(service, arguments.workload, warmup, measured)
    failures = _failures(phase.warmup.outcomes, "warm-up") + _failures(phase.record.outcomes, "measured")
    prints = fingerprint(phase.record.outcomes)
    _print_fingerprint("", prints)
    if arguments.trace:
        spans_file = state / "spans.json"
        traced_service = serve("traced", spans_file)
        traced = _run_phase(traced_service, arguments.workload, warmup, measured)
        recorded = json.loads(spans_file.read_text())
        spans = [tuple(span) for span in recorded["spans"] if span[1] >= traced.started]
        measured_ids = {span[3] for span in spans}
        folded = [tuple(record) for record in recorded["folded"] if record[3] in measured_ids]
        failures += _failures(traced.record.outcomes, "traced")
        traced_prints = fingerprint(traced.record.outcomes)
        _print_fingerprint(" (traced)", traced_prints)
        if traced_prints != prints:
            failures.append("traced run did different search than the untraced run")
        metrics = per_layer(traced, spans, folded, phase)
        units = PER_LAYER
    else:
        metrics = end_to_end(phase, arguments.workload, setup)
        print("setup_s spawns: " + " ".join(f"{value:.4f}" for value in setup))
        units = END_TO_END
    for line in failures:
        print(line, file=sys.stderr)
    wrong = sum(1 for outcome in phase.record.outcomes if not outcome.correct)
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    print(
        f"speed scale: {phase.scale:.4f} from {len(phase.probes)} probes on CPU {cpu}; "
        f"measured wall {phase.record.wall_s:.4f} s, at the reference speed {phase.scaled_wall_s:.4f} s"
    )
    # Information, not a metric: a slower probe means a slower machine.
    print(f"machine probe: before {probe_before:.4f} s, after {summary.machine_probe():.4f} s")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(measured),
        "failed": wrong,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "service" / "__main__.py").is_file():
        print(f"no repro service source under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    state = root / ".svcbench_state" / f"{arguments.workload}-{arguments.seed}-{os.getpid()}"
    probe_before = summary.machine_probe()
    try:
        status = execute(arguments, root, state, probe_before)
    except (ServiceError, OSError, http.client.HTTPException) as error:
        print(f"service benchmark failed: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(state, ignore_errors=True)
        try:
            state.parent.rmdir()
        except OSError:
            pass
    return status


if __name__ == "__main__":
    raise SystemExit(main())
