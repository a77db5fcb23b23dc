"""Regenerate ``catalogue.json``, the benchmark's known-answer catalogue.

Run from the repository root::

    PYTHONPATH=src python3 svcbench/build_catalogue.py

Every spec the workload generators can emit is run once in process
through :class:`repro.api.SciductionEngine`, and its verdict is recorded
together with its search counters.  The generators (``workloads.py``)
read only this file; they never import ``repro``, so a wrong verdict
from the service under test cannot leak into the answers it is checked
against.  Regenerate only when a deliberate change alters verdicts.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (sibling module; needs HERE on sys.path)

from repro.api.config import EngineConfig  # noqa: E402
from repro.api.engine import SciductionEngine  # noqa: E402


def _run(engine: SciductionEngine, problem: dict) -> tuple[dict, float]:
    started = time.process_time()
    outcome = engine.run_wire(
        {"job_id": 0, "problem": problem, "max_conflicts": None,
         "timeout": None, "label": "catalogue"}
    )
    if outcome["state"] != "completed":
        raise SystemExit(f"catalogue spec did not complete: {problem} -> {outcome}")
    return outcome["result"], time.process_time() - started


def _counters(result: dict) -> dict:
    sat = result["details"]["engine"].get("sat_job_statistics") or {}
    return {"conflicts": sat.get("conflicts", 0),
            "propagations": sat.get("propagations", 0)}


def build() -> dict:
    engine = SciductionEngine(EngineConfig())
    deobfuscation = []
    for task, seeds in workloads.DEOBFUSCATION_SEEDS.items():
        for seed in range(seeds):
            problem = {"kind": "deobfuscation", "task": task, "width": 8, "seed": seed}
            result, cpu = _run(engine, problem)
            entry = {"task": task, "seed": seed, "verdict": result["verdict"],
                     "cpu_s": round(cpu, 3), **_counters(result)}
            print(json.dumps(entry), flush=True)
            deobfuscation.append(entry)
    timing = []
    for program, args in workloads.TIMING_PROGRAMS:
        wcets = set()
        for seed in range(workloads.TIMING_SEEDS):
            problem = {"kind": "timing-analysis", "program": program,
                       "program_args": args, "seed": seed, "bound": 0}
            result, _ = _run(engine, problem)
            wcets.add(result["details"]["wcet_measured"])
        if len(wcets) != 1:
            raise SystemExit(f"{program} {args}: measured WCET depends on seed {wcets}")
        entry = {"program": program, "program_args": args, "wcet": wcets.pop()}
        print(json.dumps(entry), flush=True)
        timing.append(entry)
    result, cpu = _run(engine, workloads.SWITCHING)
    entry = {key: workloads.SWITCHING[key] for key in ("dwell_time", "omega_step", "horizon")}
    entry.update(verdict=result["verdict"], cpu_s=round(cpu, 3))
    print(json.dumps(entry), flush=True)
    switching = [entry]
    engine.close()
    return {"deobfuscation": deobfuscation, "timing": timing, "switching": switching}


if __name__ == "__main__":
    catalogue = build()
    (HERE / "catalogue.json").write_text(json.dumps(catalogue, indent=1, sort_keys=True) + "\n")
