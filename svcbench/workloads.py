"""Seeded job lists and the known-answer catalogue.

Pure functions of the seed: nothing here imports ``repro`` or reads a
clock, so one seed always names the same job list and the same expected
verdicts.  ``catalogue.json`` (written by ``build_catalogue.py``) holds
the answers; every spec a generator emits is looked up there.

The list length is a function of ``--seconds`` only, never of elapsed
time, so every run of a seed does the same work.  The mix of kinds and
their order within a round are fixed; the seed picks the instances
(Figure-7 seeds, the order of the interchange jobs, measurement seeds,
bounds, resubmitted specs).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CATALOGUE_PATH = Path(__file__).resolve().parent / "catalogue.json"

DEOBFUSCATION_SEEDS = {"interchange": 48, "multiply45_insufficient": 96}

_TIMING_WIDTHS = (8, 12, 16)
TIMING_PROGRAMS: list[tuple[str, dict]] = []
for _width in _TIMING_WIDTHS:
    TIMING_PROGRAMS += [
        ("figure4_toy", {"word_width": _width}),
        ("saturating_add", {"word_width": _width}),
        ("absolute_difference", {"word_width": _width}),
    ]
    TIMING_PROGRAMS += [
        ("conditional_cascade", {"depth": depth, "word_width": _width}) for depth in (3, 4, 5, 6)
    ]
    TIMING_PROGRAMS += [
        ("bounded_linear_search", {"length": length, "word_width": _width}) for length in (2, 3, 4)
    ]
    TIMING_PROGRAMS += [
        ("modular_exponentiation", {"exponent_bits": bits, "word_width": _width})
        for bits in (3, 4, 5, 6, 8)
    ]
TIMING_SEEDS = 8

#: The switching-logic spec: the paper's dwell-5 transmission problem.
#: Every switching job in a run carries its own label, so each is a
#: distinct submission that reaches the engine, and all cost the same.
SWITCHING = {"kind": "switching-logic", "system": "transmission",
             "dwell_time": 5.0, "omega_step": 0.1, "horizon": 60.0}

#: Timing programs at this width only warm the service up (and are the
#: specs that are resubmitted); measured timing jobs use the others.
WARMUP_WIDTH = 12

#: A run's interchange jobs are the catalogue entries nearest the task's
#: median propagation count, as many as the run needs, so every job does
#: about the same search; the seed only orders them.  Every run of one
#: length thus does the same interchange work, and only the machine moves
#: its times.  Figure-7 jobs (a few per cent of a run) are drawn by the
#: seed from this many entries nearest their median.
_FIGURE7_BAND = 80

#: One round of ``ogis-closed`` (about 12 s on a 2-core VM): four
#: interchange jobs of near-equal cost, then a Figure-7 job (verdict
#: False).  The order is fixed so the solver session sees the same
#: sequence of skeleton re-seals on every seed.
_OGIS_ROUND = ("interchange",) * 4 + ("multiply45_insufficient",)
_OGIS_ROUND_SECONDS = 12.0

#: Latency limits per workload, in seconds, for ``slo_met_share``: over
#: twice the slowest regular job seen on a 2-core VM (interchange
#: 2.5-5.3 s; timing jobs 0.04-0.33 s), so machine drift stays inside
#: them and a latency regression of 2.5 times or more does not.  The one
#: switching-logic job in ``timing-sdk`` (about 2.3 s) always misses.
SLO_SECONDS = {"ogis-closed": 12.0, "timing-sdk": 0.75}


def load_catalogue(path: Path = CATALOGUE_PATH) -> dict:
    return json.loads(path.read_text())


def _timing_key(program: str, args: dict) -> str:
    return program + json.dumps(args, sort_keys=True)


def expected_verdict(catalogue: dict, problem: dict) -> bool:
    """The committed verdict for ``problem``; ``KeyError`` if uncatalogued."""
    kind = problem["kind"]
    if kind == "deobfuscation":
        for entry in catalogue["deobfuscation"]:
            if entry["task"] == problem["task"] and entry["seed"] == problem["seed"]:
                return bool(entry["verdict"])
    elif kind == "timing-analysis":
        key = _timing_key(problem["program"], problem["program_args"])
        for entry in catalogue["timing"]:
            if _timing_key(entry["program"], entry["program_args"]) == key:
                # Problem <TA>: is every execution within the bound?
                return bool(entry["wcet"] <= problem["bound"])
    elif kind == "switching-logic":
        for entry in catalogue["switching"]:
            if (entry["dwell_time"], entry["omega_step"], entry["horizon"]) == (
                problem["dwell_time"], problem["omega_step"], problem["horizon"]
            ):
                return bool(entry["verdict"])
    raise KeyError(f"spec not in the catalogue: {problem}")


def _job(label: str, problem: dict, catalogue: dict) -> dict:
    return {"label": label, "problem": problem, "verdict": expected_verdict(catalogue, problem)}


def _ogis_band(catalogue: dict, task: str, size: int) -> list[int]:
    """The seeds of the ``size`` entries of ``task`` nearest its median propagation count."""
    entries = [entry for entry in catalogue["deobfuscation"] if entry["task"] == task]
    median = sorted(entry["propagations"] for entry in entries)[len(entries) // 2]
    entries.sort(key=lambda entry: (abs(entry["propagations"] - median), entry["seed"]))
    return sorted(entry["seed"] for entry in entries[:size])


def _deobfuscation(task: str, seed: int) -> dict:
    return {"kind": "deobfuscation", "task": task, "width": 8, "seed": seed}


def _timing(program: str, args: dict, seed: int, bound: int) -> dict:
    return {"kind": "timing-analysis", "program": program, "program_args": args,
            "seed": seed, "bound": bound}


def _rounds(seconds: int, seconds_per_round: float) -> int:
    return max(1, round(seconds / seconds_per_round))


def ogis_closed(seed: int, seconds: int, catalogue: dict) -> tuple[list[dict], list[dict]]:
    """Unique width-8 interchange jobs and Figure-7 jobs (verdict False)."""
    prefix = f"ogis-closed/{seed}"
    rng = random.Random(prefix)
    round_ = _OGIS_ROUND * _rounds(seconds, _OGIS_ROUND_SECONDS)
    warm_fig7 = 2
    # In first-seen order: the draws below must not depend on string hashing.
    wanted = {task: round_.count(task) for task in dict.fromkeys(round_)}
    wanted["multiply45_insufficient"] += warm_fig7
    bands = {"interchange": wanted["interchange"], "multiply45_insufficient": _FIGURE7_BAND}
    picked = {}
    for task, count in wanted.items():
        band = _ogis_band(catalogue, task, bands[task])
        if count > len(band):
            raise ValueError(f"{count} {task} jobs would repeat specs; the band has {len(band)} seeds")
        picked[task] = rng.sample(band, count)
    warmup = [
        _job(f"{prefix}/w{index}", _deobfuscation("multiply45_insufficient", picked["multiply45_insufficient"].pop()), catalogue)
        for index in range(warm_fig7)
    ]
    measured = [
        _job(f"{prefix}/{index}", _deobfuscation(task, picked[task].pop()), catalogue)
        for index, task in enumerate(round_)
    ]
    return warmup, measured


def _timing_entries(catalogue: dict, warmup: bool) -> list[dict]:
    return [
        entry for entry in catalogue["timing"]
        if (entry["program_args"]["word_width"] == WARMUP_WIDTH) == warmup
    ]


def _timing_visits(rng: random.Random, entries: list[dict], visits: int, prefix: str, catalogue: dict) -> list[dict]:
    """``visits`` unique timing jobs cycling over ``entries`` in order.

    Each config's k-th visit gets a distinct measurement seed; even
    visits get a bound at or above the catalogued WCET (verdict True),
    odd visits one below it (verdict False).
    """
    if visits > TIMING_SEEDS * len(entries):
        raise ValueError(f"{visits} timing jobs would repeat specs; the catalogue has {TIMING_SEEDS} seeds")
    seeds = {index: rng.sample(range(TIMING_SEEDS), TIMING_SEEDS) for index in range(len(entries))}
    jobs = []
    for visit in range(visits):
        index = visit % len(entries)
        round_ = visit // len(entries)
        entry = entries[index]
        margin = rng.randint(0, 25)
        bound = entry["wcet"] + margin if round_ % 2 == 0 else entry["wcet"] - 1 - margin
        problem = _timing(entry["program"], entry["program_args"], seeds[index][round_], bound)
        jobs.append(_job(f"{prefix}/{visit}", problem, catalogue))
    return jobs


def _timing_warmup(seed: int, prefix: str, catalogue: dict) -> list[dict]:
    rng = random.Random(f"{prefix}/warmup/{seed}")
    entries = _timing_entries(catalogue, warmup=True)
    by_program: dict[str, dict] = {}
    for entry in entries:
        by_program.setdefault(entry["program"], entry)
    return _timing_visits(rng, list(by_program.values()), len(by_program), f"{prefix}/w", catalogue)


def timing_sdk(seed: int, seconds: int, catalogue: dict) -> tuple[list[dict], list[dict]]:
    """Unique small timing-analysis jobs over all six programs, both verdicts.

    After every tenth job comes an exact resubmission of a warm-up spec,
    which the certificate store answers with no engine call, and half-way
    through one switching-logic job puts the ``hybrid`` layer in this
    workload (a warm-up one pays the first simulation's imports).
    """
    prefix = f"timing-sdk/{seed}"
    rng = random.Random(prefix)
    entries = _timing_entries(catalogue, warmup=False)
    warmup = _timing_warmup(seed, prefix, catalogue)
    timing = _timing_visits(rng, entries, len(entries) * _rounds(seconds, 5.5), prefix, catalogue)
    measured = []
    for index, job in enumerate(timing):
        measured.append(job)
        if index % 10 == 9:
            measured.append(dict(rng.choice(warmup)))
        if index == len(timing) // 2:
            measured.append(_job(f"{prefix}/switching", SWITCHING, catalogue))
    warmup.append(_job(f"{prefix}/w-switching", SWITCHING, catalogue))
    return warmup, measured


GENERATORS = {"ogis-closed": ogis_closed, "timing-sdk": timing_sdk}
