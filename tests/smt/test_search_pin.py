"""Pin the CDCL search: exact statistics on a fixed corpus.

Every constant below was recorded from the solver before its hot loops
were rewritten for speed.  Speed work on :mod:`repro.smt.sat` must leave
every decision, propagation, conflict and learned clause where it was, so
any change to these numbers means the search moved.  A change that moves
the search on purpose (a new heuristic, an encoding cut) re-records them
and says why.
"""

import random

import pytest

from repro.api import EngineConfig, SciductionEngine
from repro.smt import CdclSolver, SatResult, make_literal


def _counters(solver):
    stats = solver.statistics
    return (
        stats.conflicts,
        stats.propagations,
        stats.decisions,
        stats.learned_clauses,
        stats.restarts,
    )


def _random_3sat(seed, num_vars, num_clauses):
    rng = random.Random(seed)
    return [
        [make_literal(variable, rng.random() < 0.5)
         for variable in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)
    ]


def _pigeonhole(solver, pigeons, holes, guard=None):
    """PHP(pigeons, holes); every clause carries ``~guard`` when given."""
    prefix = [make_literal(guard, True)] if guard is not None else []
    var = {
        (pigeon, hole): solver.new_variable()
        for pigeon in range(pigeons)
        for hole in range(holes)
    }
    for pigeon in range(pigeons):
        solver.add_clause(prefix + [make_literal(var[(pigeon, hole)]) for hole in range(holes)])
    for hole in range(holes):
        for first in range(pigeons):
            for second in range(first + 1, pigeons):
                solver.add_clause(
                    prefix
                    + [
                        make_literal(var[(first, hole)], True),
                        make_literal(var[(second, hole)], True),
                    ]
                )
    return var


#: (seed, variables, clauses) of random 3-SAT instances at the 4.26
#: clause/variable threshold, where CDCL does the most work per clause.
RANDOM_3SAT = [(11, 60, 256), (12, 60, 256), (13, 80, 341), (14, 80, 341)]

#: Verdict and (conflicts, propagations, decisions, learned_clauses,
#: restarts) per instance.
RANDOM_3SAT_PINS = {
    11: ("sat", (49, 864, 64, 49, 0)),
    12: ("unsat", (93, 1533, 103, 92, 0)),
    13: ("unsat", (286, 6011, 338, 285, 2)),
    14: ("unsat", (266, 5280, 296, 265, 2)),
}


@pytest.mark.parametrize("seed, num_vars, num_clauses", RANDOM_3SAT)
def test_random_3sat_search_is_pinned(seed, num_vars, num_clauses):
    solver = CdclSolver()
    solver.ensure_variables(num_vars)
    for clause in _random_3sat(seed, num_vars, num_clauses):
        solver.add_clause(clause)
    verdict = solver.solve()
    assert (verdict.value, _counters(solver)) == RANDOM_3SAT_PINS[seed]


def test_pigeonhole_5_into_4_search_is_pinned():
    solver = CdclSolver()
    _pigeonhole(solver, 5, 4)
    assert solver.solve() is SatResult.UNSAT
    assert _counters(solver) == (28, 297, 38, 27, 0)


INCREMENTAL_TRACE = [
    ("unsat", (28, 297, 38, 27, 0)),
    ("sat", (33, 434, 107, 32, 0)),
    ("unsat", (37, 507, 151, 35, 0)),
    ("sat", (37, 558, 177, 35, 0)),
    ("sat", (37, 609, 205, 35, 0)),
    ("sat", (38, 688, 253, 36, 0)),
    ("sat", (40, 755, 279, 38, 0)),
    ("unsat", (68, 1052, 317, 65, 0)),
    ("sat", (73, 1189, 386, 70, 0)),
    ("unsat", (77, 1262, 430, 73, 0)),
    ("sat", (77, 1313, 456, 73, 0)),
    ("sat", (77, 1364, 484, 73, 0)),
    ("sat", (78, 1443, 532, 74, 0)),
    ("sat", (80, 1510, 558, 76, 0)),
]


def test_incremental_assumptions_with_replay_are_pinned():
    """Assumption solves on a guarded database, then a reset and a replay.

    After ``reset_search_state`` the replayed sequence must retrace the
    first one, so the second half of the trace repeats the first.
    """
    solver = CdclSolver()
    guard = solver.new_variable()
    var = _pigeonhole(solver, 5, 4, guard=guard)
    extra = [solver.new_variable() for _ in range(30)]
    for clause in _random_3sat(21, 30, 120):
        solver.add_clause([make_literal(extra[(lit >> 1) - 1], bool(lit & 1)) for lit in clause])
    rng = random.Random(22)
    sequence = [[make_literal(guard)]] + [
        [make_literal(variable, rng.random() < 0.5) for variable in rng.sample(extra, 4)]
        + [make_literal(var[(rng.randrange(5), rng.randrange(4))], rng.random() < 0.5)]
        for _ in range(6)
    ]
    trace = []
    for _ in range(2):
        for assumptions in sequence:
            verdict = solver.solve(assumptions)
            trace.append((verdict.value, _counters(solver)))
        solver.reduce_learned(0)
        solver.reset_search_state()
    assert trace == INCREMENTAL_TRACE
    first, second = trace[: len(sequence)], trace[len(sequence):]
    offset = first[-1][1]
    assert [(verdict, tuple(b - a for a, b in zip(offset, counts))) for verdict, counts in second] == first


def test_interchange_job_search_is_pinned():
    engine = SciductionEngine(EngineConfig())
    (result,) = engine.run_batch(
        [{"kind": "deobfuscation", "task": "interchange", "width": 8, "seed": 3}]
    )
    assert result.success and result.verdict
    assert result.details["engine"]["sat_job_statistics"] == {
        "conflicts": 2404,
        "decisions": 9854,
        "propagations": 196320,
        "learned_clauses": 2403,
    }
