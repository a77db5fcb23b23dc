"""Start ``python -m repro.service`` with span recording around layer entry points.

Usage::

    python3 svcbench/launcher.py SPANS_FILE -- <repro.service arguments>

Nothing in ``src/`` changes: this wraps the public entry points of each
layer before the service starts, keeps spans in memory and writes them
to ``SPANS_FILE`` as JSON once the service has shut down.  A span is
``[name, start, end, span_id, parent_id, key]``: times are
``time.perf_counter()`` seconds (CLOCK_MONOTONIC, so comparable with the
client's clock), ``key`` is the job label, inherited by child spans.
A call nested directly inside a span of the same name is folded into it
(``simplify_bool`` and the bit-blaster recurse).

Functions called thousands of times per job (one RK4 step) get no span
each: their calls and time are summed into the enclosing span and
written as ``[name, calls, total_s, parent_id]`` folded records.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable

#: (module, owner class or None for a module function, attribute, span name, job key).
TRACED: list[tuple[str, str | None, str, str, Callable[..., Any] | None]] = [
    ("repro.service.queue", "JobQueue", "submit", "service.queue.submit",
     lambda args: args[1].get("label")),
    ("repro.service.journal", "JobJournal", "append", "service.journal.append", None),
    ("repro.service.certstore", "CertStore", "get", "service.certstore.get", None),
    ("repro.service.certstore", "CertStore", "put", "service.certstore.put", None),
    ("repro.api.engine", "SciductionEngine", "_execute", "api.engine.run",
     lambda args: args[1].label),
    ("repro.api.pool", "SolverPool", "acquire", "api.pool.acquire", None),
    ("repro.api.pool", "SolverPool", "release", "api.pool.release", None),
    ("repro.smt.solver", "SmtSolver", "check", "smt.check", None),
    ("repro.smt.solver", None, "simplify_bool", "smt.simplify", None),
    ("repro.smt.bitblast", "BitBlaster", "assert_formula", "smt.bitblast", None),
    ("repro.smt.bitblast", "BitBlaster", "blast_bool", "smt.bitblast", None),
    ("repro.smt.bitblast", "BitBlaster", "blast_bv", "smt.bitblast", None),
    ("repro.smt.sat", "CdclSolver", "solve", "smt.sat", None),
    ("repro.ogis.encoding", "SynthesisEncoder", "synthesize", "ogis.synthesize", None),
    ("repro.ogis.encoding", "SynthesisEncoder", "distinguishing_input", "ogis.distinguish", None),
    ("repro.ogis.program", "LoopFreeProgram", "equivalent_to", "ogis.verify", None),
    ("repro.gametime.analysis", "GameTime", "prepare", "gametime.prepare", None),
    ("repro.cfg.ssa", "PathConstraintBuilder", "feasibility", "cfg.feasibility", None),
    ("repro.platform.measurement", "MeasurementHarness", "run", "platform.measure", None),
    ("repro.hybrid.reachability", "ReachabilityOracle", "label_state", "hybrid.reach", None),
    ("repro.hybrid.ode", "OdeIntegrator", "integrate", "hybrid.ode", None),
]

#: (module, attribute, folded name): ``ReachabilityOracle.label_state``
#: steps the ODE through this module-level name, not ``integrate``.
FOLDED: list[tuple[str, str, str]] = [
    ("repro.hybrid.reachability", "rk4_step", "hybrid.ode"),
]


class SpanRecorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.folded: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, function: Callable, name: str, key_of: Callable | None) -> Callable:
        spans, folded, ids, local = self.spans, self.folded, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack and stack[-1][1] == name:
                return function(*args, **kwargs)
            parent_id, key = (stack[-1][0], stack[-1][2]) if stack else (0, None)
            if key_of is not None:
                key = key_of(args)
            span_id = next(ids)
            sums: dict[str, list] = {}
            stack.append((span_id, name, key, sums))
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, span_id, parent_id, key))
                for folded_name, (calls, total) in sums.items():
                    folded.append((folded_name, calls, total, span_id))

        return traced

    def fold(self, function: Callable, name: str) -> Callable:
        local, clock = self._local, time.perf_counter

        @functools.wraps(function)
        def counted(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                stack = getattr(local, "stack", None)
                if stack:
                    entry = stack[-1][3].setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += clock() - start

        return counted

    def install(self) -> None:
        for module_name, owner_name, attribute, name, key_of in TRACED:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            setattr(owner, attribute, self.wrap(getattr(owner, attribute), name, key_of))
        for module_name, attribute, name in FOLDED:
            module = importlib.import_module(module_name)
            setattr(module, attribute, self.fold(getattr(module, attribute), name))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_file, service_args = argv[0], argv[2:]
    recorder = SpanRecorder()
    recorder.install()
    from repro.service.__main__ import main as service_main

    try:
        return service_main(service_args)
    finally:
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump({"spans": recorder.spans, "folded": recorder.folded}, handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
