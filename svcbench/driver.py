"""HTTP clients and the closed-loop job driver.

Every request is timed on the client; ``Record.requests`` keeps
``(kind, seconds)`` so the ledger can show the per-request round trip.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field

#: Long-poll hold per ``GET /jobs/<id>?wait=`` (the service clamps to 60).
WAIT_SECONDS = 30


class Connection:
    """One HTTP/1.1 client.

    ``keep_alive=True`` reuses a single connection for every request
    (SDK style); otherwise each request opens a fresh connection and asks
    the server to close it (curl style).
    """

    def __init__(self, port: int, keep_alive: bool) -> None:
        self.port = port
        self.keep_alive = keep_alive
        self._connection: http.client.HTTPConnection | None = None
        self.requests: list[tuple[str, float]] = []

    def request(self, kind: str, method: str, path: str, payload: dict | None = None) -> tuple[int, dict]:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if not self.keep_alive:
            headers["Connection"] = "close"
        started = time.perf_counter()
        if self._connection is None:
            self._connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=WAIT_SECONDS + 30)
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            data = response.read()
        finally:
            if not self.keep_alive:
                self._connection.close()
                self._connection = None
        self.requests.append((kind, time.perf_counter() - started))
        return response.status, json.loads(data)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


@dataclass
class Outcome:
    """What the client saw for one job."""

    job: dict
    #: ``time.perf_counter()`` when the job was submitted.
    started: float | None = None
    latency: float | None = None
    #: Seconds the engine spent on the job (0 when the certificate store answered).
    engine_s: float = 0.0
    state: str | None = None
    result: dict | None = None
    from_certificate: bool = False
    error: str | None = None

    @property
    def correct(self) -> bool:
        return (
            self.state == "completed"
            and self.result is not None
            and self.result.get("verdict") == self.job["verdict"]
        )


@dataclass
class Record:
    outcomes: list[Outcome]
    wall_s: float
    requests: list[tuple[str, float]] = field(default_factory=list)


def _submit_body(job: dict) -> dict:
    return {"problem": job["problem"], "label": job["label"], "client": "svcbench"}


def submit(connection: Connection, outcome: Outcome) -> int | None:
    status, reply = connection.request("submit", "POST", "/jobs", _submit_body(outcome.job))
    if status != 202:
        outcome.error = f"submit answered {status}: {reply.get('error')}"
        return None
    outcome.from_certificate = bool(reply.get("from_certificate"))
    return int(reply["job_id"])


def finish(connection: Connection, outcome: Outcome, job_id: int) -> None:
    """Long-poll ``job_id`` to a terminal state, then fetch its result."""
    done = False
    while not done:
        status, record = connection.request("wait", "GET", f"/jobs/{job_id}?wait={WAIT_SECONDS}")
        if status != 200:
            outcome.error = f"wait answered {status}"
            return
        done = bool(record["done"])
    if not outcome.from_certificate:
        outcome.engine_s = float(record.get("elapsed") or 0.0)
    status, result = connection.request("result", "GET", f"/jobs/{job_id}/result")
    outcome.state = "completed" if status == 200 else f"http-{status}"
    outcome.result = result if status == 200 else None


def closed_loop(port: int, jobs: list[dict], keep_alive: bool) -> Record:
    """One client: submit, wait, fetch; the next job only after the last."""
    connection = Connection(port, keep_alive)
    outcomes = []
    started = time.perf_counter()
    try:
        for job in jobs:
            outcome = Outcome(job, started=time.perf_counter())
            job_id = submit(connection, outcome)
            if job_id is not None:
                finish(connection, outcome, job_id)
                outcome.latency = time.perf_counter() - outcome.started
            outcomes.append(outcome)
    finally:
        connection.close()
    return Record(outcomes, time.perf_counter() - started, connection.requests)
