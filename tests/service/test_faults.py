"""Fault-injection harness + service behavior under injected faults.

First the harness itself (triggers, plan parsing, env arming), then the
behaviors the harness exists to prove: a journal write failure turns
into 503s and a degraded ``/healthz`` while accepted jobs still finish;
a full disk under the certificate store degrades the store without
failing the job; an engine-level fault folds into a terminal job record
instead of crashing the service.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import EngineConfig
from repro.service import SciductionService
from repro.service.certstore import submission_fingerprint
from repro.service.journal import EVENT_FINISHED, decode_record
from repro.service.wire import parse_job_request
from repro.testing import faults

from service.test_http import DEOB, call, submit_and_wait


class TestHarness:
    def test_disarmed_points_are_noops(self):
        faults.reset()
        faults.fault_point("journal.write")  # no plan: must not raise
        assert faults.hits("journal.write") == 0

    def test_raise_action_and_errno(self):
        with faults.injected({"p": faults.Fault("raise", "ENOSPC")}):
            with pytest.raises(faults.FaultError) as caught:
                faults.fault_point("p")
        import errno

        assert caught.value.errno == errno.ENOSPC
        assert caught.value.point == "p"

    def test_triggers(self):
        nth = faults.Fault("raise", when="2")
        assert [nth.fires(hit) for hit in (1, 2, 3)] == [False, True, False]
        onward = faults.Fault("raise", when="2+")
        assert [onward.fires(hit) for hit in (1, 2, 3)] == [False, True, True]
        always = faults.Fault("raise")
        assert [always.fires(hit) for hit in (1, 2, 3)] == [True, True, True]

    def test_nth_hit_counting_at_the_point(self):
        with faults.injected({"p": faults.Fault("raise", when="3")}):
            faults.fault_point("p")
            faults.fault_point("p")
            with pytest.raises(faults.FaultError):
                faults.fault_point("p")
            assert faults.hits("p") == 3

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            faults.Fault("explode")
        with pytest.raises(ValueError):
            faults.Fault("raise", when="0")
        with pytest.raises(ValueError):
            faults.Fault("raise", when="soon")
        with pytest.raises(ValueError):
            faults.parse_plan("justapoint")

    def test_parse_plan(self):
        plan = faults.parse_plan(
            "journal.write:raise:EIO:2+; engine.slow:sleep:0.2"
        )
        assert plan["journal.write"] == faults.Fault("raise", "EIO", "2+")
        assert plan["engine.slow"] == faults.Fault("sleep", "0.2", "*")

    def test_install_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert not faults.install_from_env()
        monkeypatch.setenv("REPRO_FAULTS", "p:raise:EIO")
        assert faults.install_from_env()
        with pytest.raises(faults.FaultError):
            faults.fault_point("p")
        faults.reset()


@pytest.fixture()
def durable_service(tmp_path):
    instance = SciductionService(
        EngineConfig(workers=1), port=0, quiet=True, data_dir=tmp_path
    )
    instance.start()
    yield instance
    faults.reset()  # never shut down with an armed plan
    instance.shutdown()


class TestServiceUnderFaults:
    def test_journal_write_failure_degrades_to_503(self, durable_service):
        service = durable_service
        # A job accepted while the journal was healthy...
        status, first = call(service, "POST", "/jobs", {"problem": dict(DEOB)})
        assert status == 202
        with faults.injected(
            {"journal.write": faults.Fault("raise", "ENOSPC")}
        ):
            # ...then the disk fills: acceptance cannot be made durable.
            status, error = call(
                service, "POST", "/jobs", {"problem": dict(DEOB)}
            )
            assert status == 503
            assert "durable" in error["error"]
        # The journal is sticky-broken: still refusing after the fault
        # clears, and /healthz now says so.
        status, error = call(service, "POST", "/jobs", {"problem": dict(DEOB)})
        assert status == 503
        status, health = call(service, "GET", "/healthz")
        assert status == 503
        assert health["status"] == "degraded"
        assert health["journal"]["writable"] is False
        assert "ENOSPC" in health["journal"]["reason"]
        # The job accepted before the failure still runs to completion
        # and serves its result from memory.
        deadline_record = None
        import time

        for _ in range(600):
            status, deadline_record = call(
                service, "GET", f"/jobs/{first['job_id']}"
            )
            if deadline_record["done"]:
                break
            time.sleep(0.05)
        assert deadline_record is not None and deadline_record["done"]
        assert deadline_record["state"] == "completed"

    def test_certstore_disk_full_degrades_but_job_completes(
        self, durable_service
    ):
        service = durable_service
        with faults.injected(
            {"certstore.write": faults.Fault("raise", "ENOSPC")}
        ):
            job_id, record = submit_and_wait(
                service, {"problem": dict(DEOB)}
            )
            assert record["state"] == "completed"
        status, stats = call(service, "GET", "/stats")
        assert stats["certstore"]["write_errors"] >= 1
        assert stats["certstore"]["available"] is False
        status, health = call(service, "GET", "/healthz")
        assert status == 200  # the cert store is an optimization
        assert health["status"] == "degraded"
        assert health["certstore"]["available"] is False
        # Disk restored: the next completion re-arms the store.
        job_id, record = submit_and_wait(
            service, {"problem": {**DEOB, "seed": 7}}
        )
        assert record["state"] == "completed"
        status, health = call(service, "GET", "/healthz")
        assert status == 200 and health["certstore"]["available"] is True

    def test_engine_fault_folds_into_failed_job(self, durable_service):
        service = durable_service
        with faults.injected(
            {"engine.crash": faults.Fault("raise", "EIO")}
        ):
            job_id, record = submit_and_wait(service, {"problem": dict(DEOB)})
            assert record["state"] == "failed"
            assert "engine.crash" in record["error"]
        # The failure was journaled as terminal, and the service carries on.
        status, record = call(service, "GET", f"/jobs/{job_id}")
        assert record["state"] == "failed"
        # Failures are never persisted to the certificate store: the
        # same spec resubmitted after the fault clears runs for real.
        job_id, record = submit_and_wait(service, {"problem": dict(DEOB)})
        assert record["state"] == "completed"
        assert record["from_certificate"] is False

    def test_slow_engine_fault_just_delays(self, durable_service):
        service = durable_service
        with faults.injected(
            {"engine.slow": faults.Fault("sleep", "0.1")}
        ):
            job_id, record = submit_and_wait(service, {"problem": dict(DEOB)})
        assert record["state"] == "completed"
        assert record["elapsed"] >= 0.1


class TestFinishVisibility:
    """A job reads terminal only after its finish is journaled and persisted."""

    @staticmethod
    def _finished_records(service, job_id):
        lines = service.queue.journal.path.read_bytes().splitlines(keepends=True)
        records = [decode_record(line) for line in lines]
        return [
            record for record in records
            if record and record["event"] == EVENT_FINISHED and record["job"] == job_id
        ]

    def test_job_is_not_completed_until_the_harvest_records_it(
        self, durable_service, monkeypatch
    ):
        service = durable_service
        queue = service.queue
        held, release = threading.Event(), threading.Event()
        harvest = queue._harvest

        def held_harvest(drained):
            held.set()
            assert release.wait(60)
            harvest(drained)

        monkeypatch.setattr(queue, "_harvest", held_harvest)
        body = {"problem": dict(DEOB)}
        status, submitted = call(service, "POST", "/jobs", body)
        assert status == 202
        job_id = submitted["job_id"]
        try:
            assert held.wait(60), "the batch never finished"
            # The engine job is terminal; its finish is not recorded yet.
            status, record = call(service, "GET", f"/jobs/{job_id}")
            assert (record["state"], record["done"]) == ("running", False)
            status, record = call(service, "GET", f"/jobs/{job_id}?wait=0.2")
            assert (record["state"], record["done"]) == ("running", False)
            status, _ = call(service, "GET", f"/jobs/{job_id}/result")
            assert status == 409
            assert self._finished_records(service, job_id) == []
        finally:
            release.set()
        status, record = call(service, "GET", f"/jobs/{job_id}?wait=60")
        assert (record["state"], record["done"]) == ("completed", True)
        # Seen completed, so the finish record and the certificate exist.
        assert [r["state"] for r in self._finished_records(service, job_id)] == ["completed"]
        fingerprint = submission_fingerprint(parse_job_request(body))
        assert queue.certstore.get(fingerprint) is not None
