"""Race-condition regressions for the serve daemon's admission control.

Four bugs this suite pins closed:

* the quota TOCTOU in ``MeteringService.submit``: "ledger total < quota"
  was checked at admission but billing lands only when the worker thread
  finishes, so N barrier-synchronized submissions from one tenant could
  all pass the check and overshoot the budget N-fold.  Admission now goes
  through ``UsageStore.try_reserve`` — check+reserve is one atomic step
  under the store lock, so racing submissions serialise exactly as serial
  admission would;
* ``_release_queued`` evaluated the quota against a tenant dict fetched
  once before the loop (and never counted the job it had *just*
  released), so one quota raise could release a whole queue of jobs
  against a budget that only fit the first;
* worker-thread failures disappearing into a bare ``except Exception:
  pass`` — a failed run must end with the job in state ``failed``, the
  error string on the job row, and the ``repro_serve_jobs_failed_total``
  counter incremented;
* job ids minted from a ``COUNT(*)`` read before the write transaction
  began, so two connections to one store file could both mint
  ``j-NNNNNN`` (and its ``auto:`` idempotency key) and one insert failed
  on the UNIQUE constraint.  The id is now counted inside the
  ``BEGIN IMMEDIATE`` transaction that inserts it;
* a caller-supplied idempotency key looked up before that transaction:
  two connections submitting the same key could both miss it, and the
  loser's insert failed on the UNIQUE constraint.  The loser now answers
  with the job the key already names.
"""

import sys
import threading

import pytest

from repro.serve import MeteringService, UsageStore
from repro.serve.store import QuotaExceeded

SMALL_SPEC = {"program": "O", "program_kwargs": {"iterations": 40}}


def _spec(label):
    doc = dict(SMALL_SPEC)
    doc["label"] = label
    return doc


@pytest.fixture
def store(tmp_path):
    store = UsageStore(str(tmp_path / "usage.db"))
    yield store
    store.close()


class TestQuotaSubmissionRace:
    N_RACERS = 6

    def test_racing_submissions_cannot_exceed_quota(self, store):
        """Barrier-synchronized threads all submit against a 1 ns budget:
        exactly one job may be admitted (first admission is allowed to
        overshoot, as serial admission would), every other racer gets the
        429 rejection — never N admitted jobs billing N times the quota."""
        service = MeteringService(store, jobs=4)
        tenant = service.register_tenant("racer", quota_ns=1)
        tenant_id = tenant["tenant_id"]

        barrier = threading.Barrier(self.N_RACERS)
        results = {}
        failures = []

        def submit(index):
            barrier.wait()
            try:
                results[index] = service.submit(
                    tenant_id, _spec(f"race-{index}"), wait=True)
            except QuotaExceeded as exc:
                results[index] = exc.job
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append((index, exc))

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(self.N_RACERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        service.drain(timeout_s=120)

        assert failures == []
        states = sorted(job["state"] for job in results.values())
        assert states == ["completed"] + ["rejected"] * (self.N_RACERS - 1)

        completed = next(job for job in results.values()
                         if job["state"] == "completed")
        # The ledger holds exactly the one admitted job's bill, nothing
        # more: the tenant could not exceed quota_ns through the race.
        assert store.ledger_total_ns(tenant_id) == \
            completed["invoice"]["billed_ns"]
        assert store.ledger_count() == 1
        assert store.integrity_check()["ok"]
        service.close()

    def test_reservation_released_after_completion(self, store):
        """A reservation lives only while its job is in flight — it must
        never outlive the run and wedge the tenant's future admissions."""
        service = MeteringService(store, jobs=2)
        tenant = service.register_tenant("cycler", quota_ns=10 ** 15)
        job = service.submit(tenant["tenant_id"], _spec("first"), wait=True)
        assert job["state"] == "completed"
        assert store.reservation_count() == 0
        # Budget still open: the next submission is admitted normally.
        job2 = service.submit(tenant["tenant_id"], _spec("second"),
                              wait=True)
        assert job2["state"] == "completed"
        service.close()

    def test_unlimited_tenants_never_serialise(self, store):
        """No quota, no reservation: concurrent submissions from an
        unlimited tenant all run (the fast path is untouched)."""
        service = MeteringService(store, jobs=4)
        tenant = service.register_tenant("unlimited")
        barrier = threading.Barrier(4)
        results = {}

        def submit(index):
            barrier.wait()
            results[index] = service.submit(
                tenant["tenant_id"], _spec(f"free-{index}"), wait=True)

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert [job["state"] for job in results.values()] == \
            ["completed"] * 4
        assert store.reservation_count() == 0
        service.close()


class TestQueuedReleaseRecheck:
    def test_release_counts_the_job_it_just_released(self, store):
        """Two queued jobs, a budget that fits one: the old code checked
        the ledger (which the just-released job had not billed yet) and a
        quota value fetched before the loop, so both were released.  The
        per-iteration ``try_reserve`` admits the first and blocks the
        second behind its reservation."""
        service = MeteringService(store, jobs=2)
        tenant = service.register_tenant("queued", quota_ns=1)
        tenant_id = tenant["tenant_id"]

        first = service.submit(tenant_id, _spec("q-first"), wait=True)
        assert first["state"] == "completed"
        spent_ns = store.ledger_total_ns(tenant_id)

        second = service.submit(tenant_id, _spec("q-second"), wait=False,
                                over_quota="queue")
        third = service.submit(tenant_id, _spec("q-third"), wait=False,
                               over_quota="queue")
        assert second["state"] == "queued"
        assert third["state"] == "queued"

        # Raise the budget just above what is already spent: room for one
        # more admission, not two.
        service.set_quota(tenant_id, spent_ns + 1)
        service.drain(timeout_s=120)

        released = service.job_doc(second["job_id"])
        blocked = service.job_doc(third["job_id"])
        assert released["state"] == "completed"
        assert blocked["state"] == "queued"

        # Re-running the release loop with the budget now exhausted must
        # not free the blocked job either (fresh per-iteration re-read).
        service.set_quota(tenant_id, spent_ns + 1)
        service.drain(timeout_s=120)
        assert service.job_doc(third["job_id"])["state"] == "queued"

        # Clearing the quota finally releases it.
        service.set_quota(tenant_id, None)
        service.drain(timeout_s=120)
        assert service.job_doc(third["job_id"])["state"] == "completed"
        service.close()


def _exploding_run(spec):
    raise RuntimeError("engine exploded")


class TestFailuresNeverSwallowed:
    def test_failed_run_recorded_on_job_and_counted(self, store):
        service = MeteringService(store, jobs=1, run=_exploding_run)
        tenant = service.register_tenant("unlucky")
        job = service.submit(tenant["tenant_id"], _spec("boom"), wait=True)
        assert job["state"] == "failed"
        assert "RuntimeError" in job["error"]
        assert "engine exploded" in job["error"]
        assert "repro_serve_jobs_failed_total 1" in service.metrics_text()
        service.close()

    def test_dispatch_path_failure_recorded_by_wait(self, store,
                                                    monkeypatch):
        """If execution dies before ``_execute``'s own error handler can
        record anything, the waiter must record the failure instead of
        returning a forever-queued job with no error."""
        service = MeteringService(store, jobs=1)
        tenant = service.register_tenant("doomed")

        def die(job_id):
            raise RuntimeError("pre-recording dispatch failure")

        monkeypatch.setattr(service, "_execute", die)
        job = service.submit(tenant["tenant_id"], _spec("dead"), wait=True)
        assert job["state"] == "failed"
        assert "pre-recording dispatch failure" in job["error"]
        assert "repro_serve_jobs_failed_total 1" in service.metrics_text()
        service.close()


class TestJobIdAllocation:
    CALLS = 200

    def _race(self, path, create_job):
        """Two stores on one file, one thread each, call ``create_job(store,
        tenant_id, i)`` for ``i`` in ``range(CALLS)`` in lockstep; returns
        the ``(job, created)`` answers and the errors raised."""
        stores = [UsageStore(path), UsageStore(path)]
        tenant_id = stores[0].register_tenant("alpha")["tenant_id"]
        barrier = threading.Barrier(len(stores))
        answers = []
        errors = []

        def create(store):
            barrier.wait()
            for i in range(self.CALLS):
                try:
                    answers.append(create_job(store, tenant_id, i))
                except Exception as exc:  # noqa: BLE001 - counted below
                    errors.append(repr(exc))

        threads = [threading.Thread(target=create, args=(store,))
                   for store in stores]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            for store in stores:
                store.close()
        assert not any(thread.is_alive() for thread in threads)
        return answers, errors

    def test_two_connections_never_mint_the_same_job_id(self, tmp_path):
        """Every call succeeds and every id is distinct."""
        answers, errors = self._race(
            str(tmp_path / "usage.db"),
            lambda store, tenant_id, i: store.create_job(
                tenant_id, f"spec-{i}", {"program": "W", "i": i}))
        assert errors == []
        assert all(created for _job, created in answers)
        ids = [job["job_id"] for job, _created in answers]
        assert len(ids) == len(set(ids)) == 2 * self.CALLS

    def test_two_connections_sharing_keys_make_one_job_per_key(
            self, tmp_path):
        """Both connections submit every key: no call fails, each key
        names one job, and exactly one of its two submissions created it."""
        answers, errors = self._race(
            str(tmp_path / "usage.db"),
            lambda store, tenant_id, i: store.create_job(
                tenant_id, f"spec-{i}", {"program": "W", "i": i},
                idempotency_key=f"key-{i}"))
        assert errors == []
        assert len(answers) == 2 * self.CALLS
        by_key = {}
        for job, created in answers:
            by_key.setdefault(job["idempotency_key"], []).append(
                (job["job_id"], created))
        assert len(by_key) == self.CALLS
        for key, seen in by_key.items():
            assert len({job_id for job_id, _ in seen}) == 1, key
            assert sorted(created for _, created in seen) == [False, True]

    def test_single_writer_ids_are_sequential(self, store):
        tenant_id = store.register_tenant("alpha")["tenant_id"]
        ids = [store.create_job(tenant_id, f"spec-{i}", {"i": i})[0]["job_id"]
               for i in range(3)]
        assert ids == ["j-000001", "j-000002", "j-000003"]
