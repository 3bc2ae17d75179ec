"""Coordinator end-to-end tests over real loopback sockets.

These drive the full fabric through :mod:`repro.dist.harness` -- real
:class:`Coordinator`, real :class:`Worker` threads, real TCP -- and
assert the tentpole contract from three angles: completion under a
hostile fleet, graceful quarantine of genuinely doomed work, and
bit-identity of the distributed result set against a solo run.
"""

import json
import os
import socket
import subprocess
import sys
import threading

from repro.dist import FrameTransport, PROTOCOL_VERSION, campaign_units
from repro.dist.coordinator import MAX_GRANT, Coordinator, grant_size
from repro.dist.harness import (
    SMOKE_SPEC,
    WorkerPlan,
    doomed_key,
    run_dist_campaign,
    solo_records,
)
from repro.dist.lease import LeaseTable
from repro.dist.worker import Worker
from repro.faults.chaos import ChaosPolicy
from repro.runtime.cache import RunCache
from repro.runtime.checkpoint import load_checkpoint
from repro.runtime.executor import RetryPolicy


class TestCleanCampaign:
    def test_two_workers_commit_every_unit(self, tmp_path):
        outcome = run_dist_campaign(str(tmp_path))
        summary = outcome.summary
        assert summary.complete
        assert summary.committed == summary.units
        assert summary.quarantined == []
        assert summary.conflicts == []
        assert outcome.worker_codes == (0, 0)
        # Both workers actually shared the load metadata-wise.
        assert summary.workers_seen >= 2

    def test_final_checkpoint_is_complete(self, tmp_path):
        outcome = run_dist_campaign(str(tmp_path))
        state = load_checkpoint(str(tmp_path), outcome.fingerprint)
        assert state is not None
        assert state.complete
        assert state.completed_cells == outcome.summary.units
        assert state.failed == ()


class TestCacheResume:
    def test_cached_units_commit_without_leases(self, tmp_path):
        # A finished campaign's units are all in the run cache, so a
        # second coordinator over the same cache dir settles them at
        # construction: no lease is granted, no worker is needed.
        first = run_dist_campaign(str(tmp_path))
        assert first.summary.complete
        coordinator = Coordinator(SMOKE_SPEC, cache_dir=str(tmp_path))
        assert coordinator.table.done
        summary = coordinator.run(timeout=10.0)
        assert summary.complete
        assert summary.counters["granted"] == 0
        assert summary.committed == summary.units == first.summary.units
        state = load_checkpoint(str(tmp_path), summary.fingerprint)
        assert state is not None and state.complete
        assert state.completed_cells == summary.units

    def test_only_uncached_units_stay_pending(self, tmp_path):
        units = campaign_units(
            SMOKE_SPEC.build_campaign(), "unused-fingerprint"
        )
        solo_records(SMOKE_SPEC, str(tmp_path))  # warms every unit
        cache = RunCache(str(tmp_path))
        missing = units[-1].key
        os.unlink(cache._disk_path(missing))
        coordinator = Coordinator(SMOKE_SPEC, cache_dir=str(tmp_path))
        assert coordinator.table.progress()["committed"] == len(units) - 1
        assert coordinator.table.pending == 1
        coordinator.stop()


class TestHostileFleet:
    def test_chaos_plus_mid_lease_death_is_bit_identical(self, tmp_path):
        outcome = run_dist_campaign(
            str(tmp_path),
            workers=(
                WorkerPlan(name="chaotic", net_chaos_seed=7),
                WorkerPlan(name="mortal", die_after=1),
            ),
        )
        summary = outcome.summary
        assert summary.complete
        assert summary.conflicts == []
        assert summary.quarantined == []
        # The mortal worker really did die mid-lease.  The chaos worker
        # usually hears "done" (0), but a sever racing the coordinator's
        # shutdown can leave it disconnected (3) -- never an error code.
        assert outcome.worker_codes[1] == 9
        assert outcome.worker_codes[0] in (0, 3)
        assembled = solo_records(SMOKE_SPEC, str(tmp_path))
        reference = solo_records(SMOKE_SPEC, None)
        assert assembled == reference


class TestGrantCrashes:
    def test_worker_dying_mid_grant_regrants_the_rest(self, tmp_path):
        # The mortal worker is alone when it fetches, so its grant is the
        # fair share of all 10 pending units (5).  It runs 2, dies on the
        # 3rd, and never delivers: the whole grant is released -- the 3
        # units it never started included -- and each comes back alone.
        coordinator = Coordinator(
            SMOKE_SPEC, cache_dir=str(tmp_path), lease_s=10.0,
            heartbeat_s=0.25,
            policy=RetryPolicy(max_attempts=4, backoff_base_s=0.0),
        )
        port = coordinator.start()
        try:
            mortal = Worker("127.0.0.1", port, name="mortal", die_after=2)
            assert mortal.run() == 9
            assert mortal.units_executed == 2
            survivor = Worker("127.0.0.1", port, name="survivor")
            codes = []
            thread = threading.Thread(
                target=lambda: codes.append(survivor.run()), daemon=True
            )
            thread.start()
            summary = coordinator.run(timeout=60.0)
            thread.join(timeout=10.0)
        finally:
            coordinator.stop()
        assert codes == [0]
        assert summary.complete
        assert summary.released == 5
        assert summary.committed == summary.units
        assert summary.quarantined == [] and summary.conflicts == []
        # Every released unit was re-granted exactly once.
        assert summary.counters["granted"] == summary.units + 5
        assert solo_records(SMOKE_SPEC, str(tmp_path)) \
            == solo_records(SMOKE_SPEC, None)

    def test_doomed_cell_in_a_shared_grant_quarantines_alone(
        self, tmp_path, monkeypatch
    ):
        grants = []
        acquire_many = LeaseTable.acquire_many

        def recording(table, worker, limit):
            leases = acquire_many(table, worker, limit)
            grants.append([lease.unit_id for lease in leases])
            return leases

        monkeypatch.setattr(LeaseTable, "acquire_many", recording)
        doomed = doomed_key(SMOKE_SPEC, index=1)
        outcome = run_dist_campaign(
            str(tmp_path),
            workers=(
                WorkerPlan(
                    name="saboteur",
                    cell_chaos=ChaosPolicy(doomed=(doomed,), seed=1),
                ),
            ),
            policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        )
        summary = outcome.summary
        assert summary.complete
        assert [f.key for f in summary.quarantined] == [doomed]
        assert summary.quarantined[0].attempts == 3
        assert summary.committed == summary.units - 1
        units = {
            unit.key: unit.unit_id for unit in campaign_units(
                SMOKE_SPEC.build_campaign(), outcome.fingerprint
            )
        }
        doomed_id = units[doomed]
        holding = [grant for grant in grants if doomed_id in grant]
        # First shared with healthy units, then twice on its own ...
        assert len(holding) == 3
        assert len(holding[0]) > 1
        assert holding[1:] == [[doomed_id], [doomed_id]]
        # ... and no healthy unit ever needed a second attempt.
        assert summary.counters["granted"] == summary.units + 2


class TestQuarantine:
    def test_doomed_cell_quarantines_and_campaign_completes(self, tmp_path):
        doomed = doomed_key(SMOKE_SPEC, index=0)
        outcome = run_dist_campaign(
            str(tmp_path),
            workers=(
                WorkerPlan(
                    name="saboteur",
                    cell_chaos=ChaosPolicy(doomed=(doomed,), seed=1),
                ),
            ),
            policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        )
        summary = outcome.summary
        assert summary.complete
        assert [f.key for f in summary.quarantined] == [doomed]
        record = summary.quarantined[0]
        assert record.attempts == 2
        assert record.reason == "error"
        assert summary.committed == summary.units - 1
        # Never cached, but remembered by the checkpoint so a resume
        # does not grind through the doomed attempts again.
        assert RunCache(str(tmp_path)).get(doomed) is None
        state = load_checkpoint(str(tmp_path), outcome.fingerprint)
        assert state is not None and state.complete
        assert [f.key for f in state.failed] == [doomed]


class TestResultValidation:
    def test_malformed_doc_charges_attempt_and_retries(self, tmp_path):
        # A result doc that is a dict but fails deserialization must NOT
        # terminally commit the unit (checkpoint would then claim a cell
        # that has no cached result): it counts as a failed attempt and
        # the unit is re-leased.
        coordinator = Coordinator(
            SMOKE_SPEC, cache_dir=str(tmp_path),
            policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        )
        port = coordinator.start()
        try:
            transport = FrameTransport(
                socket.create_connection(("127.0.0.1", port), timeout=5.0)
            )
            try:
                transport.send({
                    "type": "hello", "name": "fibber",
                    "proto": PROTOCOL_VERSION,
                })
                assert transport.recv(timeout=5.0)["type"] == "welcome"
                transport.send({"type": "fetch"})
                grant = transport.recv(timeout=5.0)
                assert grant["type"] == "grant"
                lease = grant["leases"][0]
                unit_id = lease["unit"]["unit_id"]
                transport.send({"type": "results", "results": [{
                    "status": "ok",
                    "unit_id": unit_id, "lease_id": lease["lease_id"],
                    "doc": {"version": -1, "garbage": True},
                }]})
                transport.send({"type": "fetch"})
                retry = transport.recv(timeout=5.0)
                assert retry["type"] == "grant"
                # The charged unit comes back alone, at attempt 2.
                assert [entry["unit"]["unit_id"]
                        for entry in retry["leases"]] == [unit_id]
                assert retry["leases"][0]["attempt"] == 2
                assert coordinator.table.progress()["committed"] == 0
            finally:
                transport.close()
        finally:
            coordinator.stop()


class TestGrantSize:
    def test_fair_share_of_pending_per_worker(self):
        assert grant_size(10, 1) == 5
        assert grant_size(10, 2) == 3
        assert grant_size(7, 3) == 2

    def test_capped_and_never_empty(self):
        assert grant_size(1325, 1) == MAX_GRANT
        assert grant_size(1, 4) == 1
        assert grant_size(0, 0) == 1


class TestProtocolEdges:
    def test_version_skew_rejected_before_any_lease(self, tmp_path):
        coordinator = Coordinator(SMOKE_SPEC, cache_dir=str(tmp_path))
        port = coordinator.start()
        try:
            transport = FrameTransport(
                socket.create_connection(("127.0.0.1", port), timeout=5.0)
            )
            try:
                transport.send({
                    "type": "hello", "name": "timetraveler",
                    "proto": PROTOCOL_VERSION + 1,
                })
                reply = transport.recv(timeout=5.0)
                assert reply["type"] == "reject"
                assert "proto" in reply["reason"]
            finally:
                transport.close()
        finally:
            coordinator.stop()

    def test_units_cover_the_whole_campaign_baselines_first(self, tmp_path):
        campaign = SMOKE_SPEC.build_campaign()
        units = campaign_units(campaign, "fp")
        kinds = [u.kind for u in units]
        first_grid = kinds.index("grid")
        assert all(k == "baseline" for k in kinds[:first_grid])
        assert all(k == "grid" for k in kinds[first_grid:])
        # One baseline per workload, one grid cell per workload x target.
        assert kinds.count("baseline") == len(campaign.workloads)
        assert kinds.count("grid") == len(campaign.workloads) * len(
            campaign.targets
        )
        assert len({u.unit_id for u in units}) == len(units)
        assert len({u.key for u in units}) == len(units)

    def test_unit_ids_salted_by_fingerprint(self):
        campaign = SMOKE_SPEC.build_campaign()
        a = [u.unit_id for u in campaign_units(campaign, "a" * 64)]
        b = [u.unit_id for u in campaign_units(campaign, "b" * 64)]
        assert not set(a) & set(b)
        # Same keys either way: the salt names units, not results.
        assert [u.key for u in campaign_units(campaign, "a" * 64)] \
            == [u.key for u in campaign_units(campaign, "b" * 64)]

    def test_unit_ids_stable_across_processes(self):
        # Worker and coordinator must agree on ids whatever the hash
        # seed of either process.
        script = (
            "import json; from repro.dist import campaign_units; "
            "from repro.dist.harness import SMOKE_SPEC; "
            "print(json.dumps([u.unit_id for u in campaign_units("
            "SMOKE_SPEC.build_campaign(), 'f' * 64)]))"
        )
        src = os.path.dirname(os.path.dirname(
            __import__("repro").__file__
        ))
        seen = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout
            seen.append(json.loads(out))
        local = [u.unit_id for u in campaign_units(
            SMOKE_SPEC.build_campaign(), "f" * 64
        )]
        assert seen == [local, local]
