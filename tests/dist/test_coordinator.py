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

import pytest

from repro import obs
from repro.dist import (
    FrameTransport,
    PROTOCOL_VERSION,
    campaign_units,
    unit_cells,
)
from repro.dist.coordinator import MAX_GRANT, Coordinator, grant_size
from repro.dist.harness import (
    SMOKE_SPEC,
    WorkerPlan,
    doomed_key,
    run_dist_campaign,
    run_hostile_fleet,
    solo_records,
)
from repro.dist.lease import LeaseTable
from repro.dist.worker import Worker, wire_row
from repro.faults.chaos import ChaosPolicy
from repro.runtime.cache import RunCache
from repro.runtime.checkpoint import load_checkpoint
from repro.runtime.executor import RetryPolicy, _execute_cell_attempt
from repro.store import ResultStore
from repro.store.codec import skeleton_ref
from repro.store.store import ROW_FIELDS, split_row


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

    def test_only_uncached_units_stay_pending(self, tmp_path):
        units = _warm_all_but_the_last_unit(str(tmp_path))
        coordinator = Coordinator(SMOKE_SPEC, cache_dir=str(tmp_path))
        assert coordinator.table.progress()["committed"] == len(units) - 1
        assert coordinator.table.pending == 1
        coordinator.stop()

    def test_resumed_campaign_stores_every_unit_in_one_manifest(
        self, tmp_path
    ):
        # Nine units come from the solo run's manifest, one from a
        # worker (appended as it commits): the coordinator's merge must
        # extend the manifest the solo run committed, not replace it.
        units = _warm_all_but_the_last_unit(str(tmp_path))
        outcome = run_dist_campaign(
            str(tmp_path), workers=(WorkerPlan(name="w0"),)
        )
        assert outcome.summary.complete
        assert outcome.workers[0].units_executed == 1
        store = ResultStore(tmp_path / "store")
        assert sorted(store.keys()) == sorted(unit.key for unit in units)
        assert len(store.manifests()) == 1


def _warm_all_but_the_last_unit(cache_dir):
    """Store every unit of the smoke campaign but the last, as a solo
    campaign run names its rows; returns the units."""
    from repro.runtime.checkpoint import campaign_fingerprint

    campaign = SMOKE_SPEC.build_campaign()
    pairs = unit_cells(campaign, "unused-fingerprint")
    cache = RunCache(cache_dir)
    cache.name_rows(campaign_fingerprint(campaign))
    for unit, cell in pairs[:-1]:
        cache.put(unit.key, _execute_cell_attempt(cell, 1))
    cache.close()
    return [unit for unit, _ in pairs]


class TestHostileFleet:
    def test_chaos_plus_mid_lease_death_is_bit_identical(self, tmp_path):
        # The fleet the dist-campaign-identity diag check runs: the
        # chaotic worker starts only once the mortal one holds its first
        # grant, so the mortal worker always dies on its second lease,
        # and the fleet replaces it.
        outcome = run_hostile_fleet(str(tmp_path), net_chaos_seed=7)
        summary = outcome.summary
        assert summary.complete
        assert summary.conflicts == []
        assert summary.quarantined == []
        # The chaos worker usually hears "done" (0), but a sever racing
        # the coordinator's shutdown can leave it disconnected (3) --
        # never an error code.  So can the replacement.
        mortal, chaotic = outcome.worker_codes[:2]
        assert mortal == 9
        assert chaotic in (0, 3)
        assert outcome.workers[2].name == "hw2"
        assert outcome.worker_codes[2] in (0, 3)
        assembled = solo_records(SMOKE_SPEC, str(tmp_path))
        reference = solo_records(SMOKE_SPEC, None)
        assert assembled == reference


class TestReconnect:
    def test_severed_worker_redelivers_memoized_rows(
        self, tmp_path, monkeypatch
    ):
        # The second results frame never leaves the worker: the link
        # dies after that grant executed, and after the first frame
        # carried its skeletons.  The worker reconnects and, as its
        # released units come back, re-delivers the memoized rows --
        # with every skeleton the new connection has not carried yet --
        # instead of running the cells again.
        sent = []
        severed = []

        class Severing(FrameTransport):
            def __init__(self, sock, index):
                super().__init__(sock)
                self.index = index

            def send(self, message):
                if message.get("type") == "results" and not severed \
                        and any(m["type"] == "results" for _, m in sent):
                    severed.append(self.index)
                    self.close()
                    raise ConnectionResetError("severed after a grant")
                sent.append((self.index, message))
                return super().send(message)

        def connect(worker, conn_index):
            sock = socket.create_connection(
                (worker.host, worker.port), timeout=5.0
            )
            sock.settimeout(None)
            return Severing(sock, conn_index)

        monkeypatch.setattr(Worker, "_connect", connect)
        coordinator = Coordinator(
            SMOKE_SPEC, cache_dir=str(tmp_path), lease_s=10.0,
            policy=RetryPolicy(max_attempts=4, backoff_base_s=0.0),
        )
        port = coordinator.start()
        worker = Worker("127.0.0.1", port, name="flaky")
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(worker.run()), daemon=True
        )
        try:
            thread.start()
            summary = coordinator.run(timeout=60.0)
        finally:
            coordinator.stop()
        thread.join(timeout=10.0)
        assert severed == [1]
        assert codes == [0]
        assert summary.complete and summary.conflicts == []
        assert summary.committed == summary.units
        assert summary.released >= 3  # the severed grant came back
        # Every cell ran exactly once: re-leased units were re-delivered.
        assert worker.units_executed == summary.units
        carried = {1: set(), 2: set()}
        for index, message in sent:
            if message["type"] != "results":
                continue
            carried[index].update(message["skeletons"])
            named = {
                entry["row"]["skeleton"] for entry in message["results"]
                if entry["status"] == "ok"
            }
            assert named <= carried[index]
        assert carried[1] and carried[2]
        assert solo_records(SMOKE_SPEC, str(tmp_path)) \
            == solo_records(SMOKE_SPEC, None)


class TestGrantCrashes:
    def test_worker_dying_mid_grant_regrants_the_rest(self, tmp_path):
        # The mortal worker is alone when it fetches, so its grant is the
        # fair share of all 10 pending units (5).  It runs 2, dies on the
        # 3rd, and never delivers: the whole grant is released -- the 3
        # units it never started included -- and each comes back alone.
        coordinator = Coordinator(
            SMOKE_SPEC, cache_dir=str(tmp_path), lease_s=10.0,
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


class TestSilentWorker:
    def test_silent_connected_worker_loses_its_lease_at_expiry(
        self, tmp_path
    ):
        # A worker that takes a grant and then goes quiet with its socket
        # still open is never disconnected: the lease alone bounds it.
        # Its unit comes back at expiry and a healthy worker runs it as
        # attempt 2.
        coordinator = Coordinator(
            SMOKE_SPEC, cache_dir=str(tmp_path), lease_s=1.0,
            policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
            max_grant=1,
        )
        port = coordinator.start()
        leases = []

        class Recording(Worker):
            def run_grant(self, grant):
                leases.extend(
                    (lease["unit"]["unit_id"], lease["attempt"])
                    for lease in grant
                )
                return super().run_grant(grant)

        silent = FrameTransport(
            socket.create_connection(("127.0.0.1", port), timeout=5.0)
        )
        codes = []
        try:
            silent.send({
                "type": "hello", "name": "silent",
                "proto": PROTOCOL_VERSION,
            })
            assert silent.recv(timeout=5.0)["type"] == "welcome"
            silent.send({"type": "fetch"})
            grant = silent.recv(timeout=5.0)
            assert grant["type"] == "grant"
            assert len(grant["leases"]) == 1
            held = grant["leases"][0]["unit"]["unit_id"]
            worker = Recording("127.0.0.1", port, name="healthy")
            thread = threading.Thread(
                target=lambda: codes.append(worker.run()), daemon=True
            )
            thread.start()
            summary = coordinator.run(timeout=60.0, linger_s=0.5)
            thread.join(timeout=10.0)
        finally:
            silent.close()
            coordinator.stop()
        assert codes == [0]
        assert [attempt for unit, attempt in leases if unit == held] == [2]
        assert coordinator.table.overruns == {"silent": 1}
        assert summary.complete
        assert summary.expired == 1
        assert summary.quarantined == [] and summary.conflicts == []
        assert summary.committed == summary.units
        assert solo_records(SMOKE_SPEC, str(tmp_path)) \
            == solo_records(SMOKE_SPEC, None)


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


def _tamper_doc(row, vector, skeletons):
    """A row whose skeleton is sound but whose document is no run."""
    bad, skeleton, values = split_row({
        "version": -1, "garbage": True,
        **{field: row[field] for field in ROW_FIELDS},
    })
    bad["skeleton"] = skeleton_ref(skeleton)
    return bad, values.astype("<f8").tobytes(), {bad["skeleton"]: skeleton}


def _unknown_skeleton(row, vector, skeletons):
    return row, vector, {}


def _skeleton_off_its_ref(row, vector, skeletons):
    ref = row["skeleton"]
    return row, vector, {ref: dict(skeletons[ref], forged=True)}


def _vector_too_long(row, vector, skeletons):
    return row, vector + vector[:8], skeletons


def _foreign_workload(row, vector, skeletons):
    return dict(row, workload_ref="0" * 32), vector, skeletons


def _foreign_platform(row, vector, skeletons):
    return dict(row, platform_ref="0" * 32), vector, skeletons


class TestResultValidation:
    """A delivered row that fails validation never commits: the attempt
    is charged, ``dist.result_decode_errors`` counts it, nothing reaches
    the cache or the store, and the unit comes back alone at attempt 2."""

    def _deliver_bad_row(self, tmp_path, tamper):
        registry = obs.MetricsRegistry()
        obs.enable_metrics(registry)
        coordinator = Coordinator(
            SMOKE_SPEC, cache_dir=str(tmp_path),
            policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        )
        cells = dict(
            (unit.unit_id, cell) for unit, cell in unit_cells(
                SMOKE_SPEC.build_campaign(), coordinator.fingerprint
            )
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
                skeletons = {}
                row, vector = wire_row(
                    _execute_cell_attempt(cells[unit_id], 1), skeletons
                )
                row, vector, skeletons = tamper(row, vector, skeletons)
                transport.send({
                    "type": "results", "skeletons": skeletons,
                    "results": [{
                        "status": "ok", "unit_id": unit_id,
                        "lease_id": lease["lease_id"], "row": row,
                        "vector": 0,
                    }],
                    "tail": [vector],
                })
                transport.send({"type": "fetch"})
                retry = transport.recv(timeout=5.0)
                assert retry["type"] == "grant"
                assert [entry["unit"]["unit_id"]
                        for entry in retry["leases"]] == [unit_id]
                assert retry["leases"][0]["attempt"] == 2
                assert coordinator.table.progress()["committed"] == 0
            finally:
                transport.close()
        finally:
            coordinator.run(timeout=0.0)  # stops, commits store rows
            obs.disable_metrics()
        assert registry.counter("dist.result_decode_errors").value == 1
        key = coordinator.table.unit(unit_id).key
        assert RunCache(str(tmp_path)).get(key) is None
        assert len(ResultStore(tmp_path / "store")) == 0

    def test_malformed_doc_charges_attempt_and_retries(self, tmp_path):
        # A row whose joined document fails deserialization must NOT
        # terminally commit the unit (checkpoint would then claim a cell
        # that has no cached result).
        self._deliver_bad_row(tmp_path, _tamper_doc)

    @pytest.mark.parametrize("tamper", [
        _unknown_skeleton, _skeleton_off_its_ref, _vector_too_long,
        _foreign_workload, _foreign_platform,
    ], ids=lambda fn: fn.__name__.strip("_"))
    def test_bad_row_charges_attempt_and_retries(self, tmp_path, tamper):
        self._deliver_bad_row(tmp_path, tamper)


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

    @pytest.mark.parametrize("proto", [2, 3, 4])
    def test_older_protocol_worker_rejected_at_hello(self, tmp_path, proto):
        # A protocol-2, -3 or -4 worker frames its hello as bare JSON
        # (2 and 3 with a seq stamp -- still the bare form) and can read
        # the bare reject it gets.
        coordinator = Coordinator(SMOKE_SPEC, cache_dir=str(tmp_path))
        port = coordinator.start()
        try:
            sock = socket.create_connection(("127.0.0.1", port),
                                            timeout=5.0)
            try:
                hello = json.dumps({
                    "type": "hello", "name": "old", "proto": proto,
                    "seq": 1,
                }).encode("utf-8")
                sock.sendall(len(hello).to_bytes(4, "big") + hello)
                length = int.from_bytes(sock.recv(4), "big")
                payload = b""
                while len(payload) < length:
                    payload += sock.recv(length - len(payload))
                reply = json.loads(payload)
                assert reply["type"] == "reject"
                assert f"protocol {proto} unsupported" in reply["reason"]
            finally:
                sock.close()
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
