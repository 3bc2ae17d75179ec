"""Differential test: :class:`LeaseTable` against a brute-force model.

The table keeps incremental counts, a leased-unit index and a grant
cursor; the reference model below keeps nothing but one dict per unit
and rescans everything on every call.  Seeded event sequences (grant,
commit, duplicate, conflict, fail, expire, release_worker) on a fake
clock drive both, and after every step the two must agree on every
grant, verdict and reaped lease, and:

* ``done`` (and ``progress``) equal a full recount of the unit states;
* a unit with an already-charged attempt is granted alone;
* only the doomed unit quarantines -- the worker that meets it errors,
  hangs or dies on it, and the healthy units granted beside it lose at
  most that one attempt.

Healthy workers deliver before their deadlines; only a worker stuck on
the doomed unit lets leases expire.
"""

import pytest

from repro.dist.lease import LeaseTable, WorkUnit
from repro.rng import generator_for
from repro.runtime.executor import RetryPolicy

LEASE_S = 10.0
WORKERS = ("w0", "w1", "w2")
UNITS = 12
DOOMED = "u5"
EVENTS = ("grant", "commit", "duplicate", "conflict", "fail", "expire",
          "release_worker")


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class Model:
    """The lease rules, restated as plainly as possible."""

    def __init__(self, ids, policy, clock):
        self.ids, self.policy, self.clock = list(ids), policy, clock
        self.s = {u: {"status": "pending", "attempts": 0, "ready": 0.0,
                      "lease": None, "digest": None} for u in ids}
        self.grants = 0

    def grant(self, worker, limit):
        now, out = self.clock(), []
        for uid in self.ids:
            s = self.s[uid]
            if len(out) == limit:
                break
            if s["status"] != "pending" or s["ready"] > now:
                continue
            self.grants += 1
            s["attempts"] += 1
            s["status"] = "leased"
            s["lease"] = (f"L{self.grants}", worker,
                          now + LEASE_S * (len(out) + 1))
            out.append((uid, s["lease"][0], s["attempts"], s["lease"][2]))
            if s["attempts"] > 1:
                break
        return out

    def settle(self, uid):
        s = self.s[uid]
        s["lease"] = None
        if s["attempts"] >= self.policy.max_attempts:
            s["status"] = "quarantined"
        else:
            s["status"] = "pending"
            s["ready"] = self.clock() + self.policy.backoff_s(
                f"key-{uid}", s["attempts"])

    def commit(self, uid, lease_id, worker, digest):
        s = self.s[uid]
        if s["status"] == "committed":
            return "duplicate" if s["digest"] == digest else "conflict"
        verdict = "committed"
        if s["status"] == "quarantined":
            verdict = "resurrected"
        elif s["status"] == "pending" or s["lease"][:2] != (lease_id, worker):
            verdict = "late"
        s.update(status="committed", digest=digest, lease=None)
        return verdict

    def fail(self, uid, lease_id, worker):
        s = self.s[uid]
        if s["status"] != "leased" or s["lease"][:2] != (lease_id, worker):
            return False
        self.settle(uid)
        return True

    def expire(self):
        now, reaped = self.clock(), []
        for uid in self.ids:
            lease = self.s[uid]["lease"]
            if lease is not None and now >= lease[2]:
                reaped.append(lease[0])
                self.settle(uid)
        return sorted(reaped)

    def release(self, worker):
        held = [u for u in self.ids if self.s[u]["lease"] is not None
                and self.s[u]["lease"][1] == worker]
        released = sorted(self.s[u]["lease"][0] for u in held)
        for uid in held:
            self.settle(uid)
        return released


def units():
    return [
        WorkUnit(unit_id=f"u{i}", kind="grid", workload=f"w{i}",
                 target="CXL-A", key=f"key-u{i}", platform="EMR2S")
        for i in range(UNITS)
    ]


def recount(table):
    counts = {"pending": 0, "leased": 0, "committed": 0, "quarantined": 0}
    for state in table._states:
        counts[state.status] += 1
    return counts


def run_sequence(seed, steps=250):
    rng = generator_for(seed, "lease-model")
    clock = FakeClock()
    policy = RetryPolicy(max_attempts=3, backoff_base_s=0.5,
                         backoff_max_s=2.0, jitter_frac=0.25, seed=seed)
    table = LeaseTable(units(), policy=policy, lease_s=LEASE_S, clock=clock)
    model = Model([u.unit_id for u in units()], policy, clock)
    held = {w: {} for w in WORKERS}  # worker -> {unit_id: lease_id}
    hung = set()
    stale = []  # (unit_id, lease_id, worker) of settled leases

    def drop_settled(lease_ids):
        for worker, leases in held.items():
            for uid, lid in list(leases.items()):
                if lid in lease_ids:
                    stale.append((uid, lid, worker))
                    del leases[uid]
            if not leases:
                hung.discard(worker)

    def deliver(uid, lid, worker):
        digest = f"d-{uid}"
        assert table.commit(uid, lid, worker, digest) \
            == model.commit(uid, lid, worker, digest)
        held[worker].pop(uid, None)

    def holder_of_doomed():
        for worker, leases in held.items():
            if DOOMED in leases:
                return worker
        return None

    for _ in range(steps):
        event = EVENTS[int(rng.integers(len(EVENTS)))]
        committed = sorted(table.committed_keys())
        doomed_holder = holder_of_doomed()
        if event == "grant":
            idle = [w for w in WORKERS if not held[w]]
            if idle:
                worker = idle[int(rng.integers(len(idle)))]
                limit = int(rng.integers(1, 7))
                grant = table.acquire_many(worker, limit)
                got = [(l.unit_id, l.lease_id, l.attempt, l.deadline)
                       for l in grant]
                assert got == model.grant(worker, limit)
                assert len(grant) <= limit
                if any(lease.attempt > 1 for lease in grant):
                    assert len(grant) == 1, got
                held[worker] = {l.unit_id: l.lease_id for l in grant}
        elif event == "commit":
            # A healthy result, from the holder or from a stale lease.
            choices = [(u, l, w) for w in WORKERS
                       for u, l in held[w].items() if u != DOOMED]
            choices += [s for s in stale if s[0] != DOOMED]
            if choices:
                deliver(*choices[int(rng.integers(len(choices)))])
        elif event in ("duplicate", "conflict") and committed:
            key = committed[int(rng.integers(len(committed)))]
            uid = key[len("key-"):]
            digest = f"d-{uid}" if event == "duplicate" else "evil"
            worker = WORKERS[int(rng.integers(len(WORKERS)))]
            verdict = table.commit(uid, "L0", worker, digest)
            assert verdict == model.commit(uid, "L0", worker, digest)
            assert verdict == event
        elif event == "fail" and doomed_holder is not None:
            lid = held[doomed_holder][DOOMED]
            assert table.fail(DOOMED, lid, doomed_holder, "error", "boom")
            assert model.fail(DOOMED, lid, doomed_holder)
            drop_settled({lid})
        elif event == "expire":
            # The doomed unit's holder hangs on it; everyone else is
            # healthy and delivers whatever would otherwise expire.
            if doomed_holder is not None:
                hung.add(doomed_holder)
                clock.now = model.s[DOOMED]["lease"][2]
            else:
                clock.now += float(rng.uniform(0.0, LEASE_S / 2))
            for worker in WORKERS:
                if worker in hung:
                    continue
                for uid, lid in list(held[worker].items()):
                    lease = model.s[uid]["lease"]
                    if lease is None or lease[2] <= clock.now:
                        deliver(uid, lid, worker)
            reaped = sorted(l.lease_id for l in table.expire())
            assert reaped == model.expire()
            drop_settled(set(reaped))
        elif event == "release_worker" and doomed_holder is not None:
            # The worker dies on the doomed unit.
            released = sorted(
                l.lease_id for l in table.release_worker(doomed_holder))
            assert released == model.release(doomed_holder)
            drop_settled(set(released))

        counts = recount(table)
        assert table.progress() == counts
        assert table.done == (counts["committed"] + counts["quarantined"]
                              == UNITS)
        for uid, s in model.s.items():
            assert s["status"] == table._units[uid].status, (uid, event)
        assert [f.key for f in table.quarantined()] in (
            [], [f"key-{DOOMED}"])
    return table


@pytest.mark.parametrize("seed", range(40))
def test_table_matches_reference_model(seed):
    run_sequence(seed)


def test_sequences_reach_every_interesting_state():
    # The generator is only useful if it actually drives the table
    # through retries, quarantine, stale deliveries and conflicts.
    totals = {}
    for seed in range(40):
        for name, value in run_sequence(seed).counters.items():
            totals[name] = totals.get(name, 0) + value
    for name in ("expired", "released", "failed", "late_commits",
                 "duplicates", "conflicts", "quarantined"):
        assert totals[name] > 0, (name, totals)
