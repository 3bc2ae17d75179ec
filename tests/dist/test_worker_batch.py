"""The dist worker runs each grant as one batch.

A grant's fresh units go through one ``run_workloads`` call, yet every
entry must carry exactly the row the solo engine's per-cell path
encodes, per-lease sabotage must charge only its own unit, and a batch
that raises must fall back to one cell at a time.  The unit order is
what makes the batch pay: grid units come target-major, so a grant
mostly holds one target group.
"""

import pytest

import repro.dist.worker as worker_module
from repro.core.melody import campaign_cells
from repro.dist.coordinator import MAX_GRANT, grant_size, unit_cells
from repro.dist.harness import SMOKE_SPEC
from repro.dist.spec import CampaignSpec
from repro.dist.worker import Worker, wire_row
from repro.faults.chaos import ChaosPolicy
from repro.runtime.checkpoint import campaign_fingerprint
from repro.runtime.executor import _execute_cell, _execute_cell_attempt

SHIPPED_SPEC = CampaignSpec(
    platform="EMR2S", targets=("numa", "cxl-a", "cxl-b", "cxl-d"),
    name="cli",
)
"""The campaign behind ``data/emr_campaign.{csv,json}`` (1325 units)."""


def adopted(spec):
    """A worker that adopted ``spec``'s welcome, and its unit cells."""
    campaign = spec.build_campaign()
    fingerprint = campaign_fingerprint(campaign)
    worker = Worker("127.0.0.1", 0, name="batch")
    worker.adopt_welcome({"fingerprint": fingerprint, "spec": spec.to_dict()})
    return worker, campaign, unit_cells(campaign, fingerprint)


def grant_of(pairs, attempt=1):
    """Leases for ``(unit, cell)`` pairs, as a grant frame carries them."""
    return [
        {"lease_id": f"L{i}", "attempt": attempt, "unit": unit.descriptor()}
        for i, (unit, _) in enumerate(pairs)
    ]


def lone_worker_grants(units):
    """The unit runs a lone worker is granted, in order."""
    grants, lo = [], 0
    while lo < len(units):
        size = grant_size(len(units) - lo, 1)
        grants.append(units[lo:lo + size])
        lo += size
    return grants


@pytest.fixture(scope="module")
def shipped():
    return adopted(SHIPPED_SPEC)


class TestBatchedRows:
    def test_first_grants_match_the_per_cell_path(self, shipped):
        worker, _, pairs = shipped
        first_grid = next(
            i for i, (unit, _) in enumerate(pairs) if unit.kind == "grid"
        )
        baseline = pairs[:MAX_GRANT]
        grid = pairs[first_grid:first_grid + MAX_GRANT]
        assert {unit.kind for unit, _ in baseline} == {"baseline"}
        assert {unit.kind for unit, _ in grid} == {"grid"}
        skeletons = {}
        for grant in (baseline, grid):
            entries = worker.run_grant(grant_of(grant))
            assert len(entries) == len(grant)
            for (unit, cell), (entry, vector) in zip(grant, entries):
                assert entry["unit_id"] == unit.unit_id
                assert entry["status"] == "ok"
                row, expected = wire_row(
                    _execute_cell_attempt(cell, 1), skeletons
                )
                assert entry["row"] == row
                assert vector == expected
            # One batch: every fresh unit reports the same time share.
            assert len({entry["elapsed_s"] for entry, _ in entries}) == 1
        assert worker.units_executed == 2 * MAX_GRANT

    def test_regranted_units_come_from_the_memo(self):
        worker, _, pairs = adopted(SMOKE_SPEC)
        grant = grant_of(pairs[:4])
        first = worker.run_grant(grant)
        again = worker.run_grant(grant_of(pairs[:4], attempt=2))
        assert worker.units_executed == 4
        assert [vector for _, vector in again] \
            == [vector for _, vector in first]
        assert {entry["elapsed_s"] for entry, _ in again} == {0.0}


class TestPerUnitFailures:
    def test_doomed_unit_mid_grant_is_the_only_error(self):
        worker, _, pairs = adopted(SMOKE_SPEC)
        grant = pairs[:5]
        doomed = grant[2][0]
        worker.cell_chaos = ChaosPolicy(doomed=(doomed.key,))
        entries = worker.run_grant(grant_of(grant))
        errors = [entry for entry, _ in entries if entry["status"] != "ok"]
        assert [entry["unit_id"] for entry in errors] == [doomed.unit_id]
        assert "ChaosError" in errors[0]["message"]
        assert entries[2][1] is None
        assert all(
            vector is not None
            for i, (_, vector) in enumerate(entries) if i != 2
        )
        assert worker.units_executed == 4

    def test_raising_batch_falls_back_to_one_cell_at_a_time(
        self, monkeypatch
    ):
        worker, _, pairs = adopted(SMOKE_SPEC)
        grant = pairs[:5]
        broken = grant[3][0].key

        def batch_raises(cells):
            raise RuntimeError("batched solve failed")

        def one_cell(cell):
            if cell.key() == broken:
                raise ValueError("this cell cannot run")
            return _execute_cell(cell)

        monkeypatch.setattr(worker_module, "run_workloads", batch_raises)
        monkeypatch.setattr(worker_module, "_execute_cell", one_cell)
        entries = worker.run_grant(grant_of(grant))
        assert [entry["status"] for entry, _ in entries] \
            == ["ok", "ok", "ok", "error", "ok"]
        assert entries[3][0]["message"] \
            == "ValueError: this cell cannot run"
        skeletons = {}
        for (_, cell), (entry, vector) in zip(grant, entries):
            if entry["status"] == "ok":
                row, expected = wire_row(_execute_cell(cell), skeletons)
                assert (entry["row"], vector) == (row, expected)
        assert worker.units_executed == 4


class TestTargetMajorUnits:
    def test_units_cover_campaign_cells_baselines_first(self, shipped):
        _, campaign, pairs = shipped
        base_workloads, grid, _ = campaign_cells(campaign)
        kinds = [unit.kind for unit, _ in pairs]
        assert kinds == ["baseline"] * len(base_workloads) \
            + ["grid"] * len(grid)
        assert {
            (unit.workload, unit.target) for unit, _ in pairs
            if unit.kind == "grid"
        } == {(workload.name, target.name) for workload, target in grid}
        assert [unit.workload for unit, _ in pairs
                if unit.kind == "baseline"] \
            == [workload.name for workload in base_workloads]

    def test_grid_units_are_target_major_in_campaign_order(self, shipped):
        _, campaign, pairs = shipped
        _, grid, _ = campaign_cells(campaign)
        order = [(unit.workload, unit.target) for unit, _ in pairs
                 if unit.kind == "grid"]
        assert order == [
            (workload.name, target.name)
            for wanted in campaign.targets
            for workload, target in grid if target is wanted
        ]

    def test_full_grid_grants_name_one_target(self, shipped):
        # A lone worker's 32-unit grid grants each hold one target
        # group, except the few that straddle a target boundary.
        _, campaign, pairs = shipped
        full = [
            grant for grant in lone_worker_grants([u for u, _ in pairs])
            if len(grant) == MAX_GRANT
            and all(unit.kind == "grid" for unit in grant)
        ]
        names = [{unit.target for unit in grant} for grant in full]
        straddling = [targets for targets in names if len(targets) > 1]
        assert len(full) > 20
        assert all(len(targets) == 2 for targets in straddling)
        assert len(straddling) <= len(campaign.targets) - 1
