"""The analytic row encoder against its oracle, ``split_row(run_document)``."""

import numpy as np
import pytest

from repro.cpu.pipeline import run_workloads
from repro.dist.coordinator import unit_cells
from repro.dist.spec import CampaignSpec
from repro.runtime.cache import run_document
from repro.store import skeleton_ref
from repro.store.store import encode_row, split_row


@pytest.fixture(scope="module")
def shipped_runs():
    """Every run of the shipped 1325-cell campaign, batched."""
    campaign = CampaignSpec(
        platform="EMR2S", targets=("numa", "cxl-a", "cxl-b", "cxl-d"),
        name="cli",
    ).build_campaign()
    cells = [cell for _, cell in unit_cells(campaign, "unused")]
    return run_workloads([
        (cell.workload, cell.platform, cell.target, cell.config)
        for cell in cells
    ])


def test_every_shipped_row_equals_the_oracle(shipped_runs):
    assert len(shipped_runs) == 1325
    refs = set()
    for result in shipped_runs:
        row, ref, skeleton, vector = encode_row(result)
        want_row, want_skeleton, want_vector = split_row(
            run_document(result)
        )
        assert row == want_row
        assert skeleton == want_skeleton
        assert ref == skeleton_ref(want_skeleton)
        assert vector.dtype == np.float64
        assert vector.tobytes() == want_vector.tobytes()
        refs.add(ref)
    assert len(refs) == 5  # the campaign's document shapes


def test_unusual_leaves_fall_back_to_the_oracle(shipped_runs):
    import dataclasses

    base = shipped_runs[0]
    for changed in (
        dataclasses.replace(base, target_name=""),  # stays in skeleton
        dataclasses.replace(base, instructions=2 ** 60),  # literal int
        dataclasses.replace(base, cycles=np.float64(base.cycles)),
    ):
        row, ref, skeleton, vector = encode_row(changed)
        want_row, want_skeleton, want_vector = split_row(
            run_document(changed)
        )
        assert (row, skeleton, ref) == (
            want_row, want_skeleton, skeleton_ref(want_skeleton)
        )
        assert vector.tobytes() == want_vector.tobytes()
