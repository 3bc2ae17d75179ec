"""Campaign checkpointing: crash-tolerant progress records.

The disk tier of the :class:`~repro.runtime.cache.RunCache` already
persists every finished cell, so a killed campaign loses no *results*.
What it loses without this module is campaign-level state: which campaign
was running, how far it got, and -- crucially -- which cells were
**quarantined** (a quarantined cell has no cache entry, so a naive rerun
would grind through all of its doomed attempts again).  A
:class:`Checkpointer` persists exactly that, atomically, into
``<cache_dir>/checkpoints/<fingerprint>.json``; ``repro campaign
--resume`` loads it, restores the quarantine ledger, and lets the run
cache skip everything that already finished.

:func:`campaign_fingerprint` names the checkpoint file by the campaign's
*content* (platform, baseline, targets, workloads, config, and the active
fault plan), so resuming with a different campaign -- or the same one
under a different fault plan -- can never pick up the wrong file.

Checkpoints are additionally scoped by an optional **job id**: two
*concurrent* jobs running the *same* campaign (twin CLI invocations, or
two ``repro serve`` jobs coalescing was unable to merge) share a
fingerprint, and with a single path they would silently clobber each
other's atomic checkpoint -- each ``os.replace`` wins the file for a
progress count the other job immediately overwrites.  A job id gives each
writer its own document (``<fingerprint>.<job_id>.json``); the empty id
(the historical single-writer path) is unchanged, so existing checkpoints
keep resuming.

Checkpoint documents that fail to parse are deleted on load (counted via
``runtime.cache_recovered``, like any other cache-dir recovery) and
treated as "no checkpoint": a truncated write from a SIGKILL degrades to
a fresh start, never an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.faults.plan import active_fault_plan
from repro.obs.metrics import metrics
from repro.runtime.executor import FailedCell

CHECKPOINT_VERSION = 1
"""Schema version of the checkpoint document."""


def campaign_fingerprint(campaign) -> str:
    """Content hash identifying one campaign (and its fault plan)."""
    baseline = campaign.baseline or campaign.platform.local_target()
    plan = active_fault_plan()
    payload = {
        "name": campaign.name,
        "platform": campaign.platform.name,
        "baseline": baseline.name,
        "targets": [t.name for t in campaign.targets],
        "workloads": [w.name for w in campaign.workloads],
        "config": repr(campaign.config),
        "fault_plan": (
            plan.key() if plan is not None and plan.enabled else None
        ),
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


@dataclass
class Checkpointer:
    """Periodic, atomic campaign-progress persistence.

    The engine calls :meth:`tick` once per newly executed cell (or
    sub-batch); every ``every`` completions the document is rewritten via
    the same temp-file + ``os.replace`` discipline the run cache uses, so
    a kill mid-write leaves the previous checkpoint intact.
    """

    cache_dir: str
    fingerprint: str
    name: str = ""
    total_cells: int = 0
    every: int = 16
    completed: int = 0
    job_id: str = ""
    writes: int = field(default=0, init=False)
    _since_write: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ConfigurationError("checkpoint interval must be >= 1")
        _validate_job_id(self.job_id)

    @property
    def path(self) -> str:
        return checkpoint_path(self.cache_dir, self.fingerprint, self.job_id)

    def tick(self, completed_cells: int, failed: List[FailedCell]) -> None:
        """Account newly executed cells; write when the interval elapses."""
        self.completed += completed_cells
        self._since_write += completed_cells
        if self._since_write >= self.every:
            self.write(failed)

    def flush(self, failed: List[FailedCell]) -> None:
        """Persist any progress accumulated since the last write."""
        if self._since_write > 0:
            self.write(failed)

    def finalize(self, failed: List[FailedCell]) -> None:
        """Mark the campaign complete (resume then only serves quarantine)."""
        self.write(failed, complete=True)

    def write(
        self, failed: List[FailedCell], complete: bool = False
    ) -> None:
        """Atomically rewrite the checkpoint document."""
        document = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "name": self.name,
            "total_cells": self.total_cells,
            "completed_cells": self.completed,
            "complete": complete,
            "failed": [record.to_dict() for record in failed],
        }
        if self.job_id:
            document["job_id"] = self.job_id
        path = self.path
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            with open(tmp, "w") as handle:
                handle.write(json.dumps(document))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            # The rename itself lives in the directory: without flushing
            # the directory entry, a power cut after os.replace can
            # resurrect the *previous* checkpoint -- or, for a first
            # write, no file at all -- despite the data blocks being
            # safely on disk.
            _fsync_directory(os.path.dirname(path))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._since_write = 0
        self.writes += 1
        metrics().counter("runtime.checkpoints_written").inc()


def _fsync_directory(directory: str) -> None:
    """Flush a directory's entries to disk (durable rename).

    Platforms whose directory fds reject ``fsync`` (or lack
    ``O_DIRECTORY``) degrade to the pre-durability behavior rather than
    failing the checkpoint write.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(directory, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class CheckpointState:
    """A loaded checkpoint document."""

    fingerprint: str
    name: str
    total_cells: int
    completed_cells: int
    complete: bool
    failed: tuple

    @classmethod
    def from_dict(cls, data: dict) -> "CheckpointState":
        if int(data.get("version", -1)) != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {data.get('version')!r}"
            )
        return cls(
            fingerprint=str(data["fingerprint"]),
            name=str(data.get("name", "")),
            total_cells=int(data.get("total_cells", 0)),
            completed_cells=int(data.get("completed_cells", 0)),
            complete=bool(data.get("complete", False)),
            failed=tuple(
                FailedCell.from_dict(record)
                for record in data.get("failed", [])
            ),
        )


_JOB_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def _validate_job_id(job_id: str) -> None:
    if job_id and not _JOB_ID_RE.match(job_id):
        raise ConfigurationError(
            f"job id {job_id!r} must match [A-Za-z0-9._-]{{1,64}}"
        )


def checkpoint_path(
    cache_dir: str, fingerprint: str, job_id: str = ""
) -> str:
    """Where a campaign's checkpoint document lives.

    ``job_id`` scopes concurrent same-fingerprint jobs onto distinct
    files; the empty id is the historical single-writer path.
    """
    _validate_job_id(job_id)
    stem = f"{fingerprint}.{job_id}" if job_id else fingerprint
    return os.path.join(cache_dir, "checkpoints", f"{stem}.json")


def load_checkpoint(
    cache_dir: str, fingerprint: str, job_id: str = ""
) -> Optional[CheckpointState]:
    """Load a checkpoint, or ``None`` when absent (or unreadably corrupt).

    A document that exists but cannot parse is deleted -- it can never
    load again -- and counted as a cache-dir recovery.
    """
    path = checkpoint_path(cache_dir, fingerprint, job_id)
    try:
        with open(path, "r") as handle:
            data = json.load(handle)
        return CheckpointState.from_dict(data)
    except OSError:
        return None
    except (ValueError, KeyError, TypeError):
        try:
            os.unlink(path)
            metrics().counter("runtime.cache_recovered").inc()
        except OSError:
            pass
        return None
