"""Campaign checkpointing: the quarantine ledger a run cache cannot hold.

The :class:`~repro.runtime.cache.RunCache` is a campaign's progress
record: the engine caches every result the moment it exists, so a killed
campaign loses at most the serial cell or fused batch in flight, and a
rerun over the same cache dir skips everything that finished.  What the
cache cannot hold is which cells were **quarantined** (a quarantined
cell has no cache entry, so a naive rerun would grind through all of its
doomed attempts again).  A :class:`Checkpointer` persists exactly that,
atomically, into ``<cache_dir>/checkpoints/<fingerprint>.json``: the
engine rewrites it whenever it quarantines a cell, and the CLI writes it
once more at campaign end, marked complete.  ``repro campaign --resume``
loads it and restores the quarantine ledger.

:func:`campaign_fingerprint` names the checkpoint file by the campaign's
*content* (platform, baseline, targets, workloads, config, and the active
fault plan), so resuming with a different campaign -- or the same one
under a different fault plan -- can never pick up the wrong file.

Checkpoints are additionally scoped by an optional **job id**: two
*concurrent* jobs running the *same* campaign (twin CLI invocations, or
two ``repro serve`` jobs coalescing was unable to merge) share a
fingerprint, and with a single path they would silently clobber each
other's atomic checkpoint -- each ``os.replace`` wins the file for a
quarantine ledger the other job immediately overwrites.  A job id gives
each writer its own document (``<fingerprint>.<job_id>.json``); the
empty id (the historical single-writer path) is unchanged, so existing
checkpoints keep resuming.

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
from dataclasses import dataclass
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
    """Atomic persistence of one campaign's quarantine ledger.

    Every write rewrites the whole document via a temp file, ``fsync``
    and ``os.replace`` (then ``fsync`` of the directory), so a kill
    mid-write leaves the previous checkpoint intact.
    """

    cache_dir: str
    fingerprint: str
    name: str = ""
    job_id: str = ""

    def __post_init__(self) -> None:
        _validate_job_id(self.job_id)

    @property
    def path(self) -> str:
        return checkpoint_path(self.cache_dir, self.fingerprint, self.job_id)

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
    complete: bool
    failed: tuple

    @classmethod
    def from_dict(cls, data: dict) -> "CheckpointState":
        """Parse a document; keys this version does not read are ignored
        (older writers also recorded completed-cell counts)."""
        if int(data.get("version", -1)) != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {data.get('version')!r}"
            )
        return cls(
            fingerprint=str(data["fingerprint"]),
            name=str(data.get("name", "")),
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
