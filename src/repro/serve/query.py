"""Characterization queries: the service's unit of work.

A query names a device and a list of operating points, plus an optional
fault plan (and, when the server allows it, an error-only chaos policy
for resilience drills).  Two properties make queries the coalescing
currency:

* :meth:`Query.key` is a **content hash** over the canonical JSON of the
  behaviour-determining fields -- two requests that mean the same
  characterization get the same key no matter how their JSON was
  spelled, so the coalescer can merge them onto one execution;
* :func:`render_document` is **deterministic** -- sorted keys, compact
  separators, shortest-round-trip floats -- so every subscriber of a
  coalesced job receives byte-identical payloads, and those bytes equal
  what a solo ``repro serve --oneshot`` run of the same query prints.
  The serve test suite and the benchmark both assert this identity
  before trusting any qps number.

Execution goes through a :class:`~repro.runtime.executor.CampaignEngine`
point by point (identical results to any batching -- the engine
guarantees that -- but it gives the server natural per-point progress
events).  A quarantined point degrades to an ``error`` object inside the
response document; it never fails the query, let alone the server.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import MelodyError
from repro.faults.chaos import ChaosPolicy, chaos_injection
from repro.faults.plan import FaultPlan, fault_injection
from repro.rng import DEFAULT_SEED
from repro.runtime.cache import RunCache
from repro.runtime.executor import CampaignEngine, RetryPolicy, SimCell

MAX_POINTS = 64
"""Most operating points one query may sweep."""

MAX_REQUESTS_PER_POINT = 5_000_000
"""Largest simulated request count one point may ask for."""

DEFAULT_N_REQUESTS = 20_000
"""Simulated requests per point when the query does not say."""


class QueryError(MelodyError):
    """A request body that does not describe a valid query (HTTP 400)."""


@dataclass(frozen=True)
class QueryPoint:
    """One operating point of the sweep."""

    offered_gbps: float
    n_requests: int
    read_fraction: float

    def to_dict(self) -> Dict[str, object]:
        """Canonical form (feeds both the key and the response)."""
        return {
            "offered_gbps": self.offered_gbps,
            "n_requests": self.n_requests,
            "read_fraction": self.read_fraction,
        }


@dataclass(frozen=True)
class Query:
    """A parsed, validated characterization query."""

    device: str
    points: Tuple[QueryPoint, ...]
    seed: int = DEFAULT_SEED
    fault_plan: Optional[FaultPlan] = None
    chaos: Optional[ChaosPolicy] = None

    def key(self) -> str:
        """Content-addressed identity (the coalescing key)."""
        plan = self.fault_plan
        payload = {
            "device": self.device,
            "points": [p.to_dict() for p in self.points],
            "seed": self.seed,
            "fault_plan": (
                plan.key() if plan is not None and plan.enabled else None
            ),
            "chaos": (
                _chaos_fingerprint(self.chaos)
                if self.chaos is not None else None
            ),
        }
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]

    def cells(self) -> List[SimCell]:
        """One sim cell per operating point."""
        return [
            SimCell(
                device=self.device,
                n_requests=point.n_requests,
                offered_gbps=point.offered_gbps,
                read_fraction=point.read_fraction,
                seed=self.seed,
            )
            for point in self.points
        ]


def _chaos_fingerprint(chaos: ChaosPolicy) -> Dict[str, object]:
    """The chaos fields that change what a sabotaged query returns."""
    return {
        "error_prob": chaos.error_prob,
        "max_sabotaged_attempt": chaos.max_sabotaged_attempt,
        "seed": chaos.seed,
    }


def _require_number(
    data: Dict[str, object], field: str, default: float,
    lo: float, hi: float,
) -> float:
    value = data.get(field, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QueryError(f"query field {field!r} must be a number")
    value = float(value)
    if not lo <= value <= hi:
        raise QueryError(
            f"query field {field!r} must be in [{lo:g}, {hi:g}], "
            f"got {value:g}"
        )
    return value


def _parse_point(
    raw: object, defaults: Dict[str, object], index: int
) -> QueryPoint:
    if not isinstance(raw, dict):
        raise QueryError(f"points[{index}] must be an object")
    unknown = set(raw) - {"offered_gbps", "n_requests", "read_fraction"}
    if unknown:
        raise QueryError(
            f"points[{index}] has unknown field(s): {sorted(unknown)}"
        )
    merged = dict(defaults)
    merged.update(raw)
    if "offered_gbps" not in merged:
        raise QueryError(f"points[{index}] needs 'offered_gbps'")
    offered = _require_number(merged, "offered_gbps", 0.0, 1e-3, 1e3)
    n_requests = _require_number(
        merged, "n_requests", DEFAULT_N_REQUESTS, 1, MAX_REQUESTS_PER_POINT
    )
    if n_requests != int(n_requests):
        raise QueryError("'n_requests' must be an integer")
    read_fraction = _require_number(merged, "read_fraction", 1.0, 0.0, 1.0)
    return QueryPoint(
        offered_gbps=offered,
        n_requests=int(n_requests),
        read_fraction=read_fraction,
    )


def _parse_chaos(raw: object, allow_chaos: bool) -> ChaosPolicy:
    """An error-only chaos policy from the query's ``chaos`` object.

    Only ``error`` sabotage is ever constructible from a query: a kill
    would ``os._exit`` the *server* (inline workers share its process)
    and a hang would pin a worker slot, so both are refused regardless
    of ``allow_chaos`` -- the field names are rejected outright.
    """
    if not allow_chaos:
        raise QueryError(
            "query chaos is disabled; start the server with --allow-chaos"
        )
    if not isinstance(raw, dict):
        raise QueryError("query field 'chaos' must be an object")
    unknown = set(raw) - {"error_prob", "max_sabotaged_attempt", "seed"}
    if unknown:
        raise QueryError(
            f"chaos has unknown or forbidden field(s): {sorted(unknown)} "
            "(only error injection is allowed from a query)"
        )
    error_prob = _require_number(raw, "error_prob", 1.0, 0.0, 1.0)
    attempts = _require_number(raw, "max_sabotaged_attempt", 1_000_000,
                               0, 1_000_000)
    seed = _require_number(raw, "seed", 0, 0, 2**31)
    try:
        return ChaosPolicy(
            error_prob=error_prob,
            max_sabotaged_attempt=int(attempts),
            seed=int(seed),
        )
    except MelodyError as exc:
        raise QueryError(f"invalid chaos policy: {exc}") from None


def parse_query(data: object, allow_chaos: bool = False) -> Query:
    """Validate a decoded JSON body into a :class:`Query`.

    Every rejection is a :class:`QueryError` naming the offending field;
    the HTTP layer maps those to 400 responses.
    """
    if isinstance(data, (bytes, str)):
        try:
            data = json.loads(data)
        except ValueError as exc:
            raise QueryError(f"request body is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise QueryError("query must be a JSON object")
    known = {
        "device", "points", "n_requests", "read_fraction", "seed",
        "fault_plan", "chaos",
    }
    unknown = set(data) - known
    if unknown:
        raise QueryError(f"unknown query field(s): {sorted(unknown)}")

    from repro.hw.cxl import CXL_DEVICES

    device = data.get("device")
    if not isinstance(device, str) or not device:
        raise QueryError("query needs a 'device' name")
    device = device.upper()
    if device not in CXL_DEVICES:
        raise QueryError(
            f"unknown device {device!r}; "
            f"expected one of {sorted(CXL_DEVICES)}"
        )

    raw_points = data.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise QueryError("query needs a non-empty 'points' list")
    if len(raw_points) > MAX_POINTS:
        raise QueryError(
            f"too many points ({len(raw_points)} > {MAX_POINTS})"
        )
    defaults = {
        key: data[key]
        for key in ("n_requests", "read_fraction")
        if key in data
    }
    points = tuple(
        _parse_point(raw, defaults, index)
        for index, raw in enumerate(raw_points)
    )

    seed = _require_number(data, "seed", DEFAULT_SEED, 0, 2**31)
    if seed != int(seed):
        raise QueryError("'seed' must be an integer")

    plan = None
    if data.get("fault_plan") is not None:
        try:
            plan = FaultPlan.from_dict(data["fault_plan"])
        except MelodyError as exc:
            raise QueryError(f"invalid fault plan: {exc}") from None

    chaos = None
    if data.get("chaos") is not None:
        chaos = _parse_chaos(data["chaos"], allow_chaos)

    return Query(
        device=device,
        points=points,
        seed=int(seed),
        fault_plan=plan,
        chaos=chaos,
    )


# -- execution and rendering -----------------------------------------------


def build_engine(
    cache: Optional[RunCache] = None,
    retries: int = 2,
) -> CampaignEngine:
    """The per-job engine the server (and ``--oneshot``) executes with.

    Resilient attempts run inline in the job's worker thread: retry and
    quarantine semantics, and no fork.
    """
    return CampaignEngine(
        cache=cache if cache is not None else RunCache(),
        policy=RetryPolicy(max_attempts=retries),
    )


def _point_document(
    point: QueryPoint, result, failure
) -> Dict[str, object]:
    """The response object for one executed (or quarantined) point."""
    doc: Dict[str, object] = point.to_dict()
    if result is None:
        doc["error"] = {
            "reason": failure.reason if failure else "error",
            "message": failure.message if failure else "cell quarantined",
            "attempts": failure.attempts if failure else 0,
        }
        return doc
    doc.update(
        p50_ns=result.percentile(50),
        p90_ns=result.percentile(90),
        p99_ns=result.percentile(99),
        p999_ns=result.percentile(99.9),
        mean_ns=result.mean_ns,
        tail_gap_ns=result.tail_gap_ns(),
        bank_conflicts=result.bank_conflicts,
        refresh_collisions=result.refresh_collisions,
        link_retries=result.link_retries,
    )
    if result.fault_plan is not None:
        doc["faults"] = {
            "injected_retries": result.injected_retries,
            "poisoned_reads": result.poisoned_reads,
            "ecc_corrected": result.ecc_corrected,
            "throttled_requests": result.throttled_requests,
        }
    return doc


def execute_query(
    query: Query,
    engine: CampaignEngine,
    on_point: Optional[Callable[[int, Dict[str, object]], None]] = None,
) -> Dict[str, object]:
    """Run every point of ``query`` and assemble the response document.

    The query's fault plan and chaos policy install into the *current
    context* only (they are ContextVars), so concurrent jobs in other
    worker threads are untouched.  Cell keys are computed inside
    ``run_cells`` under that installation, which is what fault-keys the
    cache entries.  ``on_point`` fires after each point with its
    finished sub-document (the server's progress stream).
    """
    with ExitStack() as stack:
        if query.fault_plan is not None and query.fault_plan.enabled:
            stack.enter_context(fault_injection(query.fault_plan))
        if query.chaos is not None:
            stack.enter_context(chaos_injection(query.chaos))
        point_docs: List[Dict[str, object]] = []
        for index, (point, cell) in enumerate(
            zip(query.points, query.cells())
        ):
            before = len(engine.failed)
            result = engine.run_cells([cell])[0]
            failure = None
            if result is None:
                fresh = engine.failed[before:]
                failure = fresh[-1] if fresh else None
            doc = _point_document(point, result, failure)
            point_docs.append(doc)
            if on_point is not None:
                on_point(index, doc)
        # Promote this query's finished points into the columnar store
        # (no-op without --cache-dir).  Still inside the fault/chaos
        # installation: cell keys are fault-keyed exactly as run_cells
        # computed them.  Promotion is a side effect on the cache tier
        # only -- the response document and its bytes are unchanged.
        engine.cache.promote_store(
            query.key(), job_id="serve",
            keys=[cell.key() for cell in query.cells()],
        )
    plan = query.fault_plan
    return {
        "query_key": query.key(),
        "device": query.device,
        "seed": query.seed,
        "fault_plan": (
            plan.key() if plan is not None and plan.enabled else None
        ),
        "points": point_docs,
        "errors": sum(1 for doc in point_docs if "error" in doc),
    }


def render_document(document: Dict[str, object]) -> bytes:
    """Deterministic wire form: sorted keys, compact, one trailing LF.

    This is the byte-identity contract: the same document always renders
    to the same bytes, whoever renders it.
    """
    text = json.dumps(
        document, sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )
    return text.encode("utf-8") + b"\n"


def run_oneshot(
    data: object,
    cache_dir: Optional[str] = None,
    allow_chaos: bool = False,
    retries: int = 2,
) -> bytes:
    """Parse, execute and render one query exactly as the server would.

    This is the identity comparator the tests and CI smoke use: the
    bytes printed by ``repro serve --oneshot`` must equal the bytes any
    coalesced subscriber received for the same query.
    """
    query = parse_query(data, allow_chaos=allow_chaos)
    engine = build_engine(cache=RunCache(cache_dir), retries=retries)
    return render_document(execute_query(query, engine))
