"""Fused max-plus kernel for the event-driven CXL simulator.

The request pipeline in :mod:`repro.hw.cxl.eventdevice` is feed-forward
and draws all of its randomness before the event loop, so each contention
stage reduces to an array recurrence that NumPy can evaluate without a
per-request Python loop.  One kernel, :func:`batch_timeline`, evaluates
B >= 1 independent simulations ("cells") at once; a solo simulation is a
batch of one.

* **Serial resources** (inbound link, MC dispatch, outbound link) obey

      ``start[i] = max(entry[i], start[i-1] + service[i-1])``

  which, with ``shift[i] = sum(service[:i])`` hoisted out, becomes a
  *max-plus prefix scan*::

      start = np.maximum.accumulate(entry - shift) + shift

  The B cells' request streams stack as ``(B, n_max)`` rows, and
  ``maximum.accumulate`` over ``axis=1`` scans each row independently.

* **Banked DRAM**: all cells share one flat lane space (cell i's bank b
  becomes lane ``lane_offset[i] + b``), so one stable sort groups every
  request by lane.  Row-buffer outcomes (hit/miss/conflict) resolve from
  one forward-fill over the sorted order; the per-lane busy/refresh
  recurrence runs as a *lane-parallel rounds loop*: the k-th request of
  every lane forms one short NumPy row, so the Python-level loop runs
  ``max_requests_per_lane`` times over lane-wide vectors instead of
  ``n`` times over scalars.  Per-cell divisors (tREFI, refresh block)
  ride per-lane constant vectors.

Bit-identity contract
---------------------
The scalar reference loop in ``eventdevice`` performs the *same IEEE-754
operations in the same order* as this kernel: both read the shared
precomputed arrays in :class:`SimInputs` (shift tables, outbound service,
RNG draws), both use the max-plus form of each serial-resource update, and
both evaluate the bank stage in the refresh-phase-shifted time domain.
``np.maximum.accumulate`` and the rounds loop are strictly sequential in
their recurrence dimension, and elementwise ufuncs on stacked rows or
broadcast columns perform the identical operation per element, so the
scalar engine and the kernel return bit-identical latencies and event
counters for every cell, whatever its batch neighbours
(``eventsim-engine-identity`` and ``eventsim-batch-identity`` in the
``device`` diag layer, and the cross-engine test suite, enforce this).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

_LANE_PAD = 1e300
"""Entry-time sentinel for padded scan rows (ragged batches).

A padded slot behaves like a request arriving in the far future: a
left-to-right ``maximum.accumulate`` can never leak it into the real
prefix, so a short cell's trailing pads ride harmlessly at the end of its
row.  The rounds matrices pad with 0.0 instead, not with this sentinel:
the loop does compute padded slots (a group of rounds keeps its width
while at least half its lanes are live), and small magnitudes keep their
``% tREFI`` cheap.  A padded slot only extends its own lane's chain past
the lane's last request, and nothing reads it back.
"""


@dataclass(frozen=True)
class SimInputs:
    """Everything one simulation needs, precomputed once for every engine.

    All randomness is drawn before any engine runs, and the serial-
    resource shift tables are materialized here so the scalar loop and the
    kernel literally index the same arrays.
    """

    n: int
    n_banks: int
    # model constants
    flit_ns: float
    stack_ns: float
    dispatch_ns: float
    fixed_mc_ns: float
    trefi_ns: float
    refresh_block_ns: float
    row_hit_ns: float
    row_miss_ns: float
    row_conflict_ns: float
    retry_penalty_ns: float
    host_overhead_ns: float
    # per-request RNG draws (arrival order)
    arrivals: np.ndarray
    banks: np.ndarray
    row_reuse: np.ndarray
    rows: np.ndarray
    retry_draw: np.ndarray
    writes: np.ndarray
    # per-bank refresh stagger
    refresh_phase: np.ndarray
    # serial-resource tables: shift[i] = cumulative service before i
    shift_in: np.ndarray
    shift_mc: np.ndarray
    svc_out: np.ndarray
    shift_out: np.ndarray
    # per-request bank-service derating (fault injection: thermal windows);
    # None -- the fault-free default -- means no multiply happens at all,
    # keeping the fault-free float sequence untouched
    service_scale: Optional[np.ndarray] = None


@dataclass(frozen=True)
class VectorTimeline:
    """What the kernel hands back to the simulator for one cell."""

    latencies_ns: np.ndarray
    bank_conflicts: int
    refresh_collisions: int


BATCH_CHUNK_ELEMS = 16_384
"""Auto-chunk target: total requests per fused kernel call.

Measured on the reference box: one huge fused call spills the working set
out of L2 and runs *slower* per element than per-cell evaluation; chunks
of ~16k requests keep every stacked array cache-resident while still
amortizing the rounds-loop call overhead across cells.
"""

BATCH_CHUNK_LANES = 4_096
"""Auto-chunk cap on total bank lanes per fused call (also keeps the
flat bank keys inside int16 radix-sort range)."""


def batch_chunks(
    ns: Sequence[int], n_banks: Sequence[int]
) -> List[Tuple[int, int]]:
    """Split cells into cache-sized ``[start, end)`` spans, order kept.

    Greedy: a chunk closes when adding the next cell would exceed either
    the request target or the lane cap.  A single oversized cell gets a
    chunk of its own.
    """
    spans: List[Tuple[int, int]] = []
    lo = 0
    elems = 0
    lanes = 0
    for i, (n, nb) in enumerate(zip(ns, n_banks)):
        if i > lo and (
            elems + n > BATCH_CHUNK_ELEMS or lanes + nb > BATCH_CHUNK_LANES
        ):
            spans.append((lo, i))
            lo, elems, lanes = i, 0, 0
        elems += int(n)
        lanes += int(nb)
    if lo < len(ns):
        spans.append((lo, len(ns)))
    return spans


def _stack_rows(
    arrays: List[np.ndarray], ns: List[int], nmax: int, pad: float
) -> np.ndarray:
    """Stack per-cell request arrays as read-only (B, nmax) rows.

    A lone cell is viewed, not copied; equal-length cells reshape one
    concatenation; ragged batches pad short rows with ``pad``, which the
    row-parallel scans can never leak into a real prefix (see
    ``_LANE_PAD``).
    """
    B = len(arrays)
    if B == 1:
        return arrays[0].reshape(1, nmax)
    if all(n == nmax for n in ns):
        return np.concatenate(arrays).reshape(B, nmax)
    mat = np.full((B, nmax), pad)
    for i, a in enumerate(arrays):
        mat[i, : a.size] = a
    return mat


def _maxplus_rows(entry: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Start times of a serial resource, row-parallel over a (B, nmax) stack.

    Solves ``start[i] = max(entry[i], start[i-1] + service[i-1])`` where
    ``shift`` is the exclusive cumulative service.  ``maximum.accumulate``
    over ``axis=1`` evaluates each row's running maximum independently
    and sequentially, so every element sees the same IEEE-754 operations
    as the scalar recurrence written in the ``m = max(m, entry - shift);
    start = m + shift`` form.
    """
    tmp = np.subtract(entry, shift)
    np.maximum.accumulate(tmp, axis=1, out=tmp)
    return np.add(tmp, shift, out=tmp)


def batch_timeline(inputs: Sequence[SimInputs]) -> List[VectorTimeline]:
    """Evaluate B >= 1 independent simulations in one fused kernel pass.

    Every cell's result is bit-identical to the scalar reference loop on
    that cell alone, whatever its neighbours: stacked rows and broadcast
    per-cell constants perform the same IEEE-754 operations per element,
    the flat stable bank sort preserves each cell's within-bank order
    (cells occupy disjoint, ascending lane ranges), and the rounds loop
    keeps every lane's recurrence in its own column, read back only at
    the lane's live slots.

    Callers batching many cells should split them with
    :func:`batch_chunks`; one oversized call is correct but loses the
    cache locality that makes fusion profitable.
    """
    B = len(inputs)
    if B == 0:
        return []
    ns = [inp.n for inp in inputs]
    nmax = max(ns)
    N = sum(ns)
    equal = all(n == nmax for n in ns)
    # Per-cell constants as (B, 1) columns, broadcast along each row.
    consts = np.array([
        (inp.flit_ns, inp.stack_ns, inp.fixed_mc_ns,
         inp.retry_penalty_ns, inp.host_overhead_ns)
        for inp in inputs
    ])
    flit_col, stack_col, fixed_col, retry_col, host_col = (
        consts[:, k:k + 1] for k in range(consts.shape[1])
    )

    # ---- serial-resource scans, row-parallel over the stack ----
    arr = _stack_rows([inp.arrivals for inp in inputs], ns, nmax, _LANE_PAD)
    sh_in = _stack_rows([inp.shift_in for inp in inputs], ns, nmax, 0.0)
    sh_mc = _stack_rows([inp.shift_mc for inp in inputs], ns, nmax, 0.0)
    start_in = _maxplus_rows(arr, sh_in)
    # Two separate adds, exactly as the scalar loop sequences them.
    mc_entry = np.add(start_in, flit_col, out=start_in)
    np.add(mc_entry, stack_col, out=mc_entry)
    start_mc = _maxplus_rows(mc_entry, sh_mc)
    bank_entry = np.add(start_mc, fixed_col, out=start_mc)

    if equal:
        entry_flat = bank_entry.reshape(-1)
    else:
        # Flat (B * nmax) positions of the real requests, cell by cell.
        real = np.concatenate(
            [np.arange(i * nmax, i * nmax + n) for i, n in enumerate(ns)]
        )
        entry_flat = bank_entry.reshape(-1)[real]

    # ---- flat bank-lane space: cell i's bank b -> lane lane_off[i]+b ----
    nb = [inp.n_banks for inp in inputs]
    lane_off = [0, *itertools.accumulate(nb)]
    L = lane_off[-1]
    lanes = np.concatenate([inp.banks for inp in inputs])
    lanes += np.repeat(lane_off[:-1], ns)
    # Stable sort on the lane key: int16 keys take the radix path (the
    # chunker's lane cap keeps L inside int16 range).
    keys = lanes.astype(np.int16) if L < 2 ** 15 else lanes
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(lanes, minlength=L)
    bounds = np.zeros(L + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    first = np.zeros(N, dtype=bool)
    first[bounds[:-1][counts > 0]] = True

    # ---- row-buffer outcomes over the bank-sorted stream ----
    # Within each bank's segment the effective row of a request is its
    # own draw unless it reuses the bank's open row; a forward-fill over
    # "last non-reuse index" recovers the open row without walking the
    # segment.  Each segment's first request anchors to itself (its index
    # exceeds every earlier segment's), so one global
    # ``maximum.accumulate`` respects segment -- and cell -- boundaries.
    def flat(field):
        return np.concatenate([getattr(inp, field) for inp in inputs])

    reuse_s = flat("row_reuse")[order]
    reuse_s &= ~first
    rows_s = flat("rows")[order]
    idx = np.arange(N, dtype=np.int64)
    anchor = np.maximum.accumulate(np.where(reuse_s, 0, idx))
    eff_row = rows_s[anchor]
    # A request hits when it lands on the bank's open row -- by reuse or
    # by its fresh draw colliding with it, exactly as the scalar open-row
    # comparison decides.  First touches are cold misses; the rest of the
    # non-hits close an open row: conflicts.
    hit = np.zeros(N, dtype=bool)
    np.equal(eff_row[1:], eff_row[:-1], out=hit[1:])
    hit &= ~first
    conflict = ~(first | hit)
    # Service times are *selected* from each cell's (hit, miss, conflict)
    # triple -- no arithmetic -- so they are the scalar loop's float64s.
    table = np.array([
        (inp.row_hit_ns, inp.row_miss_ns, inp.row_conflict_ns)
        for inp in inputs
    ]).reshape(-1)
    outcome = first.astype(np.int64)
    outcome += conflict
    outcome += conflict
    outcome += np.repeat(3 * np.arange(B), ns)
    service_s = table[outcome]
    if any(inp.service_scale is not None for inp in inputs):
        # Thermal-throttle derating: one multiply per request, mirrored by
        # the scalar loop.  Multiplying by exactly 1.0 is a bitwise
        # identity on finite floats, so scale-free cells ride along.
        scale = np.concatenate([
            inp.service_scale if inp.service_scale is not None
            else np.ones(inp.n)
            for inp in inputs
        ])
        service_s *= scale[order]

    # ---- per-bank busy/refresh recurrence: one rounds loop ----
    # Each lane's k-th request sits in round k of a (rounds, lanes)
    # matrix, so the Python loop runs once per round over lane-wide rows.
    # Lanes are permuted by descending request count, which makes the
    # live lanes of every round a prefix.  Rounds run in groups over
    # pre-sliced views of fixed width: a group keeps its width until
    # fewer than half of its lanes are live, so the padded slots it
    # computes never outnumber the live ones.  A padded slot (t = s =
    # 0.0) only extends its own lane's chain past the lane's last
    # request, and nothing reads it back.  The work is in the
    # refresh-phase-shifted domain (``x' = x + phase[lane]``), so the
    # refresh test is a plain ``% tREFI``; ``max`` commutes with the shift
    # exactly, so both domains agree bit for bit.
    maxc = int(counts.max())
    lane_order = np.argsort(-counts, kind="stable")
    lane_rank = np.empty(L, dtype=np.int64)
    lane_rank[lane_order] = np.arange(L)
    pos_s = idx - np.repeat(bounds[:-1], counts)
    pos_s *= L
    pos_s += np.repeat(lane_rank, counts)
    pos = np.empty(N, dtype=np.int64)  # matrix slot, arrival order
    pos[order] = pos_s

    phase_lane = np.concatenate([inp.refresh_phase for inp in inputs])
    phase_req = phase_lane[lanes]
    trefi = np.repeat([inp.trefi_ns for inp in inputs], nb)[lane_order]
    block = np.repeat(
        [inp.refresh_block_ns for inp in inputs], nb
    )[lane_order]

    t_mat = np.zeros((maxc, L))
    s_mat = np.zeros((maxc, L))
    phase_mat = np.empty((maxc, L))
    done_mat = np.empty((maxc, L))
    t_mat.reshape(-1)[pos] = np.add(entry_flat, phase_req)
    s_mat.reshape(-1)[pos_s] = service_s

    busy = np.empty(L)
    wait = np.empty(L)
    ready = np.empty(L)
    prev = phase_lane[lane_order]  # idle lanes: shifted zero
    depth = counts[lane_order].tolist()  # descending
    r, w = 0, L
    while r < maxc:
        while depth[w - 1] <= r:
            w -= 1
        end = depth[(w - 1) // 2]  # first round with < half live
        busy_w, wait_w, ready_w = busy[:w], wait[:w], ready[:w]
        trefi_w, block_w = trefi[:w], block[:w]
        prev = prev[:w]
        for t_r, s_r, phase_r, done_r in zip(
            t_mat[r:end, :w], s_mat[r:end, :w],
            phase_mat[r:end, :w], done_mat[r:end, :w],
        ):
            np.maximum(t_r, prev, out=busy_w)
            np.remainder(busy_w, trefi_w, out=phase_r)
            np.subtract(block_w, phase_r, out=wait_w)
            np.add(busy_w, wait_w, out=ready_w)
            np.maximum(ready_w, busy_w, out=ready_w)
            np.add(ready_w, s_r, out=done_r)
            prev = done_r
        r = end

    # Read back exactly the live slots, in arrival order.
    phase_flat = phase_mat.reshape(-1)[pos]
    done_flat = done_mat.reshape(-1)[pos]
    done_flat -= phase_req

    # ---- outbound link, retries, latency: back in (B, nmax) rows ----
    sh_out = _stack_rows([inp.shift_out for inp in inputs], ns, nmax, 0.0)
    sv_out = _stack_rows([inp.svc_out for inp in inputs], ns, nmax, 0.0)
    retry = _stack_rows(
        [inp.retry_draw for inp in inputs], ns, nmax, False
    )
    if equal:
        done_rows = done_flat.reshape(B, nmax)
    else:
        done_rows = np.full((B, nmax), _LANE_PAD)
        done_rows.reshape(-1)[real] = done_flat
    t = _maxplus_rows(done_rows, sh_out)
    np.add(t, sv_out, out=t)
    np.add(t, stack_col, out=t)
    np.add(t, retry_col, out=t, where=retry)
    np.subtract(t, arr, out=t)
    lat = np.add(t, host_col, out=t)

    # ---- unstack per-cell timelines and counters ----
    # The sorted stream is grouped cell by cell (ascending lane ranges),
    # like the arrival-order stream, so one pair of offsets slices both.
    req_off = [0, *itertools.accumulate(ns)]
    timelines = []
    for i, inp in enumerate(inputs):
        lo, hi = req_off[i], req_off[i + 1]
        timelines.append(VectorTimeline(
            latencies_ns=lat[i, : inp.n].copy(),
            bank_conflicts=int(np.count_nonzero(conflict[lo:hi])),
            # A refresh collision: a request whose bank-arrival phase
            # falls inside the refresh block.
            refresh_collisions=int(np.count_nonzero(
                phase_flat[lo:hi] < inp.refresh_block_ns
            )),
        ))
    return timelines
