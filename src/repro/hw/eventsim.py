"""A compact event-driven queue simulator for validating the analytic models.

The analytic targets in this package compute loaded latency from closed-form
queueing expressions.  This module provides an independent discrete-event
simulation of the same physical setup -- N closed-loop clients issuing
requests with think time against a single service point -- so tests can
check that the analytic fixed point (:func:`repro.hw.queueing.solve_closed_loop`)
agrees with an actual simulation, and so ablation studies can quantify what
the closed forms abstract away.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SimResult:
    """Outcome of one closed-loop simulation run."""

    latencies_ns: np.ndarray  # per-request total latency (queue + service)
    duration_ns: float  # simulated time span
    completed: int  # requests completed

    @property
    def mean_latency_ns(self) -> float:
        """Mean per-request latency."""
        return float(self.latencies_ns.mean()) if self.completed else 0.0

    @property
    def throughput_per_ns(self) -> float:
        """Completed requests per simulated nanosecond."""
        return self.completed / self.duration_ns if self.duration_ns > 0 else 0.0

    def bandwidth_gbps(self, bytes_per_request: int = 64) -> float:
        """Achieved bandwidth in GB/s."""
        return self.throughput_per_ns * bytes_per_request


def simulate_closed_loop(
    n_clients: int,
    think_time_ns: float,
    service_sampler,
    n_requests: int,
    rng: np.random.Generator,
    servers: int = 1,
) -> SimResult:
    """Simulate N closed-loop clients against a FCFS multi-server station.

    Each client repeats: think for ``think_time_ns`` (exponentially jittered
    to avoid lockstep artefacts), issue a request, wait for completion.
    Service times are drawn from ``service_sampler(rng) -> ns``.

    Parameters
    ----------
    n_clients:
        Concurrent closed-loop clients (traffic threads).
    think_time_ns:
        Mean think (injected-delay) time between a completion and the next
        issue from the same client.
    service_sampler:
        Callable returning one service time in ns.
    n_requests:
        Total completions to simulate.
    servers:
        Parallel service units (e.g. DRAM channels behaving independently).
    """
    if n_clients <= 0 or n_requests <= 0 or servers <= 0:
        raise ConfigurationError("clients, requests, and servers must be positive")
    if think_time_ns < 0:
        raise ConfigurationError("think time must be >= 0")

    # Event heap holds (time, seq, kind, client); kinds: 0=issue 1=finish.
    events = []
    seq = 0
    for client in range(n_clients):
        start = rng.exponential(think_time_ns) if think_time_ns > 0 else 0.0
        heapq.heappush(events, (start, seq, 0, client))
        seq += 1

    server_free_at = [0.0] * servers
    # A request's latency is known at issue but recorded at completion:
    # with several requests in flight, completions are what number them.
    in_flight = [0.0] * n_clients
    latencies = np.empty(n_requests)
    completed = 0
    now = 0.0
    while completed < n_requests and events:
        now, _, kind, client = heapq.heappop(events)
        if kind == 0:  # issue a request
            server_idx = int(np.argmin(server_free_at))
            begin = max(now, server_free_at[server_idx])
            service = float(service_sampler(rng))
            finish = begin + service
            server_free_at[server_idx] = finish
            in_flight[client] = finish - now
            heapq.heappush(events, (finish, seq, 1, client))
            seq += 1
        else:  # completion: record and start thinking
            latencies[completed] = in_flight[client]
            completed += 1
            think = rng.exponential(think_time_ns) if think_time_ns > 0 else 0.0
            heapq.heappush(events, (now + think, seq, 0, client))
            seq += 1

    return SimResult(
        latencies_ns=latencies[:completed],
        duration_ns=now,
        completed=completed,
    )
