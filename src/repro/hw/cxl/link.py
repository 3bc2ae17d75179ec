"""The CXL Flex Bus link: PCIe physical layer + CXL transaction/link layers.

CXL.mem rides on PCIe lanes but replaces the PCIe transaction layer with a
lighter-weight, flit-based protocol.  The pieces that matter for memory
performance are:

* **Serialization**: a 68-byte flit (CXL 1.1/2.0) carrying a 64-byte
  cacheline takes ``flit_bytes / (lanes * lane_rate)`` to cross the wire in
  each direction.
* **Protocol processing**: the transaction + link layers add a small fixed
  latency (single-digit ns per the Das Sharma et al. survey the paper
  cites), but their queues are a source of *non-determinism*: flow-control
  back-pressure and link-layer retries (CRC failures) insert occasional
  multi-flit delays even under light load.
* **Duplexing**: the link is full duplex -- reads and writes use separate
  unidirectional lane sets -- unless the device's controller IP fails to
  exploit this (the paper's FPGA-based CXL-C), in which case the two
  directions behave like one shared bus.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs.metrics import metrics
from repro.units import CACHELINE_BYTES

PCIE_GTPS = {3: 8.0, 4: 16.0, 5: 32.0, 6: 64.0}
"""Per-lane transfer rate (GT/s) by PCIe generation."""

PCIE_EFFICIENCY = {3: 0.985, 4: 0.985, 5: 0.985, 6: 0.940}
"""Usable wire fraction after line encoding (128b/130b; gen6 adds FEC).

Only the *physical-layer* coding overhead belongs here: CXL.mem replaces the
PCIe transaction layer with its own flit protocol, whose header/CRC share is
carried by :class:`FlitFormat`.  (The previous values, ~0.79, additionally
folded in PCIe TLP/DLLP framing that flit-mode links never pay; combined
with the flit overhead that double-counted protocol cost and left the
x16 link's payload ceiling below CXL-D's measured 52 GB/s read bandwidth.)
"""

FLITS_PER_ACCESS = 2
"""Wire crossings per memory access: one request flit out, one response back."""


@dataclass(frozen=True)
class FlitFormat:
    """CXL flit layout: payload plus header/CRC overhead."""

    total_bytes: int = 68
    payload_bytes: int = CACHELINE_BYTES

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0 or self.total_bytes < self.payload_bytes:
            raise ConfigurationError("flit must be at least as large as its payload")

    @property
    def overhead_fraction(self) -> float:
        """Fraction of wire bytes spent on header + CRC."""
        return 1.0 - self.payload_bytes / self.total_bytes


@dataclass(frozen=True)
class CxlLink:
    """One CXL link: generation, width, and protocol-layer behaviour.

    Parameters
    ----------
    pcie_gen:
        PCIe generation (our testbed devices are gen5-capable but train at
        the host's supported rate).
    lanes:
        Link width (x8 for CXL-A/B/C, x16 for CXL-D).
    stack_latency_ns:
        Fixed one-way transaction+link layer processing latency, per
        direction (request out, response back => counted twice per access).
    retry_probability:
        Probability that a flit requires a link-layer retry; each retry
        costs ``retry_penalty_ns``.  Feeds the device's tail model.
    full_duplex:
        Whether the device's controller IP drives both directions
        concurrently.  ``False`` reproduces CXL-C's FPGA behaviour.
    """

    pcie_gen: int = 5
    lanes: int = 8
    flit: FlitFormat = FlitFormat()
    stack_latency_ns: float = 12.0
    retry_probability: float = 1e-5
    retry_penalty_ns: float = 100.0
    full_duplex: bool = True

    def __post_init__(self) -> None:
        if self.pcie_gen not in PCIE_GTPS:
            raise ConfigurationError(f"unsupported PCIe generation: {self.pcie_gen}")
        if self.lanes not in (1, 2, 4, 8, 16):
            raise ConfigurationError(f"invalid lane count: {self.lanes}")
        if self.stack_latency_ns < 0:
            raise ConfigurationError("stack latency must be >= 0")
        if not 0.0 <= self.retry_probability <= 1.0:
            raise ConfigurationError("retry probability must be in [0, 1]")

    @property
    def raw_gbps_per_direction(self) -> float:
        """Raw wire bandwidth per direction (GB/s): GT/s x lanes x 1B/T."""
        return PCIE_GTPS[self.pcie_gen] * self.lanes / 8.0

    @property
    def effective_gbps_per_direction(self) -> float:
        """Payload bandwidth per direction after encoding + flit overhead."""
        raw = PCIE_GTPS[self.pcie_gen] * self.lanes / 8.0
        return raw * PCIE_EFFICIENCY[self.pcie_gen] * (1.0 - self.flit.overhead_fraction)

    def serialization_ns(self) -> float:
        """Time to serialize one flit onto the wire, one direction."""
        gbps = PCIE_GTPS[self.pcie_gen] * self.lanes / 8.0
        return self.flit.total_bytes / gbps  # bytes / (GB/s) == ns

    def storm_retry_probability(
        self, multiplier: float, flit_exchanges: float = 50.0
    ) -> float:
        """Per-request retry probability during a CRC burst (RAS faults).

        A retry storm -- marginal signal integrity, a flaky retimer --
        multiplies the per-flit CRC-failure rate; aggregated over the
        ``flit_exchanges`` a request's flits make (the same aggregation
        the event simulator's baseline draw uses), clamped to a valid
        probability.
        """
        if multiplier < 0:
            raise ConfigurationError("retry multiplier must be >= 0")
        return min(
            1.0, self.retry_probability * flit_exchanges * multiplier
        )

    def expected_retry_ns_per_flit(self) -> float:
        """Expected link-layer retry cost charged to one flit crossing.

        ``retry_probability`` is a *per-flit* CRC-failure probability, so the
        expected cost accrues on every wire crossing, not once per access.
        """
        return self.retry_probability * self.retry_penalty_ns

    def round_trip_overhead_ns(self) -> float:
        """Mean added round-trip latency of the link for one access.

        Request flit out + response flit back (:data:`FLITS_PER_ACCESS`
        serializations, each carrying its expected retry cost) plus two
        transaction/link-stack traversals.
        """
        metrics().counter("hw.link.round_trip_evals").inc()
        return (
            FLITS_PER_ACCESS
            * (self.serialization_ns() + self.expected_retry_ns_per_flit())
            + 2.0 * self.stack_latency_ns
        )
