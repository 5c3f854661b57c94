"""Linux-style retransmission timeout estimation.

``RTO = SRTT + max(G, 4 * RTTVAR)``, clamped to ``[rto_min, rto_max]``,
with SRTT/RTTVAR EWMAs per RFC 6298 (gains 1/8 and 1/4) and exponential
backoff on consecutive timeouts. All arithmetic is integer nanoseconds.
"""

from __future__ import annotations

from repro.sim.units import MICROS, MILLIS


class RtoEstimator:
    """Tracks SRTT/RTTVAR and produces the current RTO.

    ``base_rto`` (before backoff) and ``current`` (with backoff,
    ``min(base_rto << backoff_count, rto_max)``) are stored, not
    derived: the sender reads them on every ACK and transmission, and
    they change only on an RTT sample or a backoff.
    """

    __slots__ = (
        "rto_min", "rto_max", "base_max", "granularity", "srtt", "rttvar",
        "backoff_count", "base_rto", "current",
    )

    def __init__(
        self,
        rto_min: int = 4 * MILLIS,
        rto_max: int = 1_000 * MILLIS,
        granularity: int = 10 * MICROS,
    ):
        if rto_min <= 0 or rto_max < rto_min:
            raise ValueError("invalid RTO bounds")
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.base_max = rto_max  # upper clamp of the RTO before backoff
        self.granularity = granularity
        self.srtt = 0  # 0 means "no sample yet"
        self.rttvar = 0
        self.backoff_count = 0
        # Conservative default before any sample.
        self.base_rto = self.current = rto_min

    def on_rtt_sample(self, rtt_ns: int) -> None:
        """Feed one RTT measurement (Karn-safe samples only)."""
        if rtt_ns <= 0:
            rtt_ns = 1
        srtt = self.srtt
        if srtt == 0:
            srtt = rtt_ns
            rttvar = rtt_ns // 2
        else:
            # EWMA steps divide rounding toward zero (RFC 6298): Python's
            # // floors, and -1 // 8 == -1 would drag SRTT/RTTVAR low.
            delta = srtt - rtt_ns
            if delta < 0:
                delta = -delta
            d = delta - self.rttvar
            rttvar = self.rttvar + (d // 4 if d >= 0 else -(-d // 4))
            d = rtt_ns - srtt
            srtt += d // 8 if d >= 0 else -(-d // 8)
        self.srtt = srtt
        self.rttvar = rttvar
        self.backoff_count = 0
        var4 = 4 * rttvar
        rto = srtt + (var4 if var4 > self.granularity else self.granularity)
        if rto < self.rto_min:
            rto = self.rto_min
        elif rto > self.base_max:
            rto = self.base_max
        self.base_rto = self.current = rto

    def backoff(self) -> None:
        """Double the RTO after a timeout (capped by rto_max)."""
        if (self.base_rto << self.backoff_count) < self.rto_max:
            self.backoff_count += 1
        self.current = min(self.base_rto << self.backoff_count, self.rto_max)


class FixedRto(RtoEstimator):
    """A static RTO (the 'aggressive fixed timeout' strawman of §2.2).

    RTT samples are accepted (so transports can still report SRTT) but
    never change the timeout: the RTO before backoff is clamped to
    ``[rto_ns, rto_ns]``. Backoff still applies, up to ``rto_max``.
    """

    __slots__ = ()

    def __init__(self, rto_ns: int, rto_max: int = 1_000 * MILLIS):
        super().__init__(rto_min=rto_ns, rto_max=rto_max)
        self.base_max = rto_ns
