"""Shared transport machinery and the window-based byte-stream base.

:class:`ByteStreamSender` / :class:`ByteStreamReceiver` implement the
mechanics every TCP-family transport shares: a segment scoreboard with
SACK, dup-ACK-threshold-1 early retransmit, Linux-style RTO handling
with exponential backoff, and NewReno-style recovery. Reno window
growth is built into the ACK path; congestion control variants (DCTCP)
override the ``cc_*`` hooks.

TLT hooks (``tlt`` on the sender, ``tlt_rx`` on the receiver) are
optional objects provided by :mod:`repro.core.window`; when absent the
transport behaves exactly like the baseline protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from collections import deque

from repro.net.node import Host
from repro.net.packet import Color, Packet, PacketKind, TltMark, alloc_packet
from repro.sim.units import MICROS, MILLIS
from repro.stats.collector import FlowRecord, NetStats
from repro.transport.rto import FixedRto, RtoEstimator
from repro.transport.sack import ReceiverBuffer


@dataclass
class FlowSpec:
    """Description of one flow to run."""

    flow_id: int
    src: int
    dst: int
    size: int
    start_ns: int = 0
    group: str = "bg"  # "fg" foreground/incast or "bg" background
    on_complete_rx: Optional[Callable[["FlowRecord"], None]] = None
    on_complete_ack: Optional[Callable[["FlowRecord"], None]] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"flow size must be positive, got {self.size}")
        if self.src == self.dst:
            raise ValueError("flow source and destination must differ")
        if self.start_ns < 0:
            raise ValueError("flow start time cannot be negative")


@dataclass
class TransportConfig:
    """Knobs shared across the transport suite (paper defaults)."""

    mss: int = 1460
    init_cwnd_segments: int = 10
    rto_min_ns: int = 4 * MILLIS
    rto_max_ns: int = 1_000 * MILLIS
    fixed_rto_ns: Optional[int] = None  # static RTO (e.g. the 160 us strawman)
    dupack_threshold: int = 1
    ecn: bool = False  # sender sets ECT, reacts to echoes (DCTCP)
    dctcp_g: float = 1.0 / 16.0
    tlp_enabled: bool = False
    tlp_pto_min_ns: int = 10 * MICROS
    # Model the 3-way handshake and FIN teardown. SYN/SYN-ACK/FIN are
    # control packets — always important/green under TLT (§5). Off by
    # default: the paper's benchmarks pre-establish connections.
    handshake: bool = False
    # Sender window cap (the role the receive window plays on real
    # hosts); None derives 4x BDP from base_rtt/link_rate.
    max_cwnd_bytes: Optional[int] = None
    # Switch traffic class carried by every packet of the flow
    # (incremental deployment, §5.3: TLT and legacy traffic can be
    # isolated in separate egress queues).
    traffic_class: int = 0
    # Color stamped on every packet of a *non-TLT* flow. None keeps the
    # default (green, i.e. untouched by color-aware dropping). Set to
    # Color.RED to model legacy traffic whose packets carry no TLT DSCP
    # and are classified unimportant by a TLT-configured ACL — the
    # §5.3 misdeployment the incremental-deployment experiment shows.
    plain_color: Optional[object] = None
    # RoCE family additions.
    packet_payload: int = 1000
    window_cap_bytes: Optional[int] = None
    # HPCC parameters.
    hpcc_eta: float = 0.95
    hpcc_max_stage: int = 5
    hpcc_wai_bytes: int = 1000  # additive increase per adjustment
    base_rtt_ns: int = 80 * MICROS
    # DCQCN parameters.
    dcqcn_rate_ai_bps: int = 40_000_000  # 40 Mbps additive increase
    dcqcn_rate_hai_bps: int = 400_000_000
    dcqcn_g: float = 1.0 / 256.0
    dcqcn_alpha_timer_ns: int = 55 * MICROS
    dcqcn_rate_timer_ns: int = 55 * MICROS
    dcqcn_byte_counter: int = 10 * 1_000_000
    dcqcn_fr_stages: int = 5
    cnp_interval_ns: int = 50 * MICROS
    min_rate_bps: int = 40_000_000
    link_rate_bps: int = 40_000_000_000

    def make_rto(self) -> RtoEstimator:
        if self.fixed_rto_ns is not None:
            return FixedRto(self.fixed_rto_ns, self.rto_max_ns)
        return RtoEstimator(self.rto_min_ns, self.rto_max_ns)


class Segment:
    """Sender-side scoreboard entry for one transmitted segment."""

    __slots__ = (
        "start",
        "end",
        "size",
        "acked",
        "sacked",
        "lost",
        "in_pipe",
        "retx_count",
        "first_tx_ns",
        "last_tx_ns",
    )

    def __init__(self, start: int, end: int):
        self.start = start
        self.end = end
        self.size = end - start  # bounds are fixed for the segment's life
        self.acked = False
        self.sacked = False
        self.lost = False
        self.in_pipe = False
        self.retx_count = 0
        self.first_tx_ns = -1
        self.last_tx_ns = -1

    def __repr__(self) -> str:  # pragma: no cover
        flags = "".join(
            c
            for c, f in (
                ("A", self.acked),
                ("S", self.sacked),
                ("L", self.lost),
                ("P", self.in_pipe),
            )
            if f
        )
        return f"Seg[{self.start},{self.end}){flags}"


class ByteStreamReceiver:
    """Receives a byte stream, ACKs every data packet, generates SACK."""

    def __init__(self, host: Host, spec: FlowSpec, config: TransportConfig, stats: NetStats):
        self.host = host
        self.spec = spec
        self.config = config
        self.stats = stats
        self.engine = host.engine
        self.buffer = ReceiverBuffer()
        self.tlt_rx = None  # set by repro.core.window.TltWindowReceiver
        self.done = False
        host.register_endpoint(spec.flow_id, self)

    @property
    def record(self) -> Optional[FlowRecord]:
        """The flow record created by the sender (shared via stats)."""
        return self.stats.flows.get(self.spec.flow_id)

    def on_packet(self, packet: Packet) -> None:
        kind = packet.kind
        if kind != PacketKind.DATA:  # DATA first: it is the common case
            if kind == PacketKind.SYN:
                self._send_syn_ack(packet)
            # FIN and anything else: teardown is fire-and-forget;
            # bookkeeping is done at rx.
            return
        tlt_rx = self.tlt_rx
        if tlt_rx is not None and packet.mark is not TltMark.NONE:
            tlt_rx.on_data(packet)
        buffer = self.buffer
        buffer.on_data(packet.seq, packet.payload)
        spec = self.spec
        if not self.done and buffer.rcv_nxt >= spec.size:
            self.done = True
            if self.record is not None:
                self.record.end_rx_ns = self.engine.now
            if spec.on_complete_rx is not None:
                spec.on_complete_rx(self.record)
        # One ACK per delivered data packet.
        config = self.config
        ack = alloc_packet(
            spec.flow_id, spec.dst, spec.src, PacketKind.ACK, 0, 0, buffer.rcv_nxt
        )
        ack.sack = buffer.sack_blocks() if buffer.intervals else ()
        ack.ecn_echo = packet.ce
        ack.ts_echo = packet.ts_sent
        ack.tclass = config.traffic_class
        # Pure ACKs are control packets: always important (green).
        ack.color = Color.GREEN
        ack.mark = TltMark.CONTROL
        if tlt_rx is not None:
            if tlt_rx.state is not tlt_rx.IDLE:
                tlt_rx.mark_ack(ack)  # Important (Clock) Echo
        elif config.plain_color is not None:
            ack.color = config.plain_color
            ack.mark = TltMark.NONE
        self.host.send(ack)

    def _send_syn_ack(self, syn: Packet) -> None:
        """Reply to a SYN; idempotent for retransmitted SYNs."""
        syn_ack = alloc_packet(self.spec.flow_id, self.spec.dst, self.spec.src, PacketKind.SYN_ACK)
        syn_ack.ts_echo = syn.ts_sent
        syn_ack.tclass = self.config.traffic_class
        syn_ack.color = Color.GREEN
        syn_ack.mark = TltMark.CONTROL
        self.host.send(syn_ack)


class ByteStreamSender:
    """Window-based reliable sender (base for TCP/DCTCP and variants)."""

    #: overridden by subclasses for reporting
    name = "bytestream"

    def __init__(
        self,
        host: Host,
        spec: FlowSpec,
        config: TransportConfig,
        stats: NetStats,
    ):
        self.host = host
        self.spec = spec
        self.config = config
        self.stats = stats
        self.engine = host.engine
        self.record = stats.new_flow(
            spec.flow_id, spec.src, spec.dst, spec.size, spec.start_ns, spec.group
        )

        mss = config.mss
        self.mss = mss
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = config.init_cwnd_segments * mss
        self.ssthresh = 1 << 60
        self.pipe = 0
        self.dupacks = 0
        self.in_recovery = False
        self.recover_point = 0
        self.segments: List[Segment] = []
        self._head = 0  # index of first not-fully-acked segment
        self.lost_queue: Deque[Segment] = deque()
        self._ca_acc = 0  # congestion-avoidance byte accumulator
        self._highest_sacked = 0  # highest SACKed sequence seen
        self._sack_resume: dict = {}  # SACK block lo -> resume index
        self._scan_hint = 0  # first index possibly unresolved below SACK
        # Retransmitted segments awaiting ACK. An insertion-ordered dict,
        # not a set: Segment hashes by identity, so set iteration order
        # would depend on heap addresses — the RACK re-mark loop in
        # _detect_losses() would then retransmit same-pass losses in a
        # process-dependent order. Dict iteration is insertion
        # (= retransmission) order, a pure function of simulation state.
        self._retx_inflight: dict = {}
        if config.max_cwnd_bytes is not None:
            self.max_cwnd = config.max_cwnd_bytes
        else:
            bdp = config.link_rate_bps * config.base_rtt_ns // 8 // 1_000_000_000
            self.max_cwnd = max(4 * bdp, 64 * mss)

        # The ACK path feeds these reservoirs directly.
        self._rtt_samples = stats.rtt_samples_fg if spec.group == "fg" else stats.rtt_samples_bg
        self._delivery_samples = stats.delivery_samples

        self.rto = config.make_rto()
        self._rto_deadline: Optional[int] = None
        self._rto_event = None
        self._pto_event = None
        self._probe_outstanding = False

        self.tlt = None  # set by repro.core.window.TltWindowSender
        self.started = False
        self.established = False  # True once the (optional) handshake ends
        self.completed = False

        host.register_endpoint(spec.flow_id, self)
        # Handle kept so a sharded run can neuter the inert sender
        # replica on a non-owning shard (repro.sim.sharding).
        self._start_event = self.engine.schedule_at(spec.start_ns, self.start)

    # ------------------------------------------------------------------ start

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        if self.config.handshake:
            self._send_syn()
        else:
            self.established = True
            self.try_send()

    # ------------------------------------------------------------ handshake

    def _send_syn(self) -> None:
        syn = alloc_packet(self.spec.flow_id, self.spec.src, self.spec.dst, PacketKind.SYN)
        syn.ts_sent = self.engine.now
        syn.tclass = self.config.traffic_class
        syn.color = Color.GREEN
        syn.mark = TltMark.CONTROL
        self.host.send(syn)
        # SYN retransmission timer (counts as a timeout when it fires).
        self._arm_rto()

    def _on_syn_ack(self, packet: Packet) -> None:
        if self.established:
            return
        self.established = True
        if packet.ts_echo > 0:
            self.rto.on_rtt_sample(self.engine.now - packet.ts_echo)
        self._cancel_rto()
        self.try_send()

    def _send_fin(self) -> None:
        fin = alloc_packet(self.spec.flow_id, self.spec.src, self.spec.dst, PacketKind.FIN)
        fin.ts_sent = self.engine.now
        fin.tclass = self.config.traffic_class
        fin.color = Color.GREEN
        fin.mark = TltMark.CONTROL
        self.host.send(fin)

    # ------------------------------------------------------------ send path

    def try_send(self) -> int:
        """Send as much as the window allows; returns packets sent.

        Lost segments go first, then new data. Entries that went stale
        in ``lost_queue`` (acked, SACKed or already retransmitted) are
        dropped from its head as they are met.
        """
        if not self.started or not self.established or self.completed:
            return 0
        sent = 0
        lost_queue = self.lost_queue
        cwnd = self.cwnd  # constant across the burst (_transmit never adjusts it)
        mss = self.mss
        spec_size = self.spec.size
        while True:
            seg = None
            while lost_queue:
                head = lost_queue[0]
                if head.acked or head.sacked or not head.lost:
                    lost_queue.popleft()
                    continue
                seg = head
                break
            if seg is not None:
                if self.pipe + seg.size > cwnd:
                    break
                lost_queue.popleft()
            else:
                remaining = spec_size - self.snd_nxt
                if remaining <= 0:
                    break
                size = mss if mss < remaining else remaining
                if self.pipe + size > cwnd:
                    break
                seg = Segment(self.snd_nxt, self.snd_nxt + size)
                self.segments.append(seg)
                self.snd_nxt = seg.end
            self._transmit(seg)
            sent += 1
        return sent

    def _transmit(self, seg: Segment, clock_mark: bool = False) -> None:
        now = self.engine.now
        size = seg.size
        record = self.record
        is_retx = seg.first_tx_ns >= 0
        if is_retx:
            seg.retx_count += 1
            seg.lost = False
            record.retx_bytes += size
            self._retx_inflight[seg] = None
        else:
            seg.first_tx_ns = now
        seg.last_tx_ns = now
        if not seg.in_pipe:
            seg.in_pipe = True
            self.pipe += size

        spec = self.spec
        config = self.config
        packet = alloc_packet(
            spec.flow_id, spec.src, spec.dst, PacketKind.DATA, seg.start, size
        )
        packet.ecn_capable = config.ecn
        packet.ts_sent = now
        packet.tclass = config.traffic_class
        packet.is_retx = is_retx
        record.tx_bytes += size

        tlt = self.tlt
        if tlt is not None:
            if clock_mark:
                tlt.mark_clock_data(packet)
            else:
                # Is this the last packet the window allows right now? It
                # is unless a pending retransmission or the next new
                # segment still fits. Stale lost_queue heads are dropped
                # exactly as try_send drops them.
                lost_queue = self.lost_queue
                while lost_queue:
                    head = lost_queue[0]
                    if head.acked or head.sacked or not head.lost:
                        lost_queue.popleft()
                        continue
                    last = self.pipe + head.size > self.cwnd
                    break
                else:
                    remaining = spec.size - self.snd_nxt
                    next_size = self.mss if self.mss < remaining else remaining
                    last = remaining <= 0 or self.pipe + next_size > self.cwnd
                tlt.mark_data(packet, last)
        elif config.plain_color is not None:
            packet.color = config.plain_color
        self.host.send(packet)
        if self._rto_deadline is None:
            self._restart_rto()
        if config.tlp_enabled:
            self._arm_pto()

    # ------------------------------------------------------------ receive path

    def on_packet(self, packet: Packet) -> None:
        """Process one ACK: RTT sample, cumulative ACK, SACK, TLT
        echo-based loss detection, congestion control, then send.

        This runs once per delivered data packet, so it is straight-line
        code: apart from ``tlt.on_ack``, each TLT and congestion-control
        hook is called only when its guard says it has work to do.
        """
        if self.completed:
            return
        kind = packet.kind
        if kind != PacketKind.ACK:  # ACK first: it is the common case
            if kind == PacketKind.SYN_ACK:
                self._on_syn_ack(packet)
            return
        tlt = self.tlt
        if tlt is not None and not tlt.on_ack(packet):
            return  # Important Clock Echo suppressed below snd_una
        now = self.engine.now

        # Timestamp-based RTT sample (Karn-safe: echo carries the actual
        # transmission time of the packet that triggered this ACK).
        ts_echo = packet.ts_echo
        if ts_echo > 0:
            rtt = now - ts_echo
            self.rto.on_rtt_sample(rtt)
            self._rtt_samples.add(rtt)

        newly_acked = 0
        ack = packet.ack
        snd_una = self.snd_una
        if ack > snd_una:
            newly_acked = ack - snd_una
            self.snd_una = ack
            self.dupacks = 0
            self._probe_outstanding = False
            # Move the window base past every fully acknowledged segment.
            # A segment SACKed earlier already gave its delivery sample.
            segs = self.segments
            idx = self._head
            n = len(segs)
            pipe_drop = 0
            while idx < n:
                seg = segs[idx]
                if seg.end > ack:
                    break
                if seg.in_pipe:
                    seg.in_pipe = False
                    pipe_drop += seg.size
                if not seg.sacked:
                    self._delivery_samples.add(now - seg.first_tx_ns)
                seg.acked = True
                seg.lost = False
                if seg.retx_count:
                    self._retx_inflight.pop(seg, None)
                idx += 1
            self.pipe -= pipe_drop
            self._head = idx
            if self._scan_hint < idx:
                self._scan_hint = idx
            if self.in_recovery and ack >= self.recover_point:
                self.in_recovery = False
            self._restart_rto()
        elif ack == snd_una and snd_una < self.snd_nxt:
            self.dupacks += 1

        blocks = packet.sack
        if blocks:
            sacked_bytes = self._apply_sack(blocks)
        else:
            sacked_bytes = 0
            if self._sack_resume:
                self._sack_resume.clear()  # no islands left to resume

        if tlt is not None and tlt.pending_echo_ts is not None:
            # Echo-based loss detection runs once the ACK/SACK state is
            # current, so freshly acknowledged segments are not marked.
            tlt.on_ack_post(packet)

        config = self.config
        # ECN echo processing, then the end of the congestion control's
        # observation window (both DCTCP overrides).
        if packet.ecn_echo and config.ecn:
            self.cc_on_ecn_echo(newly_acked)
        if self.snd_una >= self.cc_window_end:
            self.cc_on_window_end()

        if newly_acked and not self.in_recovery:
            # Reno growth: slow start below ssthresh, else 1 MSS per RTT;
            # capped at max_cwnd (the receive-window role).
            mss = self.mss
            cwnd = self.cwnd
            if cwnd < self.ssthresh:
                cwnd += newly_acked if newly_acked < mss else mss
            else:
                self._ca_acc += mss * newly_acked
                if self._ca_acc >= cwnd:
                    self._ca_acc -= cwnd
                    cwnd += mss
            self.cwnd = cwnd if cwnd < self.max_cwnd else self.max_cwnd

        # Loss detection: dup-ACK threshold (1 = early retransmit) or
        # SACK holes below the highest SACKed sequence.
        if self.dupacks >= config.dupack_threshold or sacked_bytes:
            self._detect_losses()

        if self.snd_una >= self.spec.size:
            self._complete()
            return

        self.try_send()
        if tlt is not None and tlt.state is tlt.IMPORTANT:
            tlt.after_ack()  # the Important state was not consumed: clock

    def _apply_sack(self, blocks) -> int:
        """Mark SACKed segments; returns the bytes newly SACKed.

        Segments are MSS-aligned, so a block's first whole segment is
        ``ceil(lo / mss)``. ``_sack_resume`` maps a block's ``lo`` to a
        resume index: every segment from the block's first up to that
        index is already SACKed. An island that grew by one segment
        therefore costs one step, and when islands merge the scan jumps
        over each old island from its first segment. Segments at or
        past ``_head`` are never acked, so SACKed is the only flag that
        can be set there.
        """
        newly = 0
        now = self.engine.now
        segs = self.segments
        mss = self.mss
        head = self._head
        n = len(segs)
        pipe_drop = 0
        resume = self._sack_resume
        highest = self._highest_sacked
        for lo, hi in blocks:
            if hi > highest:
                highest = hi
            idx = resume.get(lo)
            if idx is None:
                idx = -(-lo // mss)
            if idx < head:
                idx = head
            while idx < n:
                seg = segs[idx]
                if seg.end > hi:
                    break
                if seg.sacked:
                    idx = max(idx + 1, resume.get(seg.start, 0))
                    continue
                seg.sacked = True
                seg.lost = False
                if seg.in_pipe:
                    seg.in_pipe = False
                    pipe_drop += seg.size
                self._delivery_samples.add(now - seg.first_tx_ns)
                if seg.retx_count:
                    self._retx_inflight.pop(seg, None)
                newly += seg.size
                idx += 1
            resume[lo] = idx
        self._highest_sacked = highest
        self.pipe -= pipe_drop
        return newly

    def _detect_losses(self) -> None:
        """Mark holes lost (dup-ACK threshold 1 / SACK-based).

        Three rules, each amortized O(1) per segment transition:

        1. never-retransmitted segments below the highest SACK are holes
           (scanned once thanks to the resolved-prefix hint);
        2. on a duplicate ACK the head-of-line segment is a hole
           (early retransmit, dup-ACK threshold 1);
        3. a *retransmitted* segment is only re-marked once it has aged
           a full SRTT below the highest SACK (RACK-style) — re-marking
           it on every ACK would spuriously retransmit in-flight data.
        """
        now = self.engine.now
        srtt = self.rto.srtt or self.config.base_rtt_ns
        marked = 0
        segs = self.segments
        n = len(segs)
        highest = self._highest_sacked

        idx = max(self._head, self._scan_hint)
        while idx < n:
            seg = segs[idx]
            if seg.end > highest:
                break
            if not (seg.acked or seg.sacked or seg.lost) and seg.retx_count == 0:
                self._mark_lost(seg)
                marked += 1
            idx += 1
        self._scan_hint = idx

        if self.dupacks >= self.config.dupack_threshold and self._head < n:
            head_seg = segs[self._head]
            if not (head_seg.acked or head_seg.sacked or head_seg.lost):
                if head_seg.retx_count == 0 or head_seg.last_tx_ns + srtt <= now:
                    self._mark_lost(head_seg)
                    marked += 1

        if self._retx_inflight:
            for seg in list(self._retx_inflight):
                if seg.acked or seg.sacked or seg.lost:
                    self._retx_inflight.pop(seg, None)
                    continue
                if seg.end <= highest and seg.last_tx_ns + srtt <= now:
                    self._mark_lost(seg)
                    marked += 1

        if marked:
            self._enter_recovery()

    def _mark_lost(self, seg: Segment) -> None:
        if seg.lost or seg.acked or seg.sacked:
            return
        seg.lost = True
        if seg.in_pipe:
            seg.in_pipe = False
            self.pipe -= seg.size
        self._retx_inflight.pop(seg, None)
        self.lost_queue.append(seg)

    def mark_lost_sent_before(self, tx_time_ns: int) -> int:
        """TLT echo-based loss detection: everything transmitted at or
        before ``tx_time_ns`` that is still unacknowledged is lost
        (§5.1, 'guaranteed fast loss detection'). Returns bytes marked."""
        marked = 0
        for seg in self.segments[self._head:]:
            if seg.acked or seg.sacked or seg.lost:
                continue
            if seg.last_tx_ns >= 0 and seg.last_tx_ns <= tx_time_ns and seg.in_pipe:
                self._mark_lost(seg)
                marked += seg.size
        if marked:
            self._enter_recovery()
        return marked

    def _enter_recovery(self) -> None:
        if self.in_recovery:
            return
        self.in_recovery = True
        self.recover_point = self.snd_nxt
        self.stats.fast_retransmits += 1
        self.cc_on_loss()

    # --------------------------------------------------------------- timers

    def _arm_rto(self) -> None:
        if self._rto_deadline is None:
            self._restart_rto()

    def _restart_rto(self) -> None:
        self._rto_deadline = self.engine.now + self.rto.current
        if self._rto_event is None:
            self._rto_event = self.engine.schedule_timer_at(self._rto_deadline, self._rto_fire)

    def _cancel_rto(self) -> None:
        self._rto_deadline = None
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _rto_fire(self) -> None:
        self._rto_event = None
        if self.completed or self._rto_deadline is None:
            return
        now = self.engine.now
        if now < self._rto_deadline:
            self._rto_event = self.engine.schedule_timer_at(self._rto_deadline, self._rto_fire)
            return
        if self.snd_una >= self.spec.size:
            return
        self._on_timeout()

    def _on_timeout(self) -> None:
        self.record.timeouts += 1
        self.stats.timeouts += 1
        if self.stats.audit_ring is not None:
            self.stats.audit_ring.record(
                "rto_fire", flow=self.spec.flow_id, time_ns=self.engine.now,
                info=self.rto.current,
            )
        if self.stats.on_rto_fire is not None:
            self.stats.on_rto_fire(self.spec.flow_id, self.rto.current)
        self.rto.backoff()
        if not self.established:
            # SYN (or SYN-ACK) lost: retransmit the SYN.
            self._rto_deadline = self.engine.now + self.rto.current
            self._rto_event = self.engine.schedule_timer_at(self._rto_deadline, self._rto_fire)
            self._send_syn()
            return
        self.dupacks = 0
        # Collapse the window and retransmit from snd_una.
        self.ssthresh = max(self.pipe // 2, 2 * self.mss)
        self.cwnd = self.mss
        self._ca_acc = 0
        self.in_recovery = True
        self.recover_point = self.snd_nxt
        for seg in self.segments[self._head:]:
            if not (seg.acked or seg.sacked):
                self._mark_lost(seg)
        self._rto_deadline = self.engine.now + self.rto.current
        self._rto_event = self.engine.schedule_timer_at(self._rto_deadline, self._rto_fire)
        self.try_send()

    # -------------------------------------------------------------- TLP

    def _arm_pto(self) -> None:
        if self._probe_outstanding:
            return
        srtt = self.rto.srtt or self.config.base_rtt_ns
        pto = max(2 * srtt, self.config.tlp_pto_min_ns)
        pto = min(pto, self.rto.current)
        if self._pto_event is not None:
            self._pto_event.cancel()
        self._pto_event = self.engine.schedule_timer(pto, self._pto_fire)

    def _pto_fire(self) -> None:
        self._pto_event = None
        if self.completed or self.snd_una >= self.spec.size:
            return
        if self.pipe == 0 and self.snd_nxt <= self.snd_una:
            return
        # Transmit a loss probe: new data if any, else the highest
        # outstanding segment.
        self._probe_outstanding = True
        if self.snd_nxt < self.spec.size:
            size = min(self.mss, self.spec.size - self.snd_nxt)
            seg = Segment(self.snd_nxt, self.snd_nxt + size)
            self.segments.append(seg)
            self.snd_nxt = seg.end
            self._transmit(seg)
            return
        for idx in range(len(self.segments) - 1, self._head - 1, -1):
            seg = self.segments[idx]
            if not (seg.acked or seg.sacked):
                self._transmit(seg)
                return

    # ------------------------------------------------------- TLT helpers

    def is_all_acked(self) -> bool:
        """True when every byte of the flow has been acknowledged."""
        return self.snd_una >= self.spec.size

    def has_unrepaired_loss(self) -> bool:
        while self.lost_queue:
            seg = self.lost_queue[0]
            if seg.acked or seg.sacked or not seg.lost:
                self.lost_queue.popleft()
                continue
            return True
        return False

    def outstanding_bytes(self) -> int:
        return self.snd_nxt - self.snd_una

    def clock_retransmit(self) -> int:
        """Important ACK-clocking, 1-MSS flavor: retransmit the first
        lost segment (or the first unacked one when nothing is marked
        lost). The caller (TLT controller) marks the packet.
        Returns the number of bytes sent."""
        seg = self.lost_queue.popleft() if self.has_unrepaired_loss() else None
        if seg is None:
            for cand in self.segments[self._head:]:
                if not (cand.acked or cand.sacked):
                    seg = cand
                    break
        if seg is None:
            return 0
        self._transmit(seg, clock_mark=True)
        return seg.size

    def clock_one_byte(self) -> None:
        """Important ACK-clocking, 1-byte flavor: resend the first
        unacked byte (minimal footprint, §5.1)."""
        packet = alloc_packet(
            self.spec.flow_id, self.spec.src, self.spec.dst, PacketKind.DATA,
            seq=self.snd_una, payload=1,
        )
        packet.ecn_capable = self.config.ecn
        packet.ts_sent = self.engine.now
        packet.tclass = self.config.traffic_class
        packet.is_retx = True
        if self.tlt is not None:
            self.tlt.mark_clock_data(packet)
        self.host.send(packet)
        self._arm_rto()

    # ------------------------------------------------------- CC hooks

    def cc_on_loss(self) -> None:
        """Reno halving on entering fast recovery."""
        self.ssthresh = max(self.cwnd // 2, 2 * self.mss)
        self.cwnd = self.ssthresh
        self._ca_acc = 0

    def cc_on_ecn_echo(self, newly_acked: int) -> None:
        """ECN reaction; vanilla TCP treats it like loss (once per window)."""

    #: ``snd_una`` at or past this ends the observation window and calls
    #: :meth:`cc_on_window_end`; Reno keeps no window, so never.
    cc_window_end = 1 << 62

    def cc_on_window_end(self) -> None:
        """Once per observation window (e.g. DCTCP's alpha update)."""

    # ------------------------------------------------------------- completion

    def _complete(self) -> None:
        if self.completed:
            return
        self.completed = True
        self._cancel_rto()
        if self._pto_event is not None:
            self._pto_event.cancel()
            self._pto_event = None
        self.record.end_ack_ns = self.engine.now
        self.record.final_rto_ns = self.rto.base_rto
        self.record.final_srtt_ns = self.rto.srtt
        if self.config.handshake:
            self._send_fin()
        if self.spec.on_complete_ack is not None:
            self.spec.on_complete_ack(self.record)
