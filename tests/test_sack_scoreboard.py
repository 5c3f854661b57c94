"""Differential test of the byte-stream sender's incremental SACK
scoreboard against a full-rescan reference.

Two senders receive the same randomized ACK/SACK streams, produced by a
real :class:`ReceiverBuffer` from the packets the sender transmits:

* the production :class:`TcpSender`, whose ``_apply_sack`` resumes each
  SACK block where the previous ACK left it;
* :class:`FullRescanSender`, whose ``_apply_sack`` rescans every segment
  of every reported block on every ACK (the reference, kept here).

After every step both must agree on the wire (every transmitted
packet), ``pipe``, the SACKed and lost segment sets, the bytes each ACK
newly SACKed, ``_highest_sacked`` and the delivery-sample sequence.
:class:`RefScoreboard`, a model that shares no code with the sender,
must agree with both on the SACKed set, ``_highest_sacked``, the
newly SACKed bytes and the delivery samples, and ``pipe`` must equal
the bytes of the segments flagged in the pipe.
"""

import random

import pytest

from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine
from repro.stats.collector import NetStats
from repro.transport.base import FlowSpec, TransportConfig
from repro.transport.sack import ReceiverBuffer
from repro.transport.tcp import TcpSender

MSS = 1460


class FakeHost:
    """Records what the sender transmits; the test is the network."""

    def __init__(self, engine):
        self.engine = engine
        self.sent = []

    def register_endpoint(self, flow_id, endpoint):
        pass

    def send(self, packet):
        self.sent.append((packet.seq, packet.payload, packet.is_retx, packet.ts_sent))


class FullRescanSender(TcpSender):
    """Reference scoreboard: rescans every block from its first segment."""

    def _apply_sack(self, blocks) -> int:
        newly = 0
        pipe_drop = 0
        segs = self.segments
        for lo, hi in blocks:
            self._highest_sacked = max(self._highest_sacked, hi)
            for seg in segs[self._head:]:
                if seg.acked or seg.sacked or seg.start < lo or seg.end > hi:
                    continue
                seg.sacked = True
                seg.lost = False
                if seg.in_pipe:
                    seg.in_pipe = False
                    pipe_drop += seg.size
                self.stats.add_delivery_sample(self.engine.now - seg.first_tx_ns)
                self._retx_inflight.pop(seg, None)
                newly += seg.size
        self.pipe -= pipe_drop
        return newly


class RefScoreboard:
    """Cumulative ACK and SACK over the sender's segment list, by full
    rescan, recording delivery samples in the order they are due."""

    def __init__(self):
        self.acked = set()
        self.sacked = set()
        self.highest = 0
        self.newly = []
        self.samples = []

    def on_ack(self, segments, ack, blocks, now):
        for i, seg in enumerate(segments):
            if seg.end <= ack and i not in self.acked:
                self.acked.add(i)
                if i not in self.sacked:
                    self.samples.append(now - seg.first_tx_ns)
        if not blocks:
            return
        newly = 0
        for lo, hi in blocks:
            self.highest = max(self.highest, hi)
            for i, seg in enumerate(segments):
                if i in self.acked or i in self.sacked or seg.start < lo or seg.end > hi:
                    continue
                self.sacked.add(i)
                self.samples.append(now - seg.first_tx_ns)
                newly += seg.size
        self.newly.append(newly)


def _make(cls, engine, size):
    host = FakeHost(engine)
    stats = NetStats(seed=1)
    spec = FlowSpec(flow_id=1, src=0, dst=1, size=size, group="fg")
    config = TransportConfig(mss=MSS, init_cwnd_segments=16, base_rtt_ns=10_000)
    sender = cls(host, spec, config, stats)
    newly = []
    apply_sack = sender._apply_sack

    def recording(blocks):
        result = apply_sack(blocks)
        newly.append(result)
        return result

    sender._apply_sack = recording
    return sender, host, stats, newly


def _state(sender, stats, newly):
    segs = sender.segments
    return {
        "pipe": sender.pipe,
        "sacked": [i for i, s in enumerate(segs) if s.sacked],
        "lost": [i for i, s in enumerate(segs) if s.lost],
        "newly": list(newly),
        "highest": sender._highest_sacked,
        "snd_una": sender.snd_una,
        "delivery": list(stats.delivery_samples),
        "rtt": list(stats.rtt_samples_fg),
    }


def run_stream(seed, size=200 * MSS + 700, steps=6_000):
    """Drive both senders with one random stream; returns coverage."""
    rng = random.Random(seed)
    engine = Engine()
    real = _make(TcpSender, engine, size)
    ref = _make(FullRescanSender, engine, size)
    pair = (real, ref)
    for sender, *_ in pair:
        sender.start()
    buffer = ReceiverBuffer()
    in_flight = []  # wire packets not yet delivered or dropped
    seen = 0
    cover = {"recency": 0, "lo_moved": 0, "unaligned": 0, "retx": 0, "rto": 0}
    last_blocks = ()
    model = RefScoreboard()

    def check():
        assert real[1].sent == ref[1].sent
        state = _state(real[0], real[2], real[3])
        assert state == _state(ref[0], ref[2], ref[3])
        assert state["sacked"] == sorted(model.sacked)
        assert state["highest"] == model.highest
        assert state["newly"] == model.newly
        assert state["delivery"] == model.samples
        segs = real[0].segments
        assert state["pipe"] == sum(seg.size for seg in segs if seg.in_pipe)

    for _ in range(steps):
        if real[0].completed:
            break
        engine.now += rng.randrange(1, 2_000)
        fresh = real[1].sent[seen:]
        seen = len(real[1].sent)
        in_flight.extend(fresh)
        cover["retx"] += sum(1 for pkt in fresh if pkt[2])
        roll = rng.random()
        if roll < 0.03 and real[0].snd_una < size:
            # TLT 1-byte clock probe of the first unacked byte.
            for sender, *_ in pair:
                sender.clock_one_byte()
            continue
        if not in_flight or roll < 0.04:
            # Retransmission timeout: everything outstanding is lost.
            for sender, *_ in pair:
                sender._on_timeout()
            cover["rto"] += 1
            # Every outstanding segment is lost, SACKed, or was just
            # retransmitted by the collapsed window.
            assert all(seg.lost or seg.sacked or seg.last_tx_ns == engine.now
                       for seg in real[0].segments[real[0]._head:])
            check()
            continue
        # Mostly FIFO, sometimes reordered (islands then merge
        # downward), sometimes dropped.
        pick = 0 if rng.random() < 0.7 else rng.randrange(min(len(in_flight), 8))
        seq, payload, _is_retx, ts_sent = in_flight.pop(pick)
        if rng.random() < 0.12:
            continue
        buffer.on_data(seq, payload)
        ack = Packet(1, 1, 0, PacketKind.ACK, ack=buffer.rcv_nxt)
        ack.sack = buffer.sack_blocks()
        ack.ts_echo = ts_sent
        if buffer.rcv_nxt % MSS and buffer.rcv_nxt < size:
            cover["unaligned"] += 1
        if len(ack.sack) > 1 and ack.sack[0] != min(ack.sack):
            cover["recency"] += 1
        if any(hi == old_hi and lo < old_lo
               for lo, hi in ack.sack for old_lo, old_hi in last_blocks):
            cover["lo_moved"] += 1
        last_blocks = ack.sack
        model.on_ack(real[0].segments, ack.ack, ack.sack, engine.now)
        for sender, *_ in pair:
            sender.on_packet(ack)
        check()
    return cover


@pytest.mark.parametrize("seed", range(8))
def test_incremental_scoreboard_matches_full_rescan(seed):
    run_stream(seed)


def test_streams_cover_every_scoreboard_case():
    total = {}
    for seed in range(8):
        for key, count in run_stream(seed).items():
            total[key] = total.get(key, 0) + count
    assert all(count > 0 for count in total.values()), total


def test_resume_points_are_cleared_once_islands_are_gone():
    engine = Engine()
    sender, host, _stats, _newly = _make(TcpSender, engine, 20 * MSS)
    sender.start()
    blocks = ((2 * MSS, 4 * MSS),)
    ack = Packet(1, 1, 0, PacketKind.ACK, ack=MSS)
    ack.sack = blocks
    sender.on_packet(ack)
    assert sender._sack_resume == {2 * MSS: 4}
    ack = Packet(1, 1, 0, PacketKind.ACK, ack=4 * MSS)
    sender.on_packet(ack)
    assert sender._sack_resume == {}
