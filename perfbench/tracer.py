"""Outside-in per-layer tracer for one scenario run.

The tracer changes nothing under ``src/``. It measures each layer from
outside, with two mechanisms:

* **Spans** wrap public entry points of a layer. Class-level wraps are
  installed before the network is built, because constructors cache
  bound methods; per-instance wraps (switch and host ``receive`` and
  ``poll``) are installed on every device right after the build.
* **Dispatch attribution** charges each engine-dispatched callback to
  an owner layer. The engine's public attribution table
  (:func:`repro.sim.engine.set_attribution`) calls ``table.get(key)``
  once after every dispatched callback returns; :class:`_DispatchTable`
  uses that call to close the callback's books.

A span's self time is its duration minus its child spans. A dispatched
callback's self time is its duration minus the spans directly inside
it, so a ``Port._drain`` burst splits into its link, switch, host and
transport parts. Whatever the wall clock spends outside any callback
(the engine loop, the scenario's drive loop) is ``sim`` time. Hence the
closure every traced run checks::

    sum(layer self times) + sim.self_s == traced wall time

Only the wall window counts toward self times: spans before the first
``Engine.run`` (network build) are counted as calls but not as time.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: Layers, each named after the modules it covers.
LAYERS = ("link", "switch", "host", "transport", "tlt", "stats", "service")

#: Per-layer metrics with the end-to-end metric each should move, on
#: which workload. Later changes cite these by metric name.
PREDICTIONS: Dict[str, str] = {
    "sim": "sim.events, sim.ns_per_event, sim.self_s (repro.sim engine loop) "
           "move ref_events_per_frame on all three workloads",
    "link": "link.* (repro.net.link) move ref_events_per_frame on all three; the "
            "PAUSE path (link.pause_frames, link.paused_fraction) moves "
            "ref_events_per_frame, sim_pause_per_1k and sim_bg_fct_mean_ms only "
            "on fabric-dcqcn-pfc",
    "switch": "switch.* (repro.switchsim) move ref_events_per_frame, most of all on "
              "fabric-dcqcn-pfc",
    "host": "host.* (repro.net.node) move ref_events_per_frame on all three",
    "transport": "transport.self_s moves ref_events_per_frame on fabric-dctcp-tlt "
                 "and service-openloop and not on fabric-dcqcn-pfc; "
                 "transport.flow_setup_s moves ref_events_per_frame mostly on "
                 "service-openloop",
    "tlt": "tlt.self_s (repro.core) moves ref_events_per_frame; "
           "tlt.important_loss_rate tracks sim_lat_p99_ms and "
           "sim_timeouts_per_1k",
    "stats": "stats.* move ref_events_per_frame and peak_rss_mb on service-openloop",
    "service": "service.* (repro.service, repro.apps) move ref_events_per_frame on "
               "service-openloop only",
}

#: Owner layer of engine-dispatched callbacks: by full qualname, else
#: by its first dotted component (the defining class).
DISPATCH_OWNERS: Dict[str, str] = {
    "Port": "link",
    "PfcEngine": "switch",
    "ByteStreamSender": "transport",
    "RoceSender": "transport",
    "DcqcnRateControl": "transport",
    "HpccController": "transport",
    "create_flow": "transport",
    "run_scenario.<locals>.create": "transport",
    "run_scenario.<locals>.sample_queues": "stats",
    "OpenLoopArrivals": "service",
    "ServiceEmulator": "service",
    "ServiceServer": "service",
    "KvServer": "service",
    "KvClient": "service",
    "RpcNode": "service",
}

#: Class-level spans: (module, class, method, layer).
CLASS_SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.net.node", "Host", "send", "host"),
    ("repro.transport.base", "ByteStreamSender", "on_packet", "transport"),
    ("repro.transport.base", "ByteStreamReceiver", "on_packet", "transport"),
    ("repro.transport.roce", "RoceSender", "on_packet", "transport"),
    ("repro.transport.roce", "RoceReceiver", "on_packet", "transport"),
    ("repro.core.window", "TltWindowSender", "mark_data", "tlt"),
    ("repro.core.window", "TltWindowSender", "mark_clock_data", "tlt"),
    ("repro.core.window", "TltWindowSender", "on_ack", "tlt"),
    ("repro.core.window", "TltWindowSender", "on_ack_post", "tlt"),
    ("repro.core.window", "TltWindowSender", "after_ack", "tlt"),
    ("repro.core.window", "TltWindowReceiver", "on_data", "tlt"),
    ("repro.core.window", "TltWindowReceiver", "mark_ack", "tlt"),
    ("repro.core.rate", "TltRateSender", "mark_data", "tlt"),
    ("repro.core.rate", "TltRateSender", "on_retx_round", "tlt"),
    ("repro.stats.collector", "NetStats", "new_flow", "stats"),
    ("repro.stats.collector", "NetStats", "retire_flow", "stats"),
    ("repro.stats.collector", "NetStats", "add_rtt_sample", "stats"),
    ("repro.stats.collector", "NetStats", "add_delivery_sample", "stats"),
    ("repro.stats.collector", "NetStats", "count_drop", "stats"),
    ("repro.stats.collector", "NetStats", "count_fault_drop", "stats"),
    ("repro.stats.streaming", "StreamingQuantile", "add", "stats"),
    ("repro.apps.rpc", "RpcNode", "send", "service"),
    ("repro.apps.rpc", "MessageDelivery", "__call__", "service"),
)

#: Flow creation is a module function imported by name, so it is
#: replaced in every module that holds a reference to it.
FLOW_CREATE_MODULES = (
    "repro.transport.registry",
    "repro.experiments.scenarios",
    "repro.apps.rpc",
)

ON_PACKET_SPANS = tuple(
    f"{cls}.{method}" for _m, cls, method, _l in CLASS_SPANS
    if method == "on_packet")
WINDOW_TLT_SPANS = tuple(
    f"{cls}.{method}" for _m, cls, method, _l in CLASS_SPANS
    if cls.startswith("TltWindow"))


class _DispatchTable(dict):
    """The engine's attribution table, closing each callback's books.

    ``Engine.run`` calls ``get(key)`` right after a dispatched callback
    returns and adds the callback's duration to the record it gets
    back. At that moment every top-level span the callback made has
    been summed into ``stack[0]``: that sum is charged to the owner as
    nested time, and the accumulator starts over for the next callback.
    """

    def __init__(self, tracer: "Tracer"):
        super().__init__()
        self._tracer = tracer
        self._owner: Dict[str, str] = {}

    def get(self, key, default=None):
        record = dict.get(self, key)
        if record is None:
            record = [0, 0]
            self[key] = record
            self._owner[key] = self._tracer.owner_of(key)
        stack = self._tracer.stack
        self._tracer.nested_ns[self._owner[key]] += stack[0]
        stack[0] = 0
        return record

    def owner_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for key, (_calls, total_ns) in self.items():
            owner = self._owner[key]
            totals[owner] = totals.get(owner, 0) + total_ns
        return totals


class Tracer:
    """Spans and dispatch attribution for one run in this process."""

    def __init__(self) -> None:
        #: Child-time accumulator per open span; ``stack[0]`` collects
        #: top-level spans until the enclosing callback closes.
        self.stack: List[int] = [0]
        #: span name -> [calls, inclusive ns, self ns]
        self.spans: Dict[str, List[int]] = {}
        self.span_layer: Dict[str, str] = {}
        #: owner layer -> top-level span ns inside its callbacks
        self.nested_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.nested_ns["sim"] = 0
        #: top-level span ns outside any callback, inside the wall window
        self.outside_ns = 0
        self.unmapped: set = set()
        self.table = _DispatchTable(self)
        #: switch egress queue depth at each dequeue, KiB -> count
        self.queue_hist: Dict[int, int] = {}
        self._setup_self: Optional[Dict[str, int]] = None
        self._restore: List[Tuple[object, str, object]] = []

    # -- ownership -------------------------------------------------------------

    def owner_of(self, key: str) -> str:
        owner = DISPATCH_OWNERS.get(key) or DISPATCH_OWNERS.get(key.split(".", 1)[0])
        if owner is None:
            self.unmapped.add(key)
            return "sim"
        return owner

    # -- spans -----------------------------------------------------------------

    def span(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``layer`` recorded as ``name``."""
        record = self.spans.setdefault(name, [0, 0, 0])
        self.span_layer[name] = layer
        stack = self.stack
        push, pop, clock = stack.append, stack.pop, perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            push(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = pop()
                stack[-1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - child

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the class-level entry points and hook the engine.

        Call before the network is built. Per-instance spans follow
        from the wrapped ``build_network``.
        """
        from repro.experiments import scenarios
        from repro.sim import engine as engine_mod

        for module, cls_name, method, layer in CLASS_SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            fn = cls.__dict__[method]
            self._patch(cls, method, self.span(layer, f"{cls_name}.{method}", fn))
        create = importlib.import_module(FLOW_CREATE_MODULES[0]).create_flow
        traced_create = self.span("transport", "create_flow", create)
        for module in FLOW_CREATE_MODULES:
            self._patch(importlib.import_module(module), "create_flow", traced_create)

        build = scenarios.build_network

        @functools.wraps(build)
        def build_traced(config):
            net = build(config)
            self.wrap_devices(net)
            return net

        self._patch(scenarios, "build_network", build_traced)
        engine_mod.set_attribution(self.table)

    def uninstall(self) -> None:
        from repro.sim import engine as engine_mod

        engine_mod.set_attribution(None)
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def wrap_devices(self, net) -> None:
        """Per-instance spans on every switch and host."""
        for switch in net.switches:
            switch.receive = self.span("switch", "Switch.receive", switch.receive)
            switch.poll = self.span("switch", "Switch.poll",
                                    self._sample_queue(switch, switch.poll))
        for host in net.hosts:
            host.receive = self.span("host", "Host.receive", host.receive)
            host.poll = self.span("host", "Host.poll", host.poll)

    def _sample_queue(self, switch, poll: Callable) -> Callable:
        """Record the egress port's queue depth after every dequeue."""
        classes = switch.config.num_traffic_classes
        by_port = [[switch.queue_for(port.port_no, tclass) for tclass in range(classes)]
                   for port in switch.ports]
        hist = self.queue_hist

        def sampled(port):
            packet = poll(port)
            if packet is not None:
                kib = sum(queue.occupancy for queue in by_port[port.port_no]) >> 10
                hist[kib] = hist.get(kib, 0) + 1
            return packet

        return sampled

    # -- wall window -----------------------------------------------------------

    def boundary(self, first: bool) -> None:
        """Called at each ``Engine.run`` entry and exit, and when the
        scenario returns: top-level spans made outside any callback are
        settled here. The first call opens the wall window."""
        if first:
            self._setup_self = {name: rec[2] for name, rec in self.spans.items()}
        else:
            self.outside_ns += self.stack[0]
        self.stack[0] = 0

    # -- results -----------------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.spans[name][0] for name in names if name in self.spans)

    def inclusive_ns(self, name: str) -> int:
        return self.spans[name][1] if name in self.spans else 0

    def layer_times(self, wall_ns: int) -> Tuple[Dict[str, int], List[str]]:
        """Self ns per layer (plus ``sim`` and ``transport.timer``) over
        the wall window, and the list of failed accounting checks."""
        setup = self._setup_self or {}
        span_self = {layer: 0 for layer in LAYERS}
        for name, (_calls, _incl, self_ns) in self.spans.items():
            span_self[self.span_layer[name]] += self_ns - setup.get(name, 0)
        dispatched = self.table.owner_totals()
        times: Dict[str, int] = {}
        for layer in LAYERS:
            times[layer] = (dispatched.get(layer, 0) - self.nested_ns[layer]
                            + span_self[layer])
        times["transport.timer"] = (dispatched.get("transport", 0)
                                    - self.nested_ns["transport"])
        times["sim"] = (wall_ns - sum(dispatched.values()) - self.outside_ns
                        + dispatched.get("sim", 0) - self.nested_ns["sim"])
        problems = []
        if self.unmapped:
            problems.append(f"callbacks with no owner layer: {sorted(self.unmapped)}")
        closure = sum(times[layer] for layer in LAYERS) + times["sim"]
        if abs(closure - wall_ns) > 1_000:
            problems.append(f"layer closure: self times sum to {closure} ns, "
                            f"traced wall is {wall_ns} ns")
        negative = [name for name, ns in times.items() if ns < 0]
        if negative:
            problems.append(f"negative self time (double-charged spans): {negative}")
        link_dispatch = dispatched.get("link", 0)
        if link_dispatch and not 0 < times["link"] < link_dispatch:
            problems.append("link.self_s does not exclude its nested spans")
        return times, problems

    def queue_p99_kib(self) -> float:
        total = sum(self.queue_hist.values())
        if not total:
            return 0.0
        rank = 0.99 * total
        seen = 0
        for kib in sorted(self.queue_hist):
            seen += self.queue_hist[kib]
            if seen >= rank:
                return float(kib)
        return float(max(self.queue_hist))
